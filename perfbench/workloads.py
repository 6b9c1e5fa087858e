"""The program calls of one repetition, run inside a fresh child interpreter.

Each function receives the imported zetaforge modules and the inputs run.py
generated from the seed, times every call with ``perf_counter`` around the
public function alone, and returns the raw outputs for run.py to check.  Nothing here checks correctness and nothing here imports
an oracle, so a child's peak memory is the program's.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction


class Recorder:
    """Times program calls and counts the ones that raise."""

    def __init__(self) -> None:
        self.times: dict = {}
        self.failures: list = []
        self.attempted = 0

    def call(self, metric, label, fn):
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a failed operation is reported, not fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if metric is not None:
            self.times.setdefault(metric, []).append(time.perf_counter() - start)
        return value


def _fr(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# numeric-deep
# ---------------------------------------------------------------------------


def _solve(m, rec, metric, model, N, count):
    spectra, specval = m["spectra"], m["specval"]
    if model["model"] == "ncho":
        params = specval.NchoParams(model["alpha"], model["beta"])
        return rec.call(metric, f"ncho_eigs {model}", lambda: spectra.ncho_eigs(params, N=N, count=count))
    params = spectra.QrmParams(model["g"], model["delta"], model["eps"])
    return rec.call(metric, f"qrm_eigs {model}", lambda: spectra.qrm_eigs(params, N=N, count=count))


def _rabi_small_t(spectra, model):
    """Z(t) ~ 2 (1/t - RB_1(0) + RB_2(0) t/2) below the Mellin cut, from the
    program's exact Rabi-Bernoulli table, as the mellin-zeta job does."""
    rb1, rb2 = spectra.rabi_bernoulli_exact(1), spectra.rabi_bernoulli_exact(2)
    g2, d2 = model["g"] ** 2, model["delta"] ** 2
    c1, c2 = rb1.evaluate_float(0.0, g2, d2), rb2.evaluate_float(0.0, g2, d2)
    return lambda t: 2.0 * (1.0 / t - c1 + c2 * t / 2.0)


def _zeta_from_spectrum(spectra, spec, model, job):
    Z = spectra.partition_callable(spec)
    small_t = _rabi_small_t(spectra, model)
    out = {
        "partition": [spectra.partition_from_spectrum(spec, t, tail="QHO_BOUND") for t in job["t_grid"]],
        "direct": [spectra.spectral_zeta_direct(spec, s, job["tau"]) for s in job["s"]],
        "mellin": [
            spectra.spectral_zeta_mellin(Z, s, job["tau"], small_t_model=small_t, t_cut=job["t_cut"])
            for s in job["s"]
        ],
    }
    return out


def numeric_deep(m, inputs, rec):
    spectra, specval = m["spectra"], m["specval"]
    n_small, n_deep, count = inputs["small_N"], inputs["deep_N"], inputs["count"]
    spectra_out = {}
    specs = {}
    for i, model in enumerate(inputs["small"]):
        spec = _solve(m, rec, "small_solve_s", model, n_small, count)
        if spec is not None:
            specs[f"small{i}"] = spec
    for key, metric in (("ncho", "ncho_solve_s"), ("qrm", "qrm_solve_s"), ("qrm_biased", "qrm_biased_solve_s")):
        spec = _solve(m, rec, metric, inputs[key], n_deep, count)
        if spec is not None:
            specs[key] = spec
    for key, spec in specs.items():
        spectra_out[key] = {"eigenvalues": list(spec.eigenvalues), "convergence": list(spec.convergence)}

    zeta_out = []
    for job in inputs["zeta"]:
        spec = specs.get(f"small{job['small']}")
        if spec is None:
            continue
        model = inputs["small"][job["small"]]
        res = rec.call("zeta_from_spectrum_s", f"zeta {job}", lambda: _zeta_from_spectrum(spectra, spec, model, job))
        if res is not None:
            zeta_out.append({"job": job, **res})

    # Monte Carlo cube integrals: kappa = 0 pins and the assembled zeta_Q(k)
    mc_out = []
    mc_time = 0.0
    mc_samples = 0
    seed = inputs["mc_seed"]
    deep = inputs["ncho"]
    nparams = specval.NchoParams(deep["alpha"], deep["beta"])
    jobs = [("r21", lambda: specval.r_kj_quadrature(2, 1, 0.0, budget=inputs["mc_r21"], seed=seed))]
    for which, n, k in inputs["mc_ab"]:
        jobs.append(
            (f"{which}{n}{k}", lambda which=which, n=n, k=k: specval.appendixB_integral(which, n, k, budget=inputs["mc_ab_budget"], seed=seed))
        )
    for k in (2, 3, 4):
        jobs.append((f"zetaQ{k}", lambda k=k: specval.zetaQ_special(k, nparams, budget=inputs["mc_zq_budget"], seed=seed)))
    for label, fn in jobs:
        start = time.perf_counter()
        res = rec.call(None, f"mc {label}", fn)
        elapsed = time.perf_counter() - start
        if res is not None:
            mc_time += elapsed
            mc_samples += res.samples_or_nodes
            mc_out.append({"label": label, "value": res.value, "std_error": res.std_error, "samples": res.samples_or_nodes})
    if mc_time > 0:
        rec.times["mc_s"] = [mc_time]
        rec.times["mc_samples_per_s"] = [mc_samples / mc_time]

    # bracket of the spectral zeta_Q(k) from the deep oscillator spectrum
    zq_direct = {}
    if "ncho" in specs:
        zq_direct = {k: spectra.spectral_zeta_direct(specs["ncho"], k, 0.0) for k in (2, 3, 4)}
    return {"spectra": spectra_out, "zeta": zeta_out, "mc": mc_out, "zetaQ_direct": zq_direct}


# ---------------------------------------------------------------------------
# exact-deep
# ---------------------------------------------------------------------------


def exact_deep(m, inputs, rec):
    exact, aperynum, specval, series = m["exact"], m["aperynum"], m["specval"], m["series"]
    out = {}
    kb = inputs["bernoulli_max"]
    # the table is cold: nothing before this call asks for a Bernoulli number
    if rec.call("bernoulli_table_s", "bernoulli", lambda: exact.bernoulli_number(kb)) is not None:
        out["bernoulli"] = {k: _fr(exact.bernoulli_number(k)) for k in range(0, kb + 1, 2)}

    na = inputs["apery_max"]
    a2 = rec.call(None, "apery2", lambda: [aperynum.apery2(n) for n in range(na + 1)])
    a3 = rec.call(None, "apery3", lambda: [aperynum.apery3(n) for n in range(na + 1)])
    if a2 is not None and a3 is not None:
        out["apery"] = {n: [str(a2[n]), str(a3[n])] for n in inputs["apery_spots"]}
    sup = []
    for kind, p, mm, r in inputs["super"]:
        rep = rec.call(None, f"supercongruence {kind} {p} {mm} {r}", lambda: aperynum.supercongruence_check(kind, p, mm, r))
        if rep is not None:
            sup.append({"case": [kind, p, mm, r], "ok": rep.ok, "lhs": rep.lhs_residue, "rhs": rep.rhs_residue})
    out["supercongruence"] = sup

    # r_k1_series grows its tJ table term by term; tj_table builds it whole
    kappa = inputs["kappa"]
    res = rec.call("r_k1_series_s", "r_k1_series", lambda: specval.r_k1_series(2, kappa, inputs["series_n"]))
    if res is not None:
        out["r_k1_series"] = {"kappa": kappa, "value": res[0], "last": res[1]}

    tj_total = 0.0
    tj_out = {}
    nt = inputs["tj_n"]
    for k in range(2, 7):
        start = time.perf_counter()
        table = rec.call(None, f"tj_table {k}", lambda k=k: aperynum.tj_table(k, nt))
        tj_total += time.perf_counter() - start
        if table is not None:
            tj_out[k] = {"length": len(table), "spots": {n: _fr(table[n]) for n in inputs["tj_spots"][str(k)]}}
    out["tj_table"] = tj_out
    if len(tj_out) == 5:
        rec.times["tj_table_s"] = [tj_total / 5.0]

    q = inputs["qmax"]

    def identities():
        return series.verify_w2_identity(q), series.jacobi_theta_identity_check(q)

    res = rec.call("qseries_identity_s", "qseries", identities)
    if res is not None:
        rep, jac = res
        out["qseries"] = {"matched": rep.matched, "convention": rep.convention_used, "jacobi": None if jac is None else str(jac)}
    return out


# ---------------------------------------------------------------------------
# verify-cli, in process (for the traced run and its untraced twin)
# ---------------------------------------------------------------------------


def cli_in_process(m, inputs, rec):
    cli = m["cli"]
    jobs = []
    for name, argv in inputs["jobs"]:
        buf = io.StringIO()

        def job():
            with redirect_stdout(buf):
                return cli.run(argv)

        code = rec.call(None, name, job)
        if code not in (None, 0):
            rec.failures.append(f"{name}: exit code {code}")
        jobs.append({"name": name, "code": code, "stdout": buf.getvalue()})
    return {"jobs": jobs}


WORKLOADS = {"numeric-deep": numeric_deep, "exact-deep": exact_deep, "verify-cli": cli_in_process}
