"""Checks of the program's outputs against the oracles, made by run.py
after each child has exited (outside every timed region).

Each ``check_*`` function takes the inputs run.py generated and the raw
outputs the child returned, and returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

import oracles

# the program's default convergence threshold; the benchmark passes none
THRESHOLD = 1e-8
# reference truncation as a multiple of the program's N
REF_FACTOR = 4
# Mellin route against the direct route: the small-t model below the cut
# drops terms of order t^2, worth about t_cut^(s+2) relative
MELLIN_RTOL = 1e-4
# Monte Carlo: agreement in reported standard errors, and the largest
# relative standard error accepted at the budgets the workload uses
MC_SIGMAS = 5.0
MC_MAX_REL_SE = 1e-2


@lru_cache(maxsize=None)
def _bernoulli(k: int) -> Fraction:
    return oracles.bernoulli(k)


# ---------------------------------------------------------------------------
# numeric-deep
# ---------------------------------------------------------------------------


def _check_spectrum(key, model, N, eigs, errors):
    count = len(eigs)
    eigs = np.asarray(eigs)
    ref = oracles.reference_spectrum(model, REF_FACTOR * N, count)
    floor = oracles.rounding_floor(oracles.truncation_norm(model, N))
    dev = float(np.max(np.abs(eigs - ref)))
    if dev > THRESHOLD + floor:
        errors.append(f"{key}: max |lambda - reference| = {dev:.3e}")
    below = float(np.min(eigs - ref))
    if below < -floor:
        errors.append(f"{key}: eigenvalue {-below:.3e} below the deeper truncation")
    progs = oracles.progressions(model)
    if progs is not None:
        closed = oracles.progression_eigs(progs, count)
        dev = float(np.max(np.abs(eigs - closed)))
        if dev > THRESHOLD + floor:
            errors.append(f"{key}: max |lambda - closed form| = {dev:.3e}")
    if model["model"] == "ncho" and not oracles.ncho_pair_bounds_ok(
        model["alpha"], model["beta"], list(eigs), THRESHOLD + floor
    ):
        errors.append(f"{key}: pair bounds violated")


def _inside(value, mid, half, floor) -> bool:
    return abs(value - mid) <= half + floor


def check_numeric(inputs, out) -> list:
    errors = []
    models = {f"small{i}": (m, inputs["small_N"]) for i, m in enumerate(inputs["small"])}
    for key in ("ncho", "qrm", "qrm_biased"):
        models[key] = (inputs[key], inputs["deep_N"])
    for key, spec in out["spectra"].items():
        model, N = models[key]
        _check_spectrum(key, model, N, spec["eigenvalues"], errors)

    for z in out["zeta"]:
        job = z["job"]
        key = f"small{job['small']}"
        progs = oracles.progressions(models[key][0])
        eigs = np.asarray(out["spectra"][key]["eigenvalues"])
        # sensitivity of the sums to the eigenvalues' own error
        dev = float(np.max(np.abs(eigs - oracles.progression_eigs(progs, len(eigs)))))
        for t, (value, half) in zip(job["t_grid"], z["partition"]):
            exact = oracles.progression_partition(progs, t)
            if not _inside(exact, value, half, abs(exact) * (1e-12 + 2 * t * dev)):
                errors.append(f"{key}: Z({t}) = {value} +/- {half}, closed form {exact}")
        lam0 = float(eigs[0]) + job["tau"]
        for s, (value, half), mellin in zip(job["s"], z["direct"], z["mellin"]):
            exact = oracles.progression_zeta(progs, s, job["tau"])
            if not _inside(exact, value, half, abs(exact) * (1e-12 + 2 * s * dev / lam0)):
                errors.append(f"{key}: zeta({s}) = {value} +/- {half}, closed form {exact}")
            if not _inside(mellin, value, half, MELLIN_RTOL * abs(value)):
                errors.append(f"{key}: Mellin zeta({s}) = {mellin}, direct {value} +/- {half}")

    deep = inputs["ncho"]
    direct = {int(k): v for k, v in out["zetaQ_direct"].items()}
    if direct:
        closed = oracles.zetaQ2_closed(deep["alpha"], deep["beta"])
        mid, half = direct[2]
        if not _inside(closed, mid, half, 1e-12 * abs(closed)):
            errors.append(f"zeta_Q(2) closed form {closed} outside the direct bracket {mid} +/- {half}")
    for mc in out["mc"]:
        label, value, se = mc["label"], mc["value"], mc["std_error"]
        if label == "r21":
            exact, slack = math.pi**2 / 2, 0.0
        elif label.startswith("zetaQ"):
            if not direct:
                continue
            exact, slack = direct[int(label[5:])]
        else:
            exact, slack = oracles.APPENDIX_AB[(label[0], int(label[1]), int(label[2]))], 0.0
        if abs(value - exact) > MC_SIGMAS * se + slack:
            errors.append(f"MC {label} = {value} +/- {se}, expected {exact} +/- {slack}")
        if not (0.0 < se <= MC_MAX_REL_SE * abs(exact)):
            errors.append(f"MC {label}: standard error {se} outside (0, {MC_MAX_REL_SE} |value|]")
    return errors


# ---------------------------------------------------------------------------
# exact-deep
# ---------------------------------------------------------------------------


def check_exact(inputs, out) -> list:
    errors = []
    for k, text in out.get("bernoulli", {}).items():
        if Fraction(text) != _bernoulli(int(k)):
            errors.append(f"B_{k} = {text} differs from sympy")
    for n, (a2, a3) in out.get("apery", {}).items():
        n = int(n)
        if int(a2) != oracles.apery2(n) or int(a3) != oracles.apery3(n):
            errors.append(f"Apery numbers at n = {n} differ from the binomial sums")
    for rep in out["supercongruence"]:
        if not rep["ok"] or rep["lhs"] != rep["rhs"]:
            errors.append(f"supercongruence {rep['case']} fails: {rep['lhs']} vs {rep['rhs']}")
    if "r_k1_series" in out:
        r = out["r_k1_series"]
        exact = oracles.r21_closed(r["kappa"])
        if abs(r["value"] - exact) > max(1e-10 * abs(exact), 10 * r["last"]):
            errors.append(f"R_21({r['kappa']}) series {r['value']}, closed form {exact}")
    for k, tab in out["tj_table"].items():
        k = int(k)
        if tab["length"] != inputs["tj_n"] + 1:
            errors.append(f"tj_table({k}) has {tab['length']} entries")
        for n, text in tab["spots"].items():
            n = int(n)
            ref = oracles.tj2(n) if k == 2 else oracles.tj(k, n)
            if Fraction(text) != ref:
                errors.append(f"tJ_{k}({n}) = {text} differs from its defining sum")
    q = out.get("qseries")
    if q is not None and not (q["matched"] and q["jacobi"] is None):
        errors.append(f"q-series identities fail: {q}")
    return errors


# ---------------------------------------------------------------------------
# verify-cli
# ---------------------------------------------------------------------------


def check_cli_job(name, params, code, stdout) -> list:
    if code != 0:
        return [f"{name}: exit code {code}"]
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{name}: output is not JSON"]
    if name.startswith("verify_"):
        if not rep.get("all_ok"):
            return [f"{name}: failures {rep.get('failures')}"]
        borel = next((c for c in rep["checks"] if c["name"] == "borel-sum"), None)
        ref = 3 * oracles.hurwitz_zeta(2, 3)
        if borel is None or abs(borel["n2_z13"] - ref) > 1e-8:
            return [f"{name}: borel-sum {borel}, 3 zeta(2, 3) = {ref}"]
        return []
    if name == "bernoulli":
        ref = oracles.bernoulli_poly(params["k"], Fraction(params["x"]))
        ok = Fraction(rep["value"]) == ref
    elif name == "apery":
        fn = oracles.apery2 if params["kind"] == "A2" else oracles.apery3
        ok = Fraction(rep["value"]) == fn(params["n"]) and rep["routes_agree"]
    elif name == "hurwitz":
        ref = oracles.hurwitz_zeta(params["s"], params["tau"])
        ok = abs(rep["value"] - ref) <= 1e-10 * max(1.0, abs(ref))
    elif name == "borel":
        ref = params["z"] ** (1 - params["n"]) * oracles.hurwitz_zeta(params["n"], 1 / params["z"])
        ok = abs(rep["borel_sum"] - ref) <= max(1e-8, 3 * rep["quadrature_error"])
    elif name == "zetaQ2":
        ref = oracles.zetaQ2_closed(params["alpha"], params["beta"])
        ok = abs(rep["value"] - ref) <= 1e-12 * ref
    else:
        return [f"{name}: unknown job"]
    return [] if ok else [f"{name} {params}: output {stdout.strip()[:200]}"]
