"""Command-line surface: every computation and verification suite as a
reproducible batch job.

Exit codes: 0 all checks passed / value computed, 1 a verification reported
a mismatch, 2 usage or input error, 3 a computation did not reach its
certified accuracy.  Output formats: json (sorted keys), csv (flat rows,
such as traces; a nested value exits 2), plain; a NaN or infinite number
exits 2 in every format.  Handlers return result
records, and ``_jsonify`` is the one serializer: a record is written as all
of its fields, so each op has one key set whatever the input, and every
rational is a "num/den" string ("2" when integral).  With a fixed --seed,
exact jobs are byte-identical across runs and stochastic jobs are identical
too (counter-based streams); --no-meta strips the run metadata block
(version, timestamp) so outputs can be compared bytewise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import Record, Uncertified, __version__

_EXIT_PIPE = 141
_EXIT_CODES = (
    "exit codes: 0 computed / all checks passed, 1 a verification reported a "
    "mismatch, 2 usage or input error, 3 a computation did not reach its "
    f"certified accuracy, {_EXIT_PIPE} standard output was closed before the "
    "report was written (as for a process ended by SIGPIPE)"
)

_BUDGETS = {
    # knobs: series order, q-exponent bound, cube-rule nodes (n^2 in 2-D,
    # n^4 in 4-D), eigenbasis, primes
    "quick": {
        "order": 30,
        "qmax": 10,
        "cube_nodes": 128**2,
        "ncho_N": 256,
        "qrm_N": 256,
        "count": 40,
        "primes": (3, 5),
        "super": ((5, 1, 1), (7, 1, 1)),
    },
    "full": {
        "order": 58,
        "qmax": 20,
        "cube_nodes": 256**2,
        "ncho_N": 1024,
        "qrm_N": 512,
        "count": 120,
        "primes": (3, 5, 7, 11),
        "super": tuple(
            (p, m, r) for p in (5, 7, 11, 13) for m in (1, 2) for r in (1, 2)
        ),
    },
}
# the largest error estimate a verify-all cube check accepts; the 3-sigma
# Monte Carlo brackets it replaced were 2e-3 to 2e-2, and 1 % of zeta_Q(2)
_CUBE_TOL = 1e-6


def _jsonify(obj, field=None):
    """Recursive canonicalization: Fractions to 'num/den' strings ('n' when
    integral), records (``zetaforge.Record``) to the dict of all their
    fields, in their order.  A NaN or infinite float is refused with a
    ValueError naming its field, since JSON has no such number."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"field {field!r} is {obj}, which is not a finite number")
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else str(obj.numerator)
    if isinstance(obj, dict):
        return {k: _jsonify(v, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, field) for v in obj]
    if isinstance(obj, Record):
        # a record's __slots__ names its fields in order
        return {k: _jsonify(getattr(obj, k), k) for k in obj.__slots__}
    return obj


def emit(report, fmt: str, meta: bool) -> None:
    """Serialize a report dict (or trace list) to stdout in the requested
    format."""
    stream = sys.stdout
    payload = _jsonify(report)
    if meta:
        if isinstance(payload, dict):
            import datetime

            payload = dict(payload)
            payload["meta"] = {
                "version": __version__,
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            }
    if fmt == "json":
        json.dump(payload, stream, sort_keys=True, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        rows = payload if isinstance(payload, list) else payload.get("rows", [payload])
        for row in rows:
            for k, v in row.items():
                if isinstance(v, (dict, list)):
                    raise ValueError(f"--format csv writes flat rows, and field {k!r} is nested")
        if not rows:
            return
        import csv

        writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    else:  # plain
        _emit_plain(payload, stream)


def _emit_plain(payload, stream, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                stream.write(f"{pad}{k}:\n")
                _emit_plain(v, stream, indent + 1)
            else:
                stream.write(f"{pad}{k}: {v}\n")
    elif isinstance(payload, list):
        for v in payload:
            if not isinstance(v, (dict, list)):
                stream.write(f"{pad}{v}\n")
            elif indent == 0:  # a blank line ends each top-level entry
                _emit_plain(v, stream, indent)
                stream.write("\n")
            else:  # a nested entry starts at its own "-" line
                stream.write(f"{pad}-\n")
                _emit_plain(v, stream, indent + 1)
    else:
        stream.write(f"{pad}{payload}\n")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report, ok)
# ---------------------------------------------------------------------------


def _ncho_params(args, op: str):
    """NchoParams from the optional --alpha and --beta flags of ``op``."""
    from . import specval

    if args.alpha is None or args.beta is None:
        raise ValueError(f"--alpha and --beta are required for {op}")
    return specval.NchoParams(args.alpha, args.beta)


def _spectrum(args, model: str):
    """The spectrum of ``model`` from the parsed flags: the exact oscillator
    levels, or the certified lowest eigenvalues of a truncation."""
    from . import spectra

    if model == "qho":
        return spectra.qho_spectrum(args.count)
    if model == "ncho":
        params, solve = _ncho_params(args, "--model ncho"), spectra.ncho_eigs
    else:
        params, solve = spectra.QrmParams(args.g, args.delta, args.eps), spectra.qrm_eigs
    return solve(params, N=args.n_basis, count=args.count, threshold=args.threshold)


def _qho_partition(t: float, shift: float = 0.0) -> float:
    """Oscillator partition function Z(t) = e^{-t/2} / (1 - e^{-t}), times
    e^{-shift t}: the spectrum n + 1/2 + shift."""
    return math.exp(-(0.5 + shift) * t) / -math.expm1(-t)


def _rational(text: str, flag: str) -> Fraction:
    """``text`` read as a rational; a malformed one is an error naming ``flag``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be a rational such as 1/5 or 10, got {text!r}") from None


def _cmd_bernoulli(args):
    from . import exact

    if args.poly_x is not None:
        val = exact.bernoulli_poly(args.k, _rational(args.poly_x, "--poly-x"))
        return {"op": "bernoulli_poly", "k": args.k, "x": args.poly_x, "value": val}, True
    val = exact.bernoulli_number(args.k)
    if args.format == "plain":
        return val, True
    return {"op": "bernoulli", "k": args.k, "value": val}, True


def _cmd_apery(args):
    from . import aperynum

    fn = {
        "A2": aperynum.apery2,
        "B2": aperynum.apery2_b,
        "A3": aperynum.apery3,
        "B3": aperynum.apery3_b,
    }[args.kind]
    rep = {"op": "apery", "kind": args.kind, "n": args.n, "value": Fraction(fn(args.n))}
    if args.closed and args.kind in ("A2", "A3"):
        closed = (
            aperynum.apery2_closed(args.n)
            if args.kind == "A2"
            else aperynum.apery3_closed(args.n)
        )
        rep["closed_form"] = Fraction(closed)
        rep["routes_agree"] = closed == fn(args.n)
        return rep, rep["routes_agree"]
    return rep, True


def _cmd_aperylike(args):
    from . import aperynum

    if args.family == "J":
        combo = aperynum.aperylike_J(args.k, args.n)
        return {
            "op": "aperylike_J",
            "k": args.k,
            "n": args.n,
            "value": combo.as_dict(),
        }, True
    val = aperynum.aperylike_tJ(args.k, args.n)
    return {"op": "aperylike_tJ", "k": args.k, "n": args.n, "value": val}, True


def _cmd_congruence(args):
    from . import aperynum

    if args.check == "pary":
        rep = aperynum.congruence_pary_product(args.kind, args.p, args.n)
    elif args.check == "super":
        rep = aperynum.supercongruence_check(args.kind, args.p, args.m, args.r)
    elif args.check == "tj-super":
        rep = aperynum.tj_supercongruence_check(args.s, args.p, args.m, args.n)
    elif args.check == "los":
        rep = aperynum.los_square_sum_check(args.p)
    else:  # asd
        rep = aperynum.asd_congruence_check(args.kind, args.p, args.m, args.r)
    return rep, rep.ok


def _cmd_qseries_verify(args):
    from . import series

    rep = series.verify_w2_identity(args.max_q)
    jac = series.jacobi_theta_identity_check(args.max_q)
    out = {
        **_jsonify(rep),
        "jacobi_identity_ok": jac is None,
        "hauptmodul_forms": series.hauptmodul_consistency_report(min(args.max_q, 8)),
    }
    if args.dump != "none":
        # exact series dump: array of {exponent, coefficient} rationals
        builders = {
            "hauptmodul": lambda: series.hauptmodul_z(args.max_q),
            "eta": lambda: series.eta_qseries(1, 1, args.max_q),
            "theta2": lambda: series.theta_qseries(2, args.max_q),
            "theta3": lambda: series.theta_qseries(3, args.max_q),
            "theta4": lambda: series.theta_qseries(4, args.max_q),
            "rhs": lambda: series.eta_product_qseries(
                {2: 22, 1: -12, 4: -8}, args.max_q
            ),
        }
        out["series_dump"] = {
            "name": args.dump,
            "entries": builders[args.dump]().entries(),
        }
    return out, rep.matched and jac is None


def _cmd_hurwitz(args):
    from . import specval

    val = specval.hurwitz_zeta_num(args.s, args.tau)
    return {"op": "hurwitz", "s": args.s, "tau": args.tau, "value": val}, True


def _cmd_special_values(args):
    from . import specval

    p = None
    if args.op in ("zetaQ", "zetaQ2-closed"):
        p = _ncho_params(args, args.op)
    if args.op == "zetaQ2-closed":
        return {
            "op": "zetaQ2_closed",
            "params": p,
            "value": specval.zetaQ2_closed(p),
        }, True
    if args.op == "zetaQ":
        res = specval.zetaQ_special(
            args.k, p, budget=args.samples, seed=args.seed, method=args.method
        )
        return {"op": "zetaQ_special", "k": args.k, "params": p, **_jsonify(res)}, True
    if args.op == "rkj":
        res = specval.r_kj_quadrature(
            args.k, args.j, args.kappa, method=args.method, budget=args.samples, seed=args.seed
        )
        return {"op": "r_kj", "k": args.k, "j": args.j, "kappa": args.kappa, **_jsonify(res)}, True
    if args.op == "r-series":
        val, last = specval.r_k1_series(args.k, args.kappa, args.n_max)
        return {
            "op": "r_k1_series",
            "k": args.k,
            "kappa": args.kappa,
            "n_max": args.n_max,
            "value": val,
            "last_term": last,
        }, True
    if args.op == "appendixB":
        res = specval.appendixB_integral(
            args.which, args.n, args.j, budget=args.samples, seed=args.seed,
            method=args.method,
        )
        return {"op": "appendixB", "which": args.which, "n": args.n, "index": args.j, **_jsonify(res)}, True
    # r42 series
    return {
        "op": "r42_series",
        "t": args.kappa**2,
        "value": specval.r42_series(args.kappa**2),
        "truncation_order": 1,
    }, True


def _cmd_ncho_spectrum(args):
    from . import spectra

    spec = _spectrum(args, "ncho")
    ok = spectra.ncho_eigen_bounds_ok(spec)
    return {**_jsonify(spec), "bounds_ok": ok}, ok


def _cmd_qrm_spectrum(args):
    return _spectrum(args, "qrm"), True


def _cmd_partition(args):
    from . import spectra

    spec = _spectrum(args, args.model)
    value, half = spectra.partition_from_spectrum(spec, args.t, tail="QHO_BOUND")
    return {
        "op": "partition",
        "model": args.model,
        "t": args.t,
        "value": value,
        "half_width": half,
    }, True


def _cmd_quasi_partition(args):
    from . import exact

    vals = exact.qho_quasi_partition_values(args.K)
    value = exact.quasi_partition(vals, 1.0, args.t)
    exact = _qho_partition(args.t)
    return {
        "op": "quasi_partition",
        "model": "qho",
        "K": args.K,
        "t": args.t,
        "value": value,
        "partition_value": exact,
        "abs_error": abs(value - exact),
    }, True


def _cmd_heat_fit(args):
    from . import spectra
    from ._np import np

    spec = _spectrum(args, "ncho")
    grid = np.linspace(args.t_min, args.t_max, args.points)
    fit = spectra.heat_trace_fit(spectra.partition_callable(spec), grid, n_odd_terms=args.odd_terms)
    residue = spec.params.residue
    rel_err = abs(fit.c_minus1 - residue) / residue
    return {
        **_jsonify(fit),
        "op": "heat_fit",
        "residue_formula": residue,
        "relative_error_vs_formula": rel_err,
        "label": "conjecture-support",
    }, rel_err < 0.02


def _cmd_mellin_zeta(args):
    from . import spectra, specval

    if args.model == "qho":
        if 0.5 + args.tau <= 0:
            raise spectra.NonIntegrable(f"tau = {args.tau} is not above -1/2, minus the ground state")
        Z, tau = _qho_partition, args.tau
        if tau < 0:
            # the weight e^{-tau t} grows, and overflows where Z has long
            # underflowed: taken with Z, it decays at the rate 1/2 + tau
            Z, tau = (lambda t: _qho_partition(t, args.tau)), 0.0
        val = spectra.spectral_zeta_mellin(Z, args.s, tau)
        ref = specval.hurwitz_zeta_num(args.s, 0.5 + args.tau)
    else:
        spec = _spectrum(args, "qrm")
        # before the integral: refuses a tau at which both diverge
        ref, _ = spectra.spectral_zeta_direct(spec, args.s, args.tau)
        # below t = 0.1, Z(t) ~ 2 (1/t - RB_1(0) + RB_2(0) t/2) from the
        # unbiased Rabi-Bernoulli table (the parser fixes eps = 0)
        g2, d2 = args.g**2, args.delta**2
        rb1, rb2 = (spectra.rabi_bernoulli_exact(k).evaluate_float(0.0, g2, d2) for k in (1, 2))
        val = spectra.spectral_zeta_mellin(
            spectra.partition_callable(spec), args.s, args.tau,
            small_t_model=lambda t: spectra.quasi_partition([-2.0 * rb1, -rb2], 2.0, t),
            t_cut=0.1,
        )
    return {
        "op": "mellin_zeta",
        "model": args.model,
        "s": args.s,
        "tau": args.tau,
        "value": val,
        "direct_reference": ref,
        "abs_error": abs(val - ref),
    }, True


def _cmd_borel(args):
    from . import resum

    if args.s is not None:
        rep = resum.borel_sum_complex_s(args.s, args.z)
    else:
        rep = resum.borel_sum_hurwitz(args.n, args.z)
    return rep, rep.agreement


def _cmd_divergence(args):
    tau = _rational(args.tau, "--tau")
    if args.padic_p:
        from . import padic as padic_mod

        rep = padic_mod.padic_divergence_report(args.n, tau, args.padic_p, args.K)
        out = {
            "op": "padic_divergence",
            "p": args.padic_p,
            "n": args.n,
            "tau": args.tau,
            "stabilization_index_mod_p4": rep["stabilization_index_mod_p4"],
            "sum_matches_normalized_zeta": rep["sum_matches_normalized_zeta"],
            "rows": rep["rows"],
        }
        return out, rep["sum_matches_normalized_zeta"]
    from . import resum

    if tau == 0:
        raise ValueError("--tau must be nonzero: zeta(n, tau) has a pole at tau = 0")
    rows = resum.fps_hurwitz(args.n, tau, args.K)
    return rows, True


def _cmd_padic_zeta(args):
    from . import padic as padic_mod

    z = padic_mod.padic_hurwitz_zeta(
        args.s, _rational(args.tau, "--tau"), p=args.p, prec=args.prec
    )
    return {
        **z.to_dict(),
        "op": "padic_zeta",
        "s": args.s,
        "tau": args.tau,
        "expansion": z.expansion_str(),
    }, True


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def _cmd_verify_all(args):
    from fractions import Fraction as F

    from . import aperynum, exact, padic as padic_mod, resum, series, specval, spectra

    cfg = _BUDGETS[args.budget]
    checks = []

    def record(name, ok, **details):
        checks.append({"name": name, "ok": bool(ok), **details})

    # exact: convolution identity + pinned values
    ok = all(
        sum(
            math.comb(k + 1, j) * exact.bernoulli_number(j) for j in range(k + 1)
        )
        == 0
        for k in range(1, cfg["order"] + 1)
    )
    ok = ok and exact.bernoulli_number(12) == F(-691, 2730)
    record("bernoulli-convolution", ok, order=cfg["order"])

    # apery recurrence vs closed
    n_ap = min(cfg["order"], 40)
    ok = all(
        aperynum.apery2_closed(n) == aperynum.apery2(n)
        and aperynum.apery3_closed(n) == aperynum.apery3(n)
        for n in range(n_ap + 1)
    )
    record("apery-closed-vs-recurrence", ok, n_max=n_ap,
           a2_2=str(aperynum.apery2(2)), a3_2=str(aperynum.apery3(2)))

    # congruences
    sup = [aperynum.supercongruence_check(k, p, m, r)
           for k in ("A2", "A3") for (p, m, r) in cfg["super"]]
    los = [aperynum.los_square_sum_check(p) for p in cfg["primes"]]
    pary = [aperynum.congruence_pary_product("A2", 5, 7),
            aperynum.congruence_pary_product("TJ2", 7, 10)]
    tjs = [aperynum.tj_supercongruence_check(0, 5, 1, 1),
           aperynum.tj_supercongruence_check(1, 5, 1, 1)]
    ok = all(r.ok for r in sup + los + pary + tjs)
    record("congruence-suite", ok, checks=len(sup + los + pary + tjs))

    # series operators
    order = cfg["order"]
    tj2 = series.power_series(aperynum.tj_table(2, order + 2))
    ladder_zero = series.apply_ladder_D(tj2).is_zero()
    f = series.hypergeom_2f1_series(F(1, 2), F(1, 2), 1, order // 2 + 1)
    sq = series.QSeries({2 * e: c for e, c in f.coeffs.items()}, 2 * f.max24)  # f(T^2)
    pf_zero = series.apply_picard_fuchs_L(sq).is_zero()
    record("series-operators", ladder_zero and pf_zero, order=order)

    # w2 identity + jacobi
    rep = series.verify_w2_identity(cfg["qmax"])
    jac = series.jacobi_theta_identity_check(cfg["qmax"])
    record("qseries-w2", rep.matched and jac is None,
           convention=rep.convention_used, through=str(cfg["qmax"]))

    # hurwitz special values
    ok = (
        abs(specval.hurwitz_zeta_num(2, 1.0) - math.pi**2 / 6) < 1e-12
        and abs(specval.hurwitz_zeta_num(4, 1.0) - math.pi**4 / 90) < 1e-12
        and abs(specval.hurwitz_zeta_num(2, 0.5) - math.pi**2 / 2) < 1e-12
    )
    record("hurwitz-values", ok)

    # cube integrals by tensor Gauss: each value lies within its n-versus-n/2
    # estimate of the reference, and the estimate is at most _CUBE_TOL
    def certified(res, ref):
        return abs(res.value - ref) <= res.std_error <= _CUBE_TOL

    nodes = cfg["cube_nodes"]
    r21 = specval.r_kj_quadrature(2, 1, 0.0, method="TENSOR_GAUSS", budget=nodes)
    a00 = specval.appendixB_integral("A", 0, 0, method="TENSOR_GAUSS", budget=nodes)
    ok = certified(r21, math.pi**2 / 2) and certified(a00, math.pi**4 / 96)
    record("cube-quadrature", ok, tolerance=_CUBE_TOL,
           r21=r21.value, r21_err=r21.std_error, r21_nodes=r21.samples_or_nodes,
           a00=a00.value, a00_err=a00.std_error, a00_nodes=a00.samples_or_nodes)

    # zetaQ2 triangle (closed vs assembled)
    points = []
    for (al, be) in ((math.sqrt(2), math.sqrt(2)), (2.0, 1.0)):
        p = specval.NchoParams(al, be)
        closed = specval.zetaQ2_closed(p)
        asm = specval.zetaQ_special(2, p, method="TENSOR_GAUSS", budget=nodes)
        points.append({"alpha": al, "beta": be, "closed": closed, "value": asm.value,
                       "err": asm.std_error, "nodes": asm.samples_or_nodes,
                       "ok": certified(asm, closed)})
    record("zetaQ2-closed-vs-assembled", all(pt["ok"] for pt in points),
           tolerance=_CUBE_TOL, points=points)

    # quasi-partition (qho)
    vals = exact.qho_quasi_partition_values(30)
    qp = exact.quasi_partition(vals, 1.0, 0.5)
    ok = abs(qp - _qho_partition(0.5)) < 1e-10
    record("qho-quasi-partition", ok, t=0.5, K=30)

    # spectra: exact reductions + bounds; where a closed form exists, each
    # eigenvalue must also lie within its certified radius of it (up to the
    # closed form's own rounding)
    def within_radii(spec, exact):
        return all(
            abs(lam - x) <= r + 64 * sys.float_info.epsilon * max(1.0, abs(x))
            for lam, x, r in zip(spec.eigenvalues, exact, spec.convergence)
        )

    p = specval.NchoParams(math.sqrt(2), math.sqrt(2))
    spec = spectra.ncho_eigs(p, N=cfg["ncho_N"], count=cfg["count"], threshold=1e-6)
    exact_eigs = sorted([(n + 0.5) for n in range(cfg["count"])] * 2)[: cfg["count"]]
    ok = max(abs(a - b) for a, b in zip(spec.eigenvalues, exact_eigs)) < 1e-6
    ok = ok and within_radii(spec, exact_eigs) and spectra.ncho_eigen_bounds_ok(spec)
    spec21 = spectra.ncho_eigs(
        specval.NchoParams(2.0, 1.0),
        N=cfg["ncho_N"], count=cfg["count"], threshold=1e-5,
    )
    ok = ok and spectra.ncho_eigen_bounds_ok(spec21)
    record("ncho-spectrum", ok, N=cfg["ncho_N"], count=cfg["count"],
           sections=[spec.section_N, spec21.section_N])

    qd = spectra.qrm_eigs(spectra.QrmParams(0.0, 0.5), N=cfg["qrm_N"], count=10)
    target = sorted([n + s * 0.5 for n in range(7) for s in (-1, 1)])[:10]
    ok = max(abs(a - b) for a, b in zip(qd.eigenvalues, target)) < 1e-9
    ok = ok and within_radii(qd, target)
    res = spectra.qrm_partition_series(spectra.QrmParams(0.3, 0.0), 1.0)
    spec_d0 = spectra.qrm_eigs(spectra.QrmParams(0.3, 0.0), N=cfg["qrm_N"], count=40)
    z_d0, _ = spectra.partition_from_spectrum(spec_d0, 1.0, tail="QHO_BOUND")
    ok = ok and abs(res.value - z_d0) < 1e-8
    record("qrm-spectrum-and-partition", ok, N=cfg["qrm_N"],
           sections=[qd.section_N, spec_d0.section_N])

    # borel
    rb = resum.borel_sum_hurwitz(2, 1.0 / 3.0)
    ok = rb.agreement and abs(rb.borel_sum - 3 * (math.pi**2 / 6 - 1.25)) < 1e-8
    ok = ok and all(resum.borel_seam_gap(n) < 1e-12 for n in (2, 3, 4))
    record("borel-sum", ok, n2_z13=rb.borel_sum)

    # padic
    okp = True
    for pp in cfg["primes"]:
        tau = F(2, pp)
        tp = padic_mod.Padic.from_rational(tau, pp, 24)
        for k in (1, 2, 3, 4):
            z = padic_mod.padic_hurwitz_zeta(1 - k, tau, p=pp, prec=24)
            rhs = padic_mod.omega_extended(tp).pow_int(-k) * padic_mod.Padic.from_rational(
                -exact.bernoulli_poly(k, tau) / k, pp, 24
            )
            okp = okp and z.agrees_with(rhs, digits=20)
    approx, _ = padic_mod.volkenborn_poly([0, 0, 1], 5, 5)
    t16 = padic_mod.Padic.from_rational(F(1, 6), 5, 20)
    okp = okp and all(
        (a.agrees_with(t16, digits=r - 1)) for r, a in enumerate(approx, start=1)
    )
    drep = padic_mod.padic_divergence_report(2, F(1, 5), 5, 14)
    okp = okp and drep["sum_matches_normalized_zeta"]
    record("padic-suite", okp, primes=list(cfg["primes"]))

    all_ok = all(c["ok"] for c in checks)
    report = {
        "op": "verify-all",
        "budget": args.budget,
        "all_ok": all_ok,
        "checks": checks,
        "failures": [c["name"] for c in checks if not c["ok"]],
    }
    return report, all_ok


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_N_BASIS_HELP = (
    "truncation N: Hermite or Fock levels n < N; the eigenvalues are this "
    "truncation's, each certified by its Ritz residual on the smallest leading "
    "section that converges (default: %(default)s)"
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetaforge",
        description="verification workbench for oscillator-model spectral zeta functions",
        epilog=_EXIT_CODES,
        allow_abbrev=False,
    )
    ap.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    ap.add_argument("--seed", type=int, default=0, help="base seed for stochastic jobs")
    ap.add_argument("--no-meta", action="store_true", help="omit version/timestamp block")

    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from overwriting values already parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--no-meta", action="store_true", default=argparse.SUPPRESS)

    sub = ap.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("bernoulli", help="Bernoulli number or polynomial value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--poly-x", default=None, help="evaluate B_k(x) at rational x")
    p.set_defaults(handler=_cmd_bernoulli)

    p = add_parser("apery", help="Apery sequences")
    p.add_argument("--kind", choices=("A2", "B2", "A3", "B3"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--closed", action="store_true", help="cross-check the binomial sum")
    p.set_defaults(handler=_cmd_apery)

    p = add_parser("aperylike", help="Apery-like families J_k / tJ_k")
    p.add_argument("--family", choices=("J", "TJ"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_aperylike)

    p = add_parser("congruence", help="congruence verifiers")
    p.add_argument("--check", choices=("pary", "super", "tj-super", "los", "asd"), required=True)
    p.add_argument("--kind", choices=("A2", "A3", "TJ2"), default="A2")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--s", type=int, default=0)
    p.set_defaults(handler=_cmd_congruence)

    p = add_parser("qseries-verify", help="modular q-series identity checks")
    p.add_argument("--max-q", type=int, default=20)
    p.add_argument(
        "--dump",
        choices=("none", "hauptmodul", "eta", "theta2", "theta3", "theta4", "rhs"),
        default="none",
        help="include the exact q-expansion of one of the building blocks",
    )
    p.set_defaults(handler=_cmd_qseries_verify)

    p = add_parser("hurwitz", help="Hurwitz zeta numeric value")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.set_defaults(handler=_cmd_hurwitz)

    p = add_parser("special-values", help="cube-integral special values")
    p.add_argument("--op", choices=("zetaQ", "zetaQ2-closed", "rkj", "r-series", "appendixB", "r42"),
                   required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--which", choices=("A", "B"), default="A")
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--method", choices=("MONTE_CARLO", "TENSOR_GAUSS"), default="MONTE_CARLO")
    p.set_defaults(handler=_cmd_special_values)

    p = add_parser("ncho-spectrum", help="matrix-oscillator eigenvalues")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n-basis", type=int, help=_N_BASIS_HELP, default=1024)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_ncho_spectrum)

    p = add_parser("qrm-spectrum", help="Rabi-model eigenvalues")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--n-basis", type=int, help=_N_BASIS_HELP, default=512)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_qrm_spectrum)

    p = add_parser("partition", help="partition function from a spectrum")
    p.add_argument("--model", choices=("qho", "ncho", "qrm"), required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--n-basis", type=int, help=_N_BASIS_HELP, default=512)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_partition)

    p = add_parser("quasi-partition", help="quasi-partition from exact special values")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--K", type=int, default=30)
    p.set_defaults(handler=_cmd_quasi_partition)

    p = add_parser("heat-fit", help="heat-trace asymptotic fit (conjecture support)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t-min", type=float, default=0.15)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--odd-terms", type=int, default=3)
    p.add_argument("--n-basis", type=int, help=_N_BASIS_HELP, default=1024)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--threshold", type=float, default=1e-5)
    p.set_defaults(handler=_cmd_heat_fit)

    p = add_parser("mellin-zeta", help="spectral zeta via the Mellin integral")
    p.add_argument("--model", choices=("qho", "qrm"), required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--n-basis", type=int, help=_N_BASIS_HELP, default=768)
    p.add_argument("--count", type=int, default=380)
    # not flags: the small-t model is the unbiased Rabi-Bernoulli table, so
    # eps is 0; the Rabi solve runs at a threshold of 1e-3
    p.set_defaults(handler=_cmd_mellin_zeta, eps=0.0, threshold=1e-3)

    p = add_parser("borel", help="Borel sums of the divergent expansions")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--s", type=float, default=None, help="fractional order in (1,2)")
    p.set_defaults(handler=_cmd_borel)

    p = add_parser("divergence", help="formal-series divergence traces")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True, help="rational, e.g. 1/5 or 10")
    p.add_argument("--K", type=int, default=40)
    p.add_argument("--padic-p", type=int, default=None,
                   help="read the same series p-adically at this odd prime")
    p.set_defaults(handler=_cmd_divergence)

    p = add_parser("padic-zeta", help="p-adic Hurwitz zeta values")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--tau", required=True, help="rational with |tau|_p > 1")
    p.add_argument("--prec", type=int, default=20)
    p.set_defaults(handler=_cmd_padic_zeta)

    p = add_parser("verify-all", help="run the aggregated verification suite")
    p.add_argument("--budget", choices=("quick", "full"), default="quick")
    p.set_defaults(handler=_cmd_verify_all)

    return ap


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize --help to 0
        return 0 if exc.code == 0 else 2
    try:
        report, ok = args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Uncertified as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    # exact values print in full: lift Python's limit on the digits of an
    # int-to-str conversion (3.10.7 and later) while writing, then restore it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        emit(report, args.format, meta=not args.no_meta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0 if ok else 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader left early (`... | head -1`): point stdout at devnull so
        # that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
