"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from zetaforge import aperynum, cli, exact, padic, resum, series, specval, spectra

F = Fraction
SQRT2 = math.sqrt(2.0)

NCHO_SETS = [(SQRT2, SQRT2), (2.0, 1.0), (2.5, 0.6)]


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ncho_spectra():
    return {
        ab: spectra.ncho_eigs(
            specval.NchoParams(*ab), N=1024, count=256, threshold=1e-6
        )
        for ab in NCHO_SETS
    }


@pytest.fixture(scope="module")
def qrm_spectrum_big():
    return spectra.qrm_eigs(
        spectra.QrmParams(0.3, 0.5), N=1024, count=400, threshold=1e-3
    )


def test_criterion_01_exact_apery_suite():
    ok = aperynum.apery2(2) == 19 and aperynum.apery3(2) == 73
    for n in range(61):
        ok = ok and aperynum.apery2_closed(n) == aperynum.apery2(n)
        ok = ok and aperynum.apery3_closed(n) == aperynum.apery3(n)
    _report("criterion-01 exact-apery", ok, "recurrence = closed form, n <= 60")


def test_criterion_02_congruence_suite():
    reports = []
    for kind in ("A2", "A3"):
        for p in (5, 7, 11, 13):
            for m in (1, 2):
                for r in (1, 2):
                    reports.append(aperynum.supercongruence_check(kind, p, m, r))
    # digit-product and lifted checks for the normalized family
    for p in (3, 5, 7):
        for n in (p + 1, 2 * p + 2, p * p + 1):
            reports.append(aperynum.congruence_pary_product("TJ2", p, n))
        for s in (0, 1):
            for n in (1, 2):
                reports.append(aperynum.tj_supercongruence_check(s, p, 1, n))
    for p in (3, 5, 7, 11):
        reports.append(aperynum.los_square_sum_check(p))
    bad = [cli._jsonify(r) for r in reports if not r.ok]
    _report(
        "criterion-02 congruences",
        not bad,
        f"{len(reports)} checks (supercongruences mod p^3r, digit products, "
        f"lifted family, square sums)",
    )


def test_criterion_03_series_identities():
    tj2 = series.power_series(aperynum.tj_table(2, 60))
    ladder_zero = series.apply_ladder_D(tj2)
    ok = ladder_zero.max24 == 58 * series.GRID and ladder_zero.is_zero()

    # D maps the J3 series to the J1 series coefficientwise (the rational
    # component is tJ3 and the zeta(3,1/2) component 2 tJ2 dies under D)
    tj3 = series.power_series(aperynum.tj_table(3, 60))
    img = series.apply_ladder_D(tj3)
    order = img.max24 // series.GRID
    j1 = [aperynum.aperylike_J(1, n).get("ONE") for n in range(order + 1)]
    ok = ok and [img.coefficient(n) for n in range(order + 1)] == j1

    f = series.hypergeom_2f1_series(F(1, 2), F(1, 2), 1, 30)
    sq = series.QSeries({2 * e: c for e, c in f.coeffs.items()}, 2 * f.max24)
    pf = series.apply_picard_fuchs_L(sq)
    ok = ok and pf.max24 == 58 * series.GRID and pf.is_zero()
    _report(
        "criterion-03 series-identities",
        ok,
        "ladder annihilation + J3->J1 (J1 = 2^n n!/(2n+1)!!, no 1/2) + "
        "Picard-Fuchs annihilation, exact through order 58",
    )


def test_criterion_04_modular_identity():
    rep = series.verify_w2_identity(20)
    matches = [v["label"] for v in rep.variants if v["matched"]]
    jac = series.jacobi_theta_identity_check(20)
    ok = rep.matched and len(matches) == 1 and jac is None
    _report(
        "criterion-04 modular-identity",
        ok,
        f"matched through q^20 under exactly one convention: {matches}",
    )


def test_criterion_05_special_values():
    ok = abs(specval.hurwitz_zeta_num(2, 1.0) - math.pi**2 / 6) < 1e-12
    ok = ok and abs(specval.hurwitz_zeta_num(4, 1.0) - math.pi**4 / 90) < 1e-12
    ok = ok and abs(specval.hurwitz_zeta_num(2, 0.5) - math.pi**2 / 2) < 1e-12

    r21 = specval.r_kj_quadrature(2, 1, 0.0, budget=10**7, seed=1)
    ok = ok and abs(r21.value - math.pi**2 / 2) <= 3 * r21.std_error
    a00 = specval.appendixB_integral("A", 0, 0, budget=10**7, seed=1)
    ok = ok and abs(a00.value - math.pi**4 / 96) <= 3 * a00.std_error
    a11 = specval.appendixB_integral("A", 1, 1, budget=10**7, seed=1)
    a11_exact = math.pi**4 / 2**7 - 9 * math.pi**2 / 2**8
    ok = ok and abs(a11.value - a11_exact) <= 3 * a11.std_error
    _report(
        "criterion-05 special-values",
        ok,
        f"hurwitz 1e-12; R21(0) {r21.value:.5f}+-{r21.std_error:.1e}; "
        f"A00 {a00.value:.5f}+-{a00.std_error:.1e}; A11 {a11.value:.5f}"
        f"+-{a11.std_error:.1e} at 1e7 samples",
    )


def test_criterion_06_zetaQ2_triangle(ncho_spectra):
    worst = 0.0
    for ab in NCHO_SETS:
        p = specval.NchoParams(*ab)
        closed = specval.zetaQ2_closed(p)
        asm = specval.zetaQ_special(2, p, budget=2_000_000, seed=0)
        direct, half = spectra.spectral_zeta_direct(ncho_spectra[ab], 2.0, 0.0)
        worst = max(
            worst,
            abs(asm.value - closed) / closed,
            abs(direct - closed) / closed,
            abs(direct - asm.value) / closed,
        )
    _report(
        "criterion-06 zetaQ2-triangle",
        worst < 0.01,
        f"closed / assembled-quadrature / spectral agree; worst pairwise "
        f"deviation {100 * worst:.4f}% (< 1%)",
    )


def test_criterion_07_bounds_and_heat_fit(ncho_spectra):
    ok = all(spectra.ncho_eigen_bounds_ok(s) for s in ncho_spectra.values())
    details = []
    for ab in NCHO_SETS:
        a, b = ab
        residue = (a + b) / math.sqrt(a * b * (a * b - 1))
        Z = spectra.partition_callable(ncho_spectra[ab])
        fit = spectra.heat_trace_fit(Z, np.linspace(0.2, 1.0, 24), n_odd_terms=4)
        rel = abs(fit.c_minus1 - residue) / residue
        details.append(f"{fit.c_minus1:.4f}/{residue:.4f}")
        ok = ok and rel < 0.02
    _report(
        "criterion-07 bounds-and-weyl",
        ok,
        "pair bounds hold; fitted/formula residues: " + ", ".join(details),
    )


def test_criterion_08_quasi_partition(qrm_spectrum_big):
    vals = spectra.qho_quasi_partition_values(30)
    ok = True
    for t in (0.25, 0.5, 1.0):
        z = math.exp(-t / 2) / -math.expm1(-t)
        ok = ok and abs(spectra.quasi_partition(vals, 1.0, t) - z) < 1e-10

    # shifted Rabi model: truncation error of the exact-(RB)1,2 series is
    # O(t^2) against the spectral partition function
    tau, g2, d2 = 2.0, 0.09, 0.25
    rb1 = spectra.rabi_bernoulli_exact(1).evaluate_float(tau, g2, d2)
    rb2 = spectra.rabi_bernoulli_exact(2).evaluate_float(tau, g2, d2)
    diffs = []
    ts = [0.2, 0.1, 0.05]
    for t in ts:
        qp = spectra.quasi_partition([-2 * rb1, -rb2], 2.0, t)
        z, _ = spectra.partition_from_spectrum(qrm_spectrum_big, t, tail="QHO_BOUND")
        diffs.append(abs(qp - z * math.exp(-tau * t)))
    slope = float(np.polyfit(np.log(ts), np.log(diffs), 1)[0])
    ok = ok and slope >= 1.9
    _report(
        "criterion-08 quasi-partition",
        ok,
        f"qHO identity at 1e-10; shifted-model truncation slope {slope:.3f} >= 1.9",
    )


def test_criterion_09_qrm_partition_triangle():
    q = spectra.QrmParams(0.3, 0.5)
    res = spectra.qrm_partition_series(q, 1.0)
    spec = spectra.qrm_eigs(q, N=512, count=60, threshold=1e-9)
    z, h = spectra.partition_from_spectrum(spec, 1.0, tail="QHO_BOUND")
    diff = abs(res.value - z)
    ok = diff <= max(1e-3, 3 * res.std_error + h)

    # exactly solvable routes
    qd = spectra.QrmParams(0.3, 0.0)
    rd = spectra.qrm_partition_series(qd, 1.0)
    sd = spectra.qrm_eigs(qd, N=512, count=60, threshold=1e-9)
    zd, _ = spectra.partition_from_spectrum(sd, 1.0, tail="QHO_BOUND")
    ok = ok and abs(rd.value - zd) < 1e-8
    qg = spectra.QrmParams(0.0, 0.5)
    sg = spectra.qrm_eigs(qg, N=512, count=60, threshold=1e-9)
    zg, _ = spectra.partition_from_spectrum(sg, 1.0, tail="QHO_BOUND")
    closed = 2 * math.cosh(0.5) / -math.expm1(-1.0)
    ok = ok and abs(zg - closed) < 1e-8
    _report(
        "criterion-09 qrm-partition-triangle",
        ok,
        f"series vs spectral diff {diff:.2e} (allowed {max(1e-3, 3 * res.std_error + h):.1e}); "
        f"displaced and split closed routes at 1e-8",
    )


def test_criterion_10_borel_suite():
    ok = True
    for n in (2, 3, 4):
        for z in (1.0, 0.5, 1.0 / 3.0):
            rep = resum.borel_sum_hurwitz(n, z)
            ok = ok and abs(rep.borel_sum - rep.reference_value) < 1e-8
    pinned = resum.borel_sum_hurwitz(2, 1.0 / 3.0)
    ok = ok and abs(pinned.borel_sum - 3 * (math.pi**2 / 6 - 1.25)) < 1e-8
    frac = resum.borel_sum_complex_s(1.5, 0.2)
    two_route = abs(frac.borel_sum - frac.reference_value)
    ok = ok and two_route < 1e-6
    _report(
        "criterion-10 borel-suite",
        ok,
        f"n in 2..4, z in {{1, 1/2, 1/3}} at 1e-8; s=1.5, z=0.2 two-route "
        f"diff {two_route:.1e} < 1e-6",
    )


def test_criterion_11_padic_suite():
    ok = True
    for p in (5, 7, 11):
        tau = F(2, p)
        tp = padic.Padic.from_rational(tau, p, 26)
        for k in range(1, 11):
            zval = padic.padic_hurwitz_zeta(1 - k, tau, p=p, prec=26)
            rhs = padic.omega_extended(tp).pow_int(-k) * padic.Padic.from_rational(
                -exact.bernoulli_poly(k, tau) / k, p, 26
            )
            ok = ok and zval.agrees_with(rhs, digits=20)

    approx, _ = padic.volkenborn_poly([0, 0, 1], 5, 6)
    target = padic.Padic.from_rational(F(1, 6), 5, 20)
    for r, apx in enumerate(approx, start=1):
        ok = ok and apx.agrees_with(target, digits=max(1, r - 2))

    rep = padic.padic_divergence_report(2, F(1, 5), 5, 16)
    ok = ok and rep["sum_matches_normalized_zeta"]
    ok = ok and rep["stabilization_index_mod_p4"] <= 12
    rows = resum.fps_hurwitz(2, 0.2, 40)
    ok = ok and abs(rows[-1]["term"]) + abs(rows[-2]["term"]) > 1e6
    _report(
        "criterion-11 padic-suite",
        ok,
        f"interpolation identity mod p^20 (p in 5,7,11; k <= 10); Volkenborn "
        f"gain >= r-2; p-adic stabilization at K = "
        f"{rep['stabilization_index_mod_p4']} <= 12 while the series "
        f"real-diverges",
    )


def test_criterion_12_determinism():
    cmd = [
        sys.executable, "-m", "zetaforge.cli", "--no-meta",
        "verify-all", "--budget", "quick",
    ]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    payload = json.loads(a.stdout)
    ok = ok and payload["all_ok"]
    _report(
        "criterion-12 determinism",
        ok,
        f"verify-all quick twice: byte-identical JSON ({len(a.stdout)} bytes), "
        f"exit 0, {len(payload['checks'])} checks pass",
    )
