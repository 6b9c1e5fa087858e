"""Tests of the benchmark's oracles: python3 -m pytest perfbench/test_oracles.py

The parity chains and the band matrix must reproduce dense eigh of the
same truncation; the closed forms must agree with the chains where the
models reduce; the exact references must reproduce known values.
"""

import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from zetaforge import aperynum, spectra, specval  # noqa: E402


def _dense(model, N):
    if model["model"] == "ncho":
        return spectra.ncho_truncated_matrix(specval.NchoParams(model["alpha"], model["beta"]), N)
    return spectra.qrm_truncated_matrix(spectra.QrmParams(model["g"], model["delta"], model["eps"]), N)


MODELS = [
    {"model": "ncho", "alpha": 2.0, "beta": 1.0},
    {"model": "ncho", "alpha": 1.3, "beta": 1.7},
    {"model": "ncho", "alpha": 1.5, "beta": 1.5},
    {"model": "qrm", "g": 0.5, "delta": 0.7, "eps": 0.0},
    {"model": "qrm", "g": 1.2, "delta": 0.3, "eps": 0.0},
    {"model": "qrm", "g": 0.5, "delta": 0.7, "eps": 0.3},
    {"model": "qrm", "g": 0.0, "delta": 0.4, "eps": 0.2},
]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("N", [8, 33, 64])
def test_reference_matches_dense_eigh_of_the_same_truncation(model, N):
    count = N  # the whole lower half of the 2N spectrum
    dense = np.linalg.eigvalsh(_dense(model, N))[:count]
    ref = oracles.reference_spectrum(model, N, count)
    assert np.max(np.abs(dense - ref)) <= oracles.rounding_floor(oracles.truncation_norm(model, N))


def test_band_matches_chains_without_bias():
    model = {"model": "qrm", "g": 0.8, "delta": 0.6, "eps": 0.0}
    chains = oracles.chains_lowest(oracles.qrm_chains(0.8, 0.6, 200), 40)
    band = oracles.band_lowest(oracles.qrm_band(0.8, 0.6, 0.0, 200), 40)
    assert np.max(np.abs(chains - band)) < 1e-11
    assert oracles.truncation_norm(model, 200) >= np.max(np.abs(np.linalg.eigvalsh(_dense(model, 200))))


@pytest.mark.parametrize(
    "model",
    [
        {"model": "ncho", "alpha": 1.7, "beta": 1.7},
        {"model": "qrm", "g": 0.0, "delta": 0.45, "eps": 0.0},
        {"model": "qrm", "g": 0.0, "delta": 0.3, "eps": 0.4},
        {"model": "qrm", "g": 0.6, "delta": 0.0, "eps": 0.0},
        {"model": "qrm", "g": 0.6, "delta": 0.0, "eps": 0.35},
    ],
)
def test_closed_forms_match_deep_references(model):
    progs = oracles.progressions(model)
    ref = oracles.reference_spectrum(model, 1024, 40)
    assert np.max(np.abs(oracles.progression_eigs(progs, 40) - ref)) < 1e-10


def test_no_closed_form_for_the_coupled_models():
    assert oracles.progressions({"model": "ncho", "alpha": 2.0, "beta": 1.0}) is None
    assert oracles.progressions({"model": "qrm", "g": 0.5, "delta": 0.5, "eps": 0.0}) is None


def test_progression_sums_match_brute_force():
    progs = [(-0.36, 1.0, 1), (0.2, 1.0, 1), (0.5, 0.7, 2)]
    eigs = sorted(f + gap * n for f, gap, m in progs for n in range(4000) for _ in range(m))
    t = 0.8
    assert oracles.progression_partition(progs, t) == pytest.approx(math.fsum(math.exp(-t * x) for x in eigs), rel=1e-13)
    s, tau = 3.0, 1.1
    head = math.fsum((x + tau) ** -s for x in eigs)
    # the brute-force sum stops at n = 4000; its tail is below 1e-6
    assert oracles.progression_zeta(progs, s, tau) == pytest.approx(head, abs=1e-6)


def test_pair_bounds_hold_on_a_deep_reference_and_fail_when_shifted():
    eigs = list(oracles.reference_spectrum({"model": "ncho", "alpha": 2.2, "beta": 1.3}, 2048, 40))
    assert oracles.ncho_pair_bounds_ok(2.2, 1.3, eigs, 1e-12)
    assert not oracles.ncho_pair_bounds_ok(2.2, 1.3, [x - 0.5 for x in eigs], 1e-12)


def test_zetaQ2_closed_form():
    # alpha = beta: zeta_Q(2) = 2 sum (w(n + 1/2))^-2 = pi^2 / w^2, w = sqrt(alpha^2 - 1)
    assert oracles.zetaQ2_closed(1.5, 1.5) == pytest.approx(math.pi**2 / 1.25, rel=1e-14)
    # the program's own series for 2F1 is a second route
    assert oracles.zetaQ2_closed(2.0, 1.0) == pytest.approx(specval.zetaQ2_closed(specval.NchoParams(2.0, 1.0)), rel=1e-13)
    assert oracles.r21_closed(0.0) == pytest.approx(math.pi**2 / 2, rel=1e-15)


def test_zetaQ2_closed_form_against_the_spectrum():
    # sum of lambda^-2 over a deep reference, with the pair-bound tail bracket
    alpha, beta, count = 2.0, 1.0, 600
    eigs = oracles.reference_spectrum({"model": "ncho", "alpha": alpha, "beta": beta}, 4096, count)
    f = math.sqrt(1 - 1 / (alpha * beta))
    lo, hi = min(alpha, beta) * f, max(alpha, beta) * f
    j0 = count // 2 + 1
    head = math.fsum(eigs**-2.0)
    tail_hi = 2 * lo**-2 * oracles.hurwitz_zeta(2, j0 - 0.5)
    tail_lo = 2 * hi**-2 * oracles.hurwitz_zeta(2, j0 - 0.5)
    assert head + tail_lo <= oracles.zetaQ2_closed(alpha, beta) <= head + tail_hi


def test_exact_references():
    assert [oracles.apery2(n) for n in range(4)] == [1, 3, 19, 147]
    assert [oracles.apery3(n) for n in range(4)] == [1, 5, 73, 1445]
    assert oracles.bernoulli(12) == Fraction(-691, 2730)
    x = Fraction(1, 3)
    assert oracles.bernoulli_poly(3, x) == x**3 - Fraction(3, 2) * x**2 + x / 2
    assert [oracles.tj2(n) for n in range(3)] == [1, Fraction(3, 4), Fraction(41, 64)]
    for n in (0, 1, 7, 30):
        assert oracles.tj(2, n) == oracles.tj2(n)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_nested_sums_match_the_program_tables(k):
    table = aperynum.tj_table(k, 25)
    assert [oracles.tj(k, n) for n in (0, 1, 2, 13, 25)] == [table[n] for n in (0, 1, 2, 13, 25)]


def test_appendix_table():
    for key, value in oracles.APPENDIX_AB.items():
        assert value == pytest.approx(specval.APPENDIX_AB_EXACT[key], rel=1e-15)
