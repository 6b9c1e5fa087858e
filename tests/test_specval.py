"""Floating-point special values: Hurwitz zeta numerics, cube quadratures,
closed forms and their cross-oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zetaforge import specval
from zetaforge.aperynum import aperylike_J
from zetaforge.exact import hurwitz_zeta_nonpos
from zetaforge.specval import (
    APPENDIX_AB_EXACT,
    NchoParams,
    PoleAtOne,
    SeriesRegimeViolated,
    UnsupportedIndexPair,
    appendixB_integral,
    hurwitz_zeta_num,
    hyp2f1_quarter,
    r42_order_of_contact,
    r42_series,
    r_k1_series,
    r_kj_quadrature,
    zetaQ2_closed,
    zetaQ_special,
)

F = Fraction
PI = math.pi


class TestHurwitzNumeric:
    def test_classic_values(self):
        assert abs(hurwitz_zeta_num(2, 1.0) - PI**2 / 6) < 1e-12
        assert abs(hurwitz_zeta_num(4, 1.0) - PI**4 / 90) < 1e-12
        assert abs(hurwitz_zeta_num(2, 0.5) - PI**2 / 2) < 1e-12

    def test_shifted_value(self):
        z3 = hurwitz_zeta_num(3, 1.0)
        assert abs(hurwitz_zeta_num(3, 3.0) - (z3 - 1 - 0.125)) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleAtOne):
            hurwitz_zeta_num(1, 2.0)

    def test_ladder_identity_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            s = float(rng.uniform(1.3, 9.0))
            tau = float(rng.uniform(0.26, 4.0))
            lhs = hurwitz_zeta_num(s, tau)
            rhs = hurwitz_zeta_num(s, tau + 1) + tau**-s
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("s", [2, 3, 4, 6])
    def test_half_argument_doubling(self, s):
        lhs = hurwitz_zeta_num(s, 0.5)
        rhs = (2**s - 1) * hurwitz_zeta_num(s, 1.0)
        assert abs(lhs - rhs) < 1e-12

    def test_continuation_matches_exact_nonpositive(self):
        for k in range(11):
            for tau in (F(1, 2), F(1, 3), F(7, 5)):
                num = hurwitz_zeta_num(-k, float(tau))
                assert abs(num - float(hurwitz_zeta_nonpos(k, tau))) < 1e-12

    def test_shift_identity_moves_the_split(self):
        # zeta(s, tau) = sum_{j<30} (tau + j)^{-s} + zeta(s, tau + 30): the
        # right side puts 30 more terms in the head and starts the
        # Euler-Maclaurin tail 30 further out
        for s, tau in ((2.5, 0.7), (6.0, 0.3), (3.0, 2.2)):
            head = math.fsum((tau + j) ** -s for j in range(30))
            assert abs(hurwitz_zeta_num(s, tau) - (head + hurwitz_zeta_num(s, tau + 30))) < 1e-12

    @pytest.mark.parametrize("tau", [1e155, 1e300])
    @pytest.mark.parametrize("s", [2, 3])
    def test_large_tau_is_its_leading_tail(self, s, tau):
        # past tau = 1e154 a complex power of the tail overflowed to a
        # complex NaN; the corrections are below 1e-300 relative here
        ref = tau ** (1 - s) / (s - 1) + tau**-s / 2
        assert math.isclose(hurwitz_zeta_num(s, tau), ref, rel_tol=1e-12, abs_tol=0.0)

    @pytest.mark.parametrize("s,tau", [(math.nan, 0.5), (math.inf, 0.5), (2, math.nan), (2, math.inf)])
    def test_non_finite_input_is_a_value_error(self, s, tau):
        with pytest.raises(ValueError, match="must be finite"):
            hurwitz_zeta_num(s, tau)


class TestHyp2F1Quarter:
    def exact_series(self, x, N=400):
        # sum_{n<N} (1/4)_n (3/4)_n / n!^2 x^n in exact rationals, each term
        # from the last by its ratio (n + 1/4)(n + 3/4) x / (n + 1)^2
        xf, term, tot = F(x), F(1), F(0)
        for n in range(N):
            tot += term
            term *= (F(1, 4) + n) * (F(3, 4) + n) / (n + 1) ** 2 * xf
        return float(tot)

    def test_against_direct_series_inside_disc(self):
        for x in (-0.1, -0.25, -0.5, -0.9):
            assert abs(hyp2f1_quarter(x) - self.exact_series(x)) < 1e-12

    def test_at_zero(self):
        assert hyp2f1_quarter(0.0) == 1.0

    def test_outside_unit_disc_converges(self):
        # the Pfaff-transformed series still converges for x <= -1
        v = hyp2f1_quarter(-2.0)
        assert 0.5 < v < 1.0

    def test_rejects_positive(self):
        with pytest.raises(SeriesRegimeViolated):
            hyp2f1_quarter(0.5)


class TestRk1Series:
    def test_kappa_zero_reduces_to_half_zeta(self):
        v, last = r_k1_series(2, 0.0, 5)
        assert abs(v - PI**2 / 2) < 1e-12
        v3, _ = r_k1_series(3, 0.0, 5)
        assert abs(v3 - 3 * hurwitz_zeta_num(3, 0.5)) < 1e-12
        v4, _ = r_k1_series(4, 0.0, 5)
        assert abs(v4 - 6 * hurwitz_zeta_num(4, 0.5)) < 1e-10

    @pytest.mark.parametrize("k", [3, 4])
    def test_cube_integral_cross_route(self, k):
        # same R_{k,1}(kappa) by the series and by the displayed cube integral
        v, last = r_k1_series(k, 0.3, 30)
        q = r_kj_quadrature(k, 1, 0.3, budget=1_000_000, seed=0)
        assert last < 1e-12
        assert abs(v - q.value) <= 3 * q.std_error, (v, q.value, q.std_error)

    def test_closed_form_cross_oracle(self):
        # R_{2,1}(kappa) = (pi^2/2) F(-kappa^2)^2 with F = 2F1(1/4,3/4;1;.)
        for kappa in (0.3, 0.5, 0.7):
            v, last = r_k1_series(2, kappa, 90)
            f = hyp2f1_quarter(-(kappa**2))
            assert abs(v - PI**2 / 2 * f * f) < max(1e-8, 10 * last), kappa

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_equals_per_term_sum_bit_for_bit(self, k):
        # the series built from one table per tJ index sums the same floats
        # in the same order as a sum over J_k(n) computed one n at a time
        basis = {"ONE": 1.0}
        for j in (2, 3, 4):
            basis[f"HZ{j}"] = float(hurwitz_zeta_num(j, 0.5))
        total, last, kpow = 0.0, 0.0, 1.0
        for n in range(41):
            jn = sum(float(c) * basis[sym] for sym, c in aperylike_J(k, n).coeffs)
            term = float(Fraction((-1) ** n * math.comb(2 * n, n), 4**n)) * jn * kpow  # C(-1/2, n)
            total += term
            last = abs(term)
            kpow *= 0.25
        assert r_k1_series(k, 0.5, 40) == (k / 2 * total, k / 2 * last)

    def test_regime_guard(self):
        with pytest.raises(SeriesRegimeViolated):
            r_k1_series(2, 1.0, 10)


class TestRkjQuadrature:
    def test_r21_at_zero(self):
        r = r_kj_quadrature(2, 1, 0.0, budget=400_000, seed=11)
        assert abs(r.value - PI**2 / 2) <= 3 * r.std_error

    def test_r42_at_zero(self):
        r = r_kj_quadrature(4, 2, 0.0, budget=400_000, seed=11)
        assert abs(r.value - PI**4 / 6) <= 3 * r.std_error

    def test_r21_cross_oracle_at_half(self):
        q = r_kj_quadrature(2, 1, 0.5, budget=400_000, seed=12)
        s, _ = r_k1_series(2, 0.5, 90)
        assert abs(q.value - s) <= 3 * q.std_error

    def test_r31_at_zero(self):
        # 3 * 8 * sum 1/(2m+1)^3 scaled: at kappa=0 integrand is
        # 24/(1 - u1^2 u2^2 u3^2): value 24 * sum 1/(2m+1)^3 / 8... direct:
        # integral of (u1 u2 u3)^{2m} = 1/(2m+1)^3
        target = 24 * sum(1.0 / (2 * m + 1) ** 3 for m in range(200000))
        r = r_kj_quadrature(3, 1, 0.0, budget=400_000, seed=13)
        assert abs(r.value - target) <= 3 * r.std_error

    def test_monotone_decreasing_in_kappa(self):
        vals = []
        for kappa in (0.0, 0.2, 0.4, 0.6, 0.8):
            r = r_kj_quadrature(2, 1, kappa, budget=200_000, seed=14)
            vals.append((r.value, r.std_error))
        for (a, ea), (b, eb) in zip(vals, vals[1:]):
            assert b < a + 3 * (ea + eb)

    def test_tensor_gauss_agrees_with_mc(self):
        g = r_kj_quadrature(2, 1, 0.5, method="TENSOR_GAUSS", budget=10_000)
        m = r_kj_quadrature(2, 1, 0.5, budget=400_000, seed=15)
        s, _ = r_k1_series(2, 0.5, 90)
        # the n-versus-n/2 estimate brackets the series value and is far
        # below the Monte Carlo error
        assert 0 < g.std_error < 1e-5 and abs(g.value - s) <= g.std_error
        assert abs(g.value - m.value) < max(4 * m.std_error, 0.02)

    def test_tensor_gauss_counts_both_rules(self):
        # budget 10^4 gives 100 nodes per axis in 2-D and 10 in 4-D
        assert r_kj_quadrature(2, 1, 0.5, method="TENSOR_GAUSS", budget=10_000).samples_or_nodes == 100**2 + 50**2
        assert appendixB_integral("A", 1, 0, budget=10_000, method="TENSOR_GAUSS").samples_or_nodes == 10**4 + 5**4

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedIndexPair):
            r_kj_quadrature(3, 2, 0.1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: r_kj_quadrature(2, 1, 0.5, method="QMC", budget=1000),
            lambda: appendixB_integral("A", 0, 0, budget=1000, method="QMC"),
            # r = 0 needs no quadrature, and still names no unknown method
            lambda: zetaQ_special(2, NchoParams(1.5, 1.5), budget=1000, method="QMC"),
            lambda: zetaQ_special(3, NchoParams(2.2, 1.3), budget=1000, method="monte_carlo"),
        ],
        ids=["r_kj", "appendixB", "zetaQ-r0", "zetaQ"],
    )
    def test_unknown_method_rejected(self, call):
        with pytest.raises(ValueError, match="method"):
            call()

    def test_determinism(self):
        a = r_kj_quadrature(2, 1, 0.3, budget=50_000, seed=42)
        b = r_kj_quadrature(2, 1, 0.3, budget=50_000, seed=42)
        assert a.value == b.value and a.std_error == b.std_error


GAUSS_BUDGETS = [1000, 4096, 16_384, 65_536]


class TestTensorGaussEstimate:
    """The TENSOR_GAUSS error field, |I_n - I_{n//2}| with a rounding floor,
    is positive and at least the true error wherever a closed form exists."""

    @pytest.mark.parametrize("budget", GAUSS_BUDGETS)
    def test_r21_at_zero(self, budget):
        r = r_kj_quadrature(2, 1, 0.0, method="TENSOR_GAUSS", budget=budget)
        assert r.std_error > 0
        assert abs(r.value - PI**2 / 2) <= r.std_error

    @pytest.mark.parametrize("budget", GAUSS_BUDGETS)
    @pytest.mark.parametrize("key", sorted(APPENDIX_AB_EXACT), ids=lambda k: "".join(map(str, k)))
    def test_appendix_ab(self, key, budget):
        r = appendixB_integral(*key, budget=budget, method="TENSOR_GAUSS")
        assert r.std_error > 0
        assert abs(r.value - APPENDIX_AB_EXACT[key]) <= r.std_error

    @pytest.mark.parametrize("budget", GAUSS_BUDGETS)
    @pytest.mark.parametrize("ab", [(2.0, 1.0), (2.5, 0.6)], ids=str)
    def test_zetaQ2(self, ab, budget):
        p = NchoParams(*ab)
        r = zetaQ_special(2, p, budget=budget, method="TENSOR_GAUSS")
        assert r.std_error > 0
        assert abs(r.value - zetaQ2_closed(p)) <= r.std_error

    def test_zetaQ_without_quadrature_keeps_a_rounding_floor(self):
        p = NchoParams(math.sqrt(2), math.sqrt(2))
        r = zetaQ_special(2, p, budget=1000, method="TENSOR_GAUSS")
        assert r.samples_or_nodes == 0
        assert abs(r.value - zetaQ2_closed(p)) <= r.std_error < 1e-12

    def test_estimates_add_linearly(self):
        p = NchoParams(2.0, 1.0)
        res = zetaQ_special(4, p, budget=4096, method="TENSOR_GAUSS")
        parts = [r_kj_quadrature(4, j, p.kappa, method="TENSOR_GAUSS", budget=4096) for j in (1, 2)]
        r2 = (1.0 / 3.0) ** 2
        pref = 2.0 * (3.0 / (2.0 * math.sqrt(2.0))) ** 4
        linear = pref * (r2 * parts[0].std_error + r2**2 * parts[1].std_error)
        assert linear <= res.std_error <= linear * (1 + 1e-12) + 64 * 2.0**-52 * res.value
        assert res.samples_or_nodes == sum(q.samples_or_nodes for q in parts)


class TestZetaQ:
    def test_equal_parameters_reduce_to_riemann(self):
        p = NchoParams(math.sqrt(2), math.sqrt(2))
        res = zetaQ_special(2, p, budget=1000)
        assert abs(res.value - PI**2) < 1e-12  # r = 0: no quadrature needed
        assert abs(zetaQ2_closed(p) - PI**2) < 1e-12

    def test_residue(self):
        # c_{-1} = 2 / sqrt(a^2 - 1) at alpha = beta = a: 2 at sqrt 2, up to
        # the rounding of sqrt 2 itself (its square is 2 + 4.4e-16)
        assert NchoParams(math.sqrt(2), math.sqrt(2)).residue == pytest.approx(2.0, rel=4 * 2.0**-52)
        # every step is exact at (3/2, 3/4): alpha beta = 9/8, and the root is 3/8
        assert NchoParams(1.5, 0.75).residue == NchoParams(0.75, 1.5).residue == 6.0

    def test_general_equal_parameters(self):
        for a in (1.3, 2.0, 3.5):
            p = NchoParams(a, a)
            assert abs(zetaQ2_closed(p) - PI**2 / (a * a - 1)) < 1e-10

    def test_closed_vs_assembled(self):
        for (a, b) in ((2.0, 1.0), (2.5, 0.6)):
            p = NchoParams(a, b)
            closed = zetaQ2_closed(p)
            asm = zetaQ_special(2, p, budget=600_000, seed=3)
            assert abs(asm.value - closed) <= max(3 * asm.std_error, 5e-3 * closed)

    def test_tensor_gauss_reports_no_seed(self):
        p = NchoParams(2.0, 1.0)
        res = zetaQ_special(2, p, budget=1000, seed=7, method="TENSOR_GAUSS")
        assert res.method == "TENSOR_GAUSS" and res.seed is None
        assert abs(res.value - zetaQ2_closed(p)) < 1e-5 * zetaQ2_closed(p)
        assert zetaQ_special(2, p, budget=1000, seed=7).seed == 7

    def test_swap_symmetry(self):
        p = NchoParams(2.0, 1.0)
        assert zetaQ2_closed(p) == zetaQ2_closed(p.swap())
        a = zetaQ_special(2, p, budget=200_000, seed=4)
        b = zetaQ_special(2, p.swap(), budget=200_000, seed=4)
        assert abs(a.value - b.value) <= 3 * (a.std_error + b.std_error)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NchoParams(1.0, 0.5)
        with pytest.raises(ValueError):
            NchoParams(-1.0, 2.0)
        assert abs(NchoParams(2.0, 1.0).kappa - 1.0) < 1e-15

    def test_k3_and_k4_assemble(self):
        p = NchoParams(2.0, 1.0)
        r3 = zetaQ_special(3, p, budget=150_000, seed=5)
        r4 = zetaQ_special(4, p, budget=150_000, seed=5)
        assert r3.value > 0 and r4.value > 0
        with pytest.raises(UnsupportedIndexPair):
            zetaQ_special(5, p)


class TestAppendixAB:
    @pytest.mark.parametrize(
        "which,n,k",
        [("A", 0, 0), ("A", 1, 0), ("A", 1, 1), ("B", 0, 0), ("B", 1, 0), ("B", 1, 1)],
    )
    def test_exact_table(self, which, n, k):
        res = appendixB_integral(which, n, k, budget=400_000, seed=21)
        exact = APPENDIX_AB_EXACT[(which, n, k)]
        assert abs(res.value - exact) <= 3 * res.std_error, (which, n, k)

    def test_a_from_b_binomial_relation(self):
        # A_{1,0} = B_{1,0} + B_{1,1}, exactly in the table
        assert (
            abs(
                APPENDIX_AB_EXACT[("A", 1, 0)]
                - APPENDIX_AB_EXACT[("B", 1, 0)]
                - APPENDIX_AB_EXACT[("B", 1, 1)]
            )
            < 1e-15
        )

    def test_r42_series_values(self):
        assert abs(r42_series(0.0) - PI**4 / 6) < 1e-12
        t = 0.1
        expect = 16 * (
            APPENDIX_AB_EXACT[("A", 0, 0)]
            - 0.5 * (APPENDIX_AB_EXACT[("A", 1, 0)] * t + APPENDIX_AB_EXACT[("A", 1, 1)] * t * t)
        )
        assert math.isclose(r42_series(t), expect, rel_tol=1e-13)

    def test_r42_order_of_contact(self):
        res = r42_order_of_contact([0.1, 0.2], budget=1_500_000)
        d1, d2 = res[0]["difference"], res[1]["difference"]
        assert abs(d1) > 3 * res[0]["std_error"]
        slope = math.log(abs(d2 / d1)) / math.log(2.0)
        assert 2.5 < slope < 5.5

    def test_r42_order_of_contact_pinned(self):
        # the tensor Gauss rule resolves each difference to about 1e-10
        res = r42_order_of_contact([0.1, 0.2])
        for row, expect in zip(res, (1.1820748e-3, 1.8582528e-2)):
            assert abs(row["difference"] - expect) <= 1e-9
            assert row["std_error"] <= 1e-9
