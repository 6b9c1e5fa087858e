"""Apery and Apery-like families plus the congruence verifiers.

The three-term recurrences are the oracles for the closed binomial sums
(and vice versa: each value is computed by both routes and compared
exactly).
"""

import math
from fractions import Fraction
from math import comb

import pytest

from zetaforge import aperynum, cli
from zetaforge.aperynum import (
    CongruenceReport,
    IndexNotIntegral,
    UnsupportedIndex,
    ZetaCombo,
    aperylike_J,
    aperylike_tJ,
    apery2,
    apery2_b,
    apery2_closed,
    apery3,
    apery3_b,
    apery3_closed,
    asd_congruence_check,
    congruence_pary_product,
    eta_coefficient,
    los_square_sum_check,
    supercongruence_check,
    tj_supercongruence_check,
    tj_table,
)

F = Fraction


class TestZetaCombo:
    def test_no_zero_coefficients_stored(self):
        c = ZetaCombo.of({"ONE": 0, "HZ2": F(1, 2)})
        assert c.coeffs == (("HZ2", F(1, 2)),)

    def test_linear_ops(self):
        a = ZetaCombo.of({"ONE": 1, "HZ2": 2})
        b = ZetaCombo.of({"HZ2": -2, "HZ3": F(1, 3)})
        assert (a + b).as_dict() == {"ONE": 1, "HZ3": F(1, 3)}
        assert (a - a).is_zero()
        assert a.scale(3).get("HZ2") == 6

    def test_unknown_symbol_rejected(self):
        with pytest.raises(UnsupportedIndex):
            ZetaCombo.of({"HZ9": 1})


class TestAperySequences:
    def test_initial_conditions(self):
        assert apery2(0) == 1 and apery2(1) == 3
        assert apery3(0) == 1 and apery3(1) == 5
        assert apery2_b(0) == 0 and apery2_b(1) == 5
        assert apery3_b(0) == 0 and apery3_b(1) == 6

    def test_second_values_via_recurrence(self):
        assert apery2(2) == 19  # 4 u(2) = 25*3 + 1
        assert apery3(2) == 73  # 8 u(2) = 117*5 - 1

    def test_closed_equals_recurrence_up_to_60(self):
        for n in range(61):
            assert apery2_closed(n) == apery2(n)
            assert apery3_closed(n) == apery3(n)

    def test_ratio_converges_to_zeta2_monotonically(self):
        z2 = math.pi**2 / 6
        errs = [abs(apery2_b(n) / apery2(n) - z2) for n in range(4, 31)]
        for a, b in zip(errs, errs[1:]):
            assert b < a + 1e-15

    def test_ratio_converges_to_zeta3(self):
        z3 = 1.2020569031595942854
        assert abs(apery3_b(25) / apery3(25) - z3) < 1e-15


class TestAperyLikeJ:
    def test_examples(self):
        assert aperylike_J(1, 1).as_dict() == {"ONE": F(2, 3)}
        assert aperylike_J(2, 0).as_dict() == {"HZ2": 1}
        assert aperylike_J(2, 1).as_dict() == {"HZ2": F(3, 4)}
        assert aperylike_J(0, 5).is_zero()

    def test_j1_closed_form(self):
        # 2^n n! / (2n+1)!!
        for n in range(12):
            dd = 1
            for i in range(1, 2 * n + 2, 2):
                dd *= i
            assert aperylike_J(1, n).get("ONE") == F(2**n * math.factorial(n), dd)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_recurrence_oracle(self, k):
        # 4n^2 J_k(n) - (8n^2-8n+3) J_k(n-1) + 4(n-1)^2 J_k(n-2)
        #   = 4 J_{k-2}(n-1), componentwise, 2 <= n <= 40
        for n in range(2, 41):
            lhs = (
                aperylike_J(k, n).scale(4 * n * n)
                - aperylike_J(k, n - 1).scale(8 * n * n - 8 * n + 3)
                + aperylike_J(k, n - 2).scale(4 * (n - 1) ** 2)
            )
            rhs = aperylike_J(k - 2, n - 1).scale(4)
            assert (lhs - rhs).is_zero(), (k, n)

    def test_base_case_resolves_j1_normalization(self):
        # 4 J3(1) - 3 J3(0) = 4 J1(0) pins J1(n) = 2^n n!/(2n+1)!! with no
        # extra factor 1/2
        lhs = aperylike_J(3, 1).scale(4) - aperylike_J(3, 0).scale(3)
        assert lhs.as_dict() == {"ONE": 4}
        assert aperylike_J(1, 0).as_dict() == {"ONE": 1}

    def test_constants_in_closed_forms_consistent(self):
        # J3 carries 2*zeta(3,1/2), J4 carries 3*zeta(4,1/2): the recurrence
        # at n = 1 holds with these constants as printed
        for k in (2, 3, 4):
            lhs = aperylike_J(k, 1).scale(4) - aperylike_J(k, 0).scale(3)
            rhs = aperylike_J(k - 2, 0).scale(4)
            assert (lhs - rhs).is_zero(), k


def tj_core(k: int, n_max: int) -> list:
    """core_j, j <= n_max, with tJ_k(n) = sum_j C(n, j) core_j, from the
    definition in Fractions with math.comb.

    core_j = (-1)^(j+s) C(-1/2,j)^2 Z_s(j), halved for odd k.  Z_s(j) sums
    prod x_{j_i} over the chains j > j1 > ... > js >= 0 with
    x_i = 1/(i+1/2)^2; for odd k the smallest index carries
    1/((i+1/2)^3 C(-1/2,i)^2) instead.  The chains are counted as the
    elementary symmetric functions are: e[t] holds the t-chains below j, and
    passing index i adds the chains whose largest index is i.
    """
    s = (k - 1) // 2
    e = [F(1)] + [F(0)] * s
    core = []
    for j in range(n_max + 1):
        c2 = F(comb(2 * j, j), 4**j) ** 2
        core.append((-1) ** (j + s) * c2 * e[s] / (2 if k % 2 else 1))
        x = 1 / F(2 * j + 1, 2) ** 2
        for t in range(s, 1, -1):
            e[t] += e[t - 1] * x
        if s:
            e[1] += x / (F(2 * j + 1, 2) * c2) if k % 2 else x
    return core


def tj_table_fraction_loop(k: int, n_max: int) -> list:
    """tJ_k(0..n_max) by the binomial transform summed term by term in
    Fractions with math.comb: the oracle for the integer transform."""
    core = tj_core(k, n_max)
    return [
        sum((core[j] * comb(n, j) for j in range(n + 1)), F(0))
        for n in range(n_max + 1)
    ]


class TestNormalizedTJ:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_fraction_loop_oracle(self, k):
        assert tj_table(k, 60) == tj_table_fraction_loop(k, 60)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_single_n_sums_at_depth(self, k):
        # the depth of the exact benchmark: one C(n, j) sum per spot
        table = tj_table(k, 200)
        core = tj_core(k, 200)
        for n in (150, 200):
            assert table[n] == sum((comb(n, j) * core[j] for j in range(n + 1)), F(0))

    def test_shortest_tables(self):
        # tJ_k(1) from the recurrence at n = 1, 4 tJ_k(1) - 3 tJ_k(0) = 4 tJ_{k-2}(0),
        # whose right side is 0 for k = 2 and 4 J_1(0) = 4 for k = 3
        first = {2: (1, F(3, 4)), 3: (0, 1), 4: (0, 1), 5: (0, 0), 6: (0, 0)}
        for k, (t0, t1) in first.items():
            assert tj_table(k, 0) == [t0] == tj_table_fraction_loop(k, 0)
            assert tj_table(k, 1) == [t0, t1] == tj_table_fraction_loop(k, 1)
            assert all(type(v) is F for v in tj_table(k, 1))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_j_table_matches_aperylike_J(self, k):
        assert aperynum.j_table(k, 25) == [aperylike_J(k, n) for n in range(26)]

    def test_examples(self):
        assert aperylike_tJ(2, 0) == 1
        assert aperylike_tJ(2, 1) == F(3, 4)
        assert aperylike_tJ(2, 2) == F(41, 64)

    def test_recurrence(self):
        t = tj_table(2, 40)
        for n in range(2, 41):
            assert (
                4 * n * n * t[n]
                - (8 * n * n - 8 * n + 3) * t[n - 1]
                + 4 * (n - 1) ** 2 * t[n - 2]
                == 0
            )

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_recurrence_with_inhomogeneity(self, k):
        hi = tj_table(k, 25)
        lo = tj_table(k - 2, 25)
        for n in range(2, 26):
            lhs = (
                4 * n * n * hi[n]
                - (8 * n * n - 8 * n + 3) * hi[n - 1]
                + 4 * (n - 1) ** 2 * hi[n - 2]
            )
            assert lhs == 4 * lo[n - 1], (k, n)

    def test_relation_to_J(self):
        # J2(n) = J2(0) tJ2(n); J3(n) - J3(0) tJ2(n) is rational = tJ3(n)
        for n in range(15):
            assert aperylike_J(2, n).get("HZ2") == aperylike_tJ(2, n)
            diff = aperylike_J(3, n) - ZetaCombo.of(
                {"HZ3": 2 * aperylike_tJ(2, n)}
            )
            assert diff.is_rational()
            assert diff.get("ONE") == aperylike_tJ(3, n)
            # J4(n) = z2 tJ4(n) + 3 z4 tJ2(n)
            j4 = aperylike_J(4, n)
            assert j4.get("HZ2") == aperylike_tJ(4, n)
            assert j4.get("HZ4") == 3 * aperylike_tJ(2, n)

    def test_tj2_denominators_are_powers_of_two(self):
        for n, v in enumerate(tj_table(2, 40)):
            d = v.denominator
            assert d & (d - 1) == 0, (n, d)

    def test_unsupported_index(self):
        with pytest.raises(UnsupportedIndex):
            aperylike_tJ(7, 3)
        with pytest.raises(UnsupportedIndex):
            aperylike_J(5, 3)
        with pytest.raises(UnsupportedIndex):
            aperynum.j_table(1, 3)


class TestCongruences:
    def test_pary_examples(self):
        rep = congruence_pary_product("A2", 5, 7)
        assert rep.ok and rep.modulus == 5
        assert congruence_pary_product("A2", 7, 3).ok  # single digit, trivial
        assert congruence_pary_product("TJ2", 7, 10).ok
        assert congruence_pary_product("A3", 5, 13).ok

    def test_pary_sweep(self):
        for p in (3, 5, 7):
            for n in range(p, 3 * p):
                assert congruence_pary_product("A2", p, n).ok, (p, n)
                assert congruence_pary_product("A3", p, n).ok, (p, n)
                assert congruence_pary_product("TJ2", p, n).ok, (p, n)

    def test_supercongruence_examples(self):
        rep = supercongruence_check("A3", 5, 1, 1)
        assert rep.ok and rep.modulus == 125 and rep.rhs_residue == 1
        rep2 = supercongruence_check("A2", 7, 1, 1)
        assert rep2.ok and rep2.modulus == 343
        # p = 3 only gets the plain p^r statement (and indeed
        # A3(2) - A3(0) = 72 is not divisible by 27)
        rep3 = supercongruence_check("A3", 3, 1, 1)
        assert rep3.ok and rep3.modulus == 3 and "p^r" in rep3.note
        assert (apery3(2) - apery3(0)) % 27 != 0

    def test_tj_supercongruences(self):
        assert tj_supercongruence_check(0, 5, 1, 1).ok  # tJ2(5) = tJ2(1) mod 5
        assert tj_supercongruence_check(0, 7, 2, 1).ok  # tJ2(14) = tJ2(2) mod 7
        assert tj_supercongruence_check(1, 5, 1, 1).ok  # 25 tJ4(5) = tJ4(1) mod 5

    def test_tj_mod_pr_family(self):
        # tJ2(m p^r) = tJ2(m p^{r-1}) mod p^r
        for p in (3, 5):
            for m in (1,) if p == 3 else (1, 2):
                for r in (1, 2):
                    lhs = aperylike_tJ(2, m * p**r)
                    rhs = aperylike_tJ(2, m * p ** (r - 1))
                    num = lhs - rhs
                    from zetaforge.exact import padic_valuation

                    assert num == 0 or padic_valuation(num, p) >= r, (p, m, r)

    def test_los_square_sums(self):
        for p, sign in ((3, -1), (5, 1), (7, -1), (11, -1)):
            rep = los_square_sum_check(p)
            assert rep.ok, p
            expected = 1 if sign == 1 else p**3 - 1
            assert rep.rhs_residue == expected

    def test_reports_do_not_raise_on_failure(self):
        # a deliberately false statement must come back ok=False, not raise
        rep = CongruenceReport(
            kind="probe", params={}, lhs_residue=1, rhs_residue=2, modulus=5, ok=False
        )
        assert not rep.ok


class TestEtaCoefficientCongruences:
    def test_eta_coefficients_against_brute_force(self):
        # brute-force oracle: expand q prod(1-q^{4n})^6 and
        # q prod(1-q^{2n})^4 prod(1-q^{4n})^4 directly
        def product(powers, nmax):
            coeffs = {0: 1}
            for scale, e in powers.items():
                for _ in range(e):
                    n = 1
                    while scale * n <= nmax:
                        nxt = dict(coeffs)
                        for ex, c in coeffs.items():
                            if ex + scale * n <= nmax:
                                nxt[ex + scale * n] = nxt.get(ex + scale * n, 0) - c
                        coeffs = nxt
                        n += 1
            return {e + 1: c for e, c in coeffs.items() if e + 1 <= nmax}

        lam_oracle = product({4: 6}, 13)
        gam_oracle = product({2: 4, 4: 4}, 13)
        for n in range(1, 14):
            assert eta_coefficient("lambda", n) == lam_oracle.get(n, 0), n
            assert eta_coefficient("gamma", n) == gam_oracle.get(n, 0), n
        # lambda_5 used by the p = 5 three-term congruence
        assert eta_coefficient("lambda", 5) == -6

    def test_asd_examples(self):
        rep = asd_congruence_check("A2", 5, 1, 2)
        assert rep.ok and rep.modulus == 25
        rep2 = asd_congruence_check("A3", 7, 1, 2)
        assert rep2.ok and rep2.modulus == 49

    def test_asd_sweep(self):
        for kind in ("A2", "A3"):
            for p in (3, 5, 7):
                for m in (1, 3):
                    rep = asd_congruence_check(kind, p, m, 2)
                    assert rep.ok, (kind, p, m)

    def test_asd_rejects_even_m(self):
        with pytest.raises(ValueError):
            asd_congruence_check("A2", 5, 2, 2)

    def test_report_schema(self):
        d = cli._jsonify(supercongruence_check("A2", 5, 1, 1))
        assert set(d) >= {"kind", "params", "lhs_residue", "rhs_residue", "modulus", "ok"}
