"""Exact-arithmetic layer: Bernoulli family, binomials, modular reduction.

The implementation computes Bernoulli numbers from the tangent numbers
(Brent-Harvey); the Akiyama-Tanigawa triangle and the convolution identity
sum_j C(k+1,j) B_j = 0 are the independent oracles here.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforge import exact
from zetaforge.exact import (
    DenominatorNotInvertible,
    bernoulli_number,
    bernoulli_poly,
    hurwitz_zeta_nonpos,
    rational_mod_prime_power,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=50
)


def akiyama_tanigawa(m: int) -> list:
    """B_0..B_m by the Akiyama-Tanigawa triangle, which yields B_1 = +1/2;
    the sign at index 1 is flipped to the B_1 = -1/2 convention."""
    row: list = []
    out = []
    for n in range(m + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if m >= 1:
        out[1] = -out[1]
    return out


class TestBernoulliNumbers:
    def test_known_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(6) == Fraction(1, 42)
        assert bernoulli_number(8) == Fraction(-1, 30)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        for k in range(1, 30):
            assert bernoulli_number(2 * k + 1) == 0

    def test_convolution_identity_oracle(self):
        # sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1, exact
        for k in range(1, 61):
            total = sum(comb(k + 1, j) * bernoulli_number(j) for j in range(k + 1))
            assert total == 0, k

    def test_triangle_oracle_through_300(self):
        assert [bernoulli_number(k) for k in range(301)] == akiyama_tanigawa(300)

    def test_table_independent_of_request_order(self):
        high_first, low_first = exact._BernoulliCache(), exact._BernoulliCache()
        high_first.get(300)
        high_first.get(10)
        low_first.get(10)
        low_first.get(300)
        a = [high_first.get(k) for k in range(301)]
        b = [low_first.get(k) for k in range(301)]
        assert a == b == akiyama_tanigawa(300)

    def test_cache_is_bit_identical(self):
        a = bernoulli_number(40)
        b = bernoulli_number(40)
        assert a is b or a == b

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)


class TestBernoulliPolynomials:
    def test_examples(self):
        assert bernoulli_poly(0, Fraction(7, 3)) == 1
        assert bernoulli_poly(1, 0) == Fraction(-1, 2)
        # expand 1/4 - 1/2 + 1/6
        assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)

    @pytest.mark.parametrize("tau", [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(7, 5)])
    def test_forward_difference(self, tau):
        # B_k(x+1) - B_k(x) = k x^(k-1), exact
        for k in range(1, 41):
            lhs = bernoulli_poly(k, tau + 1) - bernoulli_poly(k, tau)
            assert lhs == k * tau ** (k - 1)

    def test_at_zero_gives_numbers(self):
        for k in range(20):
            assert bernoulli_poly(k, 0) == bernoulli_number(k)


class TestHurwitzNonpositive:
    def test_examples(self):
        assert hurwitz_zeta_nonpos(0, Fraction(1, 2)) == 0
        assert hurwitz_zeta_nonpos(1, 1) == Fraction(-1, 12)

    @given(tau=rationals)
    @settings(max_examples=30, deadline=None)
    def test_zeroth_value(self, tau):
        assert hurwitz_zeta_nonpos(0, tau) == Fraction(1, 2) - tau

    def test_half_argument_reduction(self):
        # zeta(-k, 1/2) = (2^{-k} - 1) * (-B_{k+1}/(k+1)), exact
        for k in range(41):
            lhs = hurwitz_zeta_nonpos(k, Fraction(1, 2))
            rhs = (Fraction(1, 2**k) - 1) * (-bernoulli_number(k + 1) / (k + 1))
            assert lhs == rhs, k


class TestRationalMod:
    def test_examples(self):
        assert rational_mod_prime_power(Fraction(3, 4), 5, 2) == 7
        assert rational_mod_prime_power(Fraction(1, 6), 5, 1) == 1
        with pytest.raises(DenominatorNotInvertible):
            rational_mod_prime_power(Fraction(1, 5), 5, 1)

    @given(
        num=st.integers(-200, 200),
        den=st.integers(1, 200),
        e=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduction_inverts(self, num, den, e):
        p = 7
        if den % p == 0:
            den += 1
        x = Fraction(num, den)
        r = rational_mod_prime_power(x, p, e)
        # r * den = num (mod p^e)
        assert (r * x.denominator - x.numerator) % p**e == 0
        assert 0 <= r < p**e

    def test_valuation(self):
        assert exact.padic_valuation(Fraction(50, 3), 5) == 2
        assert exact.padic_valuation(Fraction(3, 25), 5) == -2
        with pytest.raises(ValueError):
            exact.padic_valuation(0, 5)
