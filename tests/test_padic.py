"""p-adic arithmetic, Teichmuller lifts, Volkenborn integrals and the
p-adic Hurwitz zeta function."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforge import padic
from zetaforge.exact import bernoulli_poly, padic_valuation
from zetaforge.padic import (
    DomainViolated,
    NotAUnit,
    Padic,
    PrecisionExhausted,
    SAtOne,
    TauInZp,
    angle_bracket,
    omega_extended,
    padic_divergence_report,
    padic_hurwitz_shifted,
    padic_hurwitz_zeta,
    teichmuller,
    volkenborn_poly,
)

F = Fraction

units_5 = st.fractions(max_denominator=40).filter(
    lambda x: x != 0 and padic_valuation(x, 5) == 0
)


class TestPadicArithmetic:
    def test_from_rational_roundtrip(self):
        x = Padic.from_rational(F(3, 4), 5, 6)
        assert x.reduce_mod(2) == 7  # 3/4 mod 25

    def test_valuation_split(self):
        x = Padic.from_rational(F(50, 3), 5, 8)
        assert x.val == 2 and x.unit % 5 != 0
        y = Padic.from_rational(F(3, 25), 5, 8)
        assert y.val == -2

    @given(a=units_5, b=units_5, c=units_5)
    @settings(max_examples=40, deadline=None)
    def test_field_axioms_at_precision(self, a, b, c):
        N = 12
        A, B, C = (Padic.from_rational(x, 5, N) for x in (a, b, c))
        assert ((A * B) * C).agrees_with(A * (B * C))
        assert (A * A.inverse()).agrees_with(Padic.from_rational(1, 5, N))
        assert (A + B).agrees_with(Padic.from_rational(a + b, 5, N))
        assert (A * B).agrees_with(Padic.from_rational(a * b, 5, N))

    def test_subtraction_tracks_valuation_loss(self):
        x = Padic.from_rational(1 + 5**6, 5, 10)
        y = Padic.from_rational(1, 5, 10)
        d = x - y
        assert d.val == 6
        assert d.val + d.prec == 10  # absolute precision preserved

    def test_precision_exhausted(self):
        x = Padic.from_rational(1 + 5**9, 5, 10)
        y = Padic.from_rational(1, 5, 10)
        with pytest.raises(PrecisionExhausted):
            _ = x - y

    def test_zero_keeps_the_absolute_precision_of_its_operands(self):
        # x = 7/125 has valuation -3 and 10 digits: it is known modulo 5^7
        x, w = Padic.from_rational(F(7, 125), 5, 10), Padic.from_rational(F(3, 4), 5, 10)
        zero = x - x
        assert zero.is_zero() and zero.val + zero.prec == 7
        assert zero.expansion_str() == "O(5^7)"
        assert zero.to_dict() == {"p": 5, "valuation": None, "digits": [0] * 7, "precision": 7}
        with pytest.raises(PrecisionExhausted):
            zero.reduce_mod(8)
        assert zero.reduce_mod(7) == 0
        # both orders of the sum certify the same 7 digits
        assert zero + w == w + zero == (x + w) - x
        assert (zero + w).prec == 7
        # 0 * x is known modulo 5^10 * 5^-3
        product = Padic.from_rational(0, 5, 10) * x
        assert product.is_zero() and product.val + product.prec == 7
        assert x * Padic.from_rational(0, 5, 10) == product

    def test_adding_a_zero_cuts_to_the_joint_absolute_precision(self):
        zero = Padic.from_rational(0, 5, 6)
        x = Padic.from_rational(F(7, 3), 5, 10)
        assert zero + x == Padic(5, 0, x.unit % 5**6, 6)
        # a term wholly below the zero's precision leaves the zero
        small = Padic.from_rational(5**8, 5, 10)
        assert zero + small == zero == small + zero
        # of two zeros, the sum is the less precise one
        coarse = Padic(5, -2, 0, 5)
        assert zero + coarse == coarse == coarse + zero
        # fewer than four certified digits left is exhausted, in either order
        with pytest.raises(PrecisionExhausted):
            _ = zero + Padic.from_rational(125, 5, 10)
        with pytest.raises(PrecisionExhausted):
            _ = Padic.from_rational(125, 5, 10) + zero

    def test_even_prime_rejected(self):
        with pytest.raises(ValueError):
            Padic.from_rational(F(1, 3), 2, 5)

    def test_serialization(self):
        x = Padic.from_rational(F(7, 3), 5, 6)
        d = x.to_dict()
        assert set(d) == {"p", "valuation", "digits", "precision"}
        assert len(d["digits"]) == 6
        assert "O(5^" in x.expansion_str()


class TestTeichmuller:
    def test_fixed_points(self):
        assert teichmuller(Padic(5, 0, 1, 10)).unit == 1
        w = teichmuller(Padic(5, 0, 2, 10))
        assert w.unit % 25 == 7
        assert pow(w.unit, 4, 5**10) == 1

    def test_minus_one(self):
        w = teichmuller(Padic.from_rational(-1, 7, 8))
        assert (w.unit + 1) % 7**8 == 0

    def test_congruent_mod_p(self):
        for p in (5, 7, 11):
            for u in range(1, p):
                w = teichmuller(Padic(p, 0, u, 12))
                assert w.unit % p == u
                assert pow(w.unit, p - 1, p**12) == 1

    @given(a=units_5, b=units_5)
    @settings(max_examples=30, deadline=None)
    def test_multiplicative(self, a, b):
        N = 10
        wa = teichmuller(Padic.from_rational(a, 5, N))
        wb = teichmuller(Padic.from_rational(b, 5, N))
        wab = teichmuller(Padic.from_rational(a * b, 5, N))
        assert (wa * wb).agrees_with(wab)

    def test_requires_unit(self):
        with pytest.raises(NotAUnit):
            teichmuller(Padic.from_rational(5, 5, 8))


class TestAngleBracket:
    def test_unit_case(self):
        ab = angle_bracket(Padic.from_rational(2, 5, 10))
        assert ab.val == 0 and ab.unit % 5 == 1

    def test_principal_for_every_unit(self):
        for u in range(1, 7):
            ab = angle_bracket(Padic(7, 0, u, 10))
            assert ab.unit % 7 == 1

    def test_one(self):
        assert angle_bracket(Padic.from_rational(1, 5, 10)).unit == 1

    def test_nonunit_uses_unit_part(self):
        t = Padic.from_rational(F(2, 5), 5, 10)
        ab = angle_bracket(t)
        assert ab.val == 0 and ab.unit % 5 == 1
        w = omega_extended(t)
        assert w.val == -1  # valuation tracked by the extension


class TestVolkenborn:
    def test_x_squared_to_sixth(self):
        approx, gains = volkenborn_poly([0, 0, 1], 5, 6)
        target = Padic.from_rational(F(1, 6), 5, 20)
        for r, a in enumerate(approx, start=1):
            # valuation gain at level r is >= r - 2 (observed: exactly r)
            assert a.agrees_with(target, digits=r - 2)
        assert all(g is not None and g >= 1 for g in gains)

    def test_constant(self):
        approx, _ = volkenborn_poly([1], 5, 4)
        one = Padic.from_rational(1, 5, 20)
        assert all(a.agrees_with(one, digits=18) for a in approx)

    def test_shifted_cube_approaches_bernoulli(self):
        # f = (x + 1/2)^3 -> B_3(1/2)
        coeffs = [F(1, 8), F(3, 4), F(3, 2), F(1)]
        approx, _ = volkenborn_poly(coeffs, 5, 5)
        target = Padic.from_rational(bernoulli_poly(3, F(1, 2)), 5, 20)
        assert approx[-1].agrees_with(target, digits=5 - 2)

    def test_linearity_per_level(self):
        f = [F(1, 3), F(2), F(0), F(5)]
        g = [F(0), F(1, 7), F(4)]
        fg = [a + b for a, b in zip(f + [F(0)] * 2, g + [F(0)] * 3)][: max(len(f), len(g))]
        af, _ = volkenborn_poly(f, 5, 4)
        ag, _ = volkenborn_poly(g, 5, 4)
        afg, _ = volkenborn_poly(fg, 5, 4)
        for x, y, z in zip(af, ag, afg):
            assert (x + y).agrees_with(z)

    def test_first_moments_give_bernoulli_numbers(self):
        # int x^k = B_k for k = 0..6
        from zetaforge.exact import bernoulli_number

        for k in range(7):
            coeffs = [F(0)] * k + [F(1)]
            approx, _ = volkenborn_poly(coeffs, 7, 5)
            target = Padic.from_rational(bernoulli_number(k), 7, 20)
            assert approx[-1].agrees_with(target, digits=3), k


class TestPadicHurwitz:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_interpolation_identity_mod_p20(self, p):
        tau = F(2, p)
        tp = Padic.from_rational(tau, p, 26)
        for k in range(1, 11):
            z = padic_hurwitz_zeta(1 - k, tau, p=p, prec=26)
            rhs = omega_extended(tp).pow_int(-k) * Padic.from_rational(
                -bernoulli_poly(k, tau) / k, p, 26
            )
            assert z.agrees_with(rhs, digits=20), (p, k)

    def test_various_test_points(self):
        for p in (5, 7):
            for tau in (F(1, p), F(3, p * p), F(-2, p)):
                tp = Padic.from_rational(tau, p, 24)
                for k in (1, 2, 3, 4):
                    z = padic_hurwitz_zeta(1 - k, tau, p=p, prec=24)
                    rhs = omega_extended(tp).pow_int(-k) * Padic.from_rational(
                        -bernoulli_poly(k, tau) / k, p, 24
                    )
                    assert z.agrees_with(rhs, digits=18), (p, tau, k)

    def test_positive_s_certified_and_stable(self):
        z1 = padic_hurwitz_zeta(2, F(1, 5), p=5, prec=20, K=30)
        z2 = padic_hurwitz_zeta(2, F(1, 5), p=5, prec=20, K=40)
        assert z1.agrees_with(z2, digits=20)

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_short_truncations_certify_only_true_digits(self, p):
        # every digit that a short truncation certifies must agree with a
        # deep one; a tail valuation two higher certified wrong digits
        tau = F(1, p)
        for s in (2, 3, 4, -1):
            ref = padic_hurwitz_zeta(s, tau, p=p, K=400, prec=40)
            for K in range(2, 12):
                try:
                    z = padic_hurwitz_zeta(s, tau, p=p, K=K, prec=40)
                except PrecisionExhausted:
                    continue
                assert z.agrees_with(ref), (s, K)

    def test_domain_errors(self):
        with pytest.raises(SAtOne):
            padic_hurwitz_zeta(1, F(1, 5), p=5)
        with pytest.raises(TauInZp):
            padic_hurwitz_zeta(2, F(2, 3), p=5)

    def test_shifted_reduces_at_zero(self):
        lhs = padic_hurwitz_shifted(3, F(1, 5), 0, p=5, prec=18)
        rhs = padic_hurwitz_zeta(3, F(1, 5), p=5, prec=18)
        assert lhs.agrees_with(rhs, digits=14)

    def test_shifted_cross_route(self):
        for s in (2, 3, 5):
            for x in (F(1), F(2), F(1, 2)):
                lhs = padic_hurwitz_shifted(s, F(1, 5), x, p=5, prec=18)
                rhs = padic_hurwitz_zeta(s, F(1, 5) + x, p=5, prec=18)
                assert lhs.agrees_with(rhs, digits=12), (s, x)

    @pytest.mark.parametrize("s", (2, 3, 5))
    @pytest.mark.parametrize("tau, x", [(F(1, 25), F(1, 5)), (F(1, 125), F(1, 25))])
    def test_shifted_certified_digits_with_x_outside_zp(self, s, tau, x):
        # B_k(x) tau^{-k} gains only v(x) - v(tau) per term when |x|_p > 1;
        # counting |v(tau)| certified 18 digits that agreed only to 11-14
        lhs = padic_hurwitz_shifted(s, tau, x, p=5, prec=18)
        rhs = padic_hurwitz_zeta(s, tau + x, p=5, K=80, prec=30)
        assert lhs.val + lhs.prec < rhs.val + rhs.prec
        assert lhs.agrees_with(rhs)

    def test_shifted_domain_guard(self):
        with pytest.raises(DomainViolated):
            padic_hurwitz_shifted(2, F(1, 5), F(1, 25), p=5)


class TestDivergenceLedger:
    def test_stabilization_and_match(self):
        rep = padic_divergence_report(2, F(1, 5), 5, 16)
        assert rep["sum_matches_normalized_zeta"]
        assert rep["stabilization_index_mod_p4"] <= 12
        # certified envelope: v(term_k) = (k+1) + v_5(B_k) >= k, and the
        # tail valuations climb past any head value (odd terms vanish)
        for row in rep["rows"]:
            if row["term_valuation"] is not None:
                assert row["term_valuation"] >= row["k"]
        vals = [r["term_valuation"] for r in rep["rows"] if r["term_valuation"] is not None]
        assert min(vals[6:]) > max(vals[:3])

    def test_same_series_diverges_archimedean(self):
        from zetaforge.resum import fps_hurwitz

        rows = fps_hurwitz(2, 0.2, 40)  # tau = 1/5 read as a real number
        terms = [abs(r["term"]) for r in rows]
        assert max(terms[30:]) > max(terms[:10]) > 0
        assert terms[-2] + terms[-1] > 1e6  # plainly divergent

    def test_normalization_factor_reported(self):
        rep = padic_divergence_report(2, F(2, 5), 5, 14)
        norm = rep["normalization"]
        # (tau/<tau>)^{1-n} = (p^v omega(u))^{1-n}: valuation +1 for n=2
        assert norm.val == 1

    def test_binomial_bridge_identity(self):
        # B_k C(1-s, k)/(s-1) is the formal-series coefficient
        # (-1)^k B_k (k+s-2)!/(k! (s-1)!), integer s >= 2: the p-adic
        # series' binomials and the real series' coefficients agree
        from zetaforge.exact import _fps_coeff, bernoulli_number

        for s in range(2, 8):
            binom = F(1)  # C(1-s, k), as a falling product over k!
            for k in range(41):
                assert bernoulli_number(k) * binom / (s - 1) == _fps_coeff(k, s), (s, k)
                binom *= F(1 - s - k, k + 1)
