"""Series engine: operators, hypergeometric coefficients, eta/theta
q-expansions and the modular identity for the weight-one generating
function."""

from fractions import Fraction

import pytest

from zetaforge import aperynum, cli, series
from zetaforge.series import (
    EXACT_BOUND,
    GRID,
    NonvanishingInnerConstant,
    OrderTooSmall,
    PoleInCoefficient,
    QSeries,
    apply_ladder_D,
    apply_picard_fuchs_L,
    compose_series,
    eta_qseries,
    hauptmodul_consistency_report,
    hauptmodul_theta_form,
    hauptmodul_z,
    hypergeom_2f1_series,
    jacobi_theta_identity_check,
    power_series,
    theta_qseries,
    verify_w2_identity,
    w2_hypergeometric_form,
)

F = Fraction


def dense(s: QSeries) -> list:
    """The coefficients of z^0 .. z^n of a power series trusted through z^n."""
    return [s.coefficient(n) for n in range(s.max24 // GRID + 1)]


def euler_product_eta(scale: int, max24: int) -> dict:
    """Brute-force q^{m/24} prod (1 - q^{mn}) expansion: the oracle for the
    pentagonal-number series."""
    prod = {0: F(1)}
    n = 1
    while scale * 24 * n <= max24:
        nxt = dict(prod)
        for e, c in prod.items():
            e2 = e + 24 * scale * n
            if e2 <= max24:
                nxt[e2] = nxt.get(e2, F(0)) - c
        prod = nxt
        n += 1
    return {e + scale: c for e, c in prod.items() if e + scale <= max24 and c != 0}


class TestPowerSeries:
    def test_mul_truncates_to_min_order(self):
        a = power_series((1, 1, 1))
        b = power_series((1, 2))
        assert (a * b).max24 == GRID
        assert dense(a * b) == [1, 3]

    def test_mul_by_exact_z_gains_one_order(self):
        # z (1 + z + z^2 + O(z^3)) is exact through z^3
        a = power_series((1, 1, 1))
        out = a * QSeries({GRID: 1}, EXACT_BOUND)
        assert out.max24 == 3 * GRID
        assert dense(out) == [0, 1, 1, 1]

    def test_differentiate(self):
        a = power_series((5, 3, 2, 7))
        assert a.differentiate().max24 == 2 * GRID
        assert dense(a.differentiate()) == [3, 4, 21]

    def test_differentiate_fractional_exponent(self):
        # d/dq q^{1/2} = (1/2) q^{-1/2}, trusted one whole step less
        d = QSeries({GRID // 2: 1}, 2 * GRID).differentiate()
        assert d.coeffs == {-GRID // 2: F(1, 2)}
        assert d.max24 == GRID
        assert d.coefficient(F(-1, 2)) == F(1, 2)

    def test_compose_requires_zero_constant(self):
        outer = power_series((1, 1))
        with pytest.raises(NonvanishingInnerConstant):
            compose_series(outer, power_series((1, 1)))

    def test_json_entries(self):
        a = power_series((F(1, 2), 0, F(3)))
        assert a.entries() == [
            {"exponent": F(0), "coefficient": F(1, 2)},
            {"exponent": F(2), "coefficient": F(3)},
        ]
        assert cli._jsonify(a.entries()) == [
            {"exponent": "0", "coefficient": "1/2"},
            {"exponent": "2", "coefficient": "3"},
        ]


class TestLadderOperator:
    def test_constant(self):
        out = apply_ladder_D(power_series((F(5), 0, 0, 0, 0)))
        assert out.max24 == 2 * GRID
        assert dense(out) == [F(-15, 4), F(5), F(0)]

    def test_annihilates_tj2_series(self):
        f = power_series(aperynum.tj_table(2, 42))
        img = apply_ladder_D(f)
        assert img.max24 == 40 * GRID
        assert img.is_zero()

    def test_maps_j3_series_to_j1_series(self):
        # the rational J3 component is tJ3; the zeta(3,1/2) component is
        # 2 tJ2 and dies under D, so D acts componentwise
        tj3 = power_series(aperynum.tj_table(3, 26))
        img = apply_ladder_D(tj3)
        expected = [aperynum.aperylike_J(1, n).get("ONE") for n in range(img.max24 // GRID + 1)]
        assert dense(img) == expected
        assert apply_ladder_D(power_series(aperynum.tj_table(2, 26))).is_zero()

    @pytest.mark.parametrize("k", [4, 6])
    def test_even_ladder_steps_down(self, k):
        # D(sum tJ_k z^n) = sum tJ_{k-2} z^n through order 40
        src = power_series(aperynum.tj_table(k, 42))
        img = apply_ladder_D(src)
        tgt = aperynum.tj_table(k - 2, 40)
        assert dense(img) == tgt

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            apply_ladder_D(power_series((1, 2)))


class TestPicardFuchs:
    def test_constant_and_linear(self):
        assert dense(apply_picard_fuchs_L(power_series((1, 0, 0, 0, 0)))) == [0, 1, 0]
        T = power_series((0, 1, 0, 0, 0))
        assert dense(apply_picard_fuchs_L(T)) == [-1, 0, 4]

    def test_annihilates_squared_argument_hypergeometric(self):
        f = hypergeom_2f1_series(F(1, 2), F(1, 2), 1, 30)
        sq = QSeries({2 * e: c for e, c in f.coeffs.items()}, 2 * f.max24)
        img = apply_picard_fuchs_L(sq)
        assert img.max24 == 58 * GRID
        assert img.is_zero()


class TestHypergeometric:
    def test_coefficient_examples(self):
        h = hypergeom_2f1_series(1, 1, F(3, 2), 2)
        assert dense(h) == [1, F(2, 3), F(8, 15)]
        h2 = hypergeom_2f1_series(F(1, 2), F(1, 2), 1, 2)
        assert dense(h2) == [1, F(1, 4), F(9, 64)]
        assert dense(hypergeom_2f1_series(3, 4, 5, 0)) == [1]

    def test_central_binomial_form(self):
        # [z^n] 2F1(1/2,1/2;1;z) = (C(2n,n)/4^n)^2
        from math import comb

        h = hypergeom_2f1_series(F(1, 2), F(1, 2), 1, 10)
        assert h.max24 == 10 * GRID
        for n, c in enumerate(dense(h)):
            assert c == F(comb(2 * n, n), 4**n) ** 2

    def test_pole_in_coefficient(self):
        with pytest.raises(PoleInCoefficient):
            hypergeom_2f1_series(1, 1, -2, 5)


class TestEta:
    def test_pentagonal_vs_euler_product(self):
        for scale in (1, 2, 4):
            got = eta_qseries(scale, 1, F(240, 24))
            assert got.coeffs == euler_product_eta(scale, 240)

    def test_leading_terms(self):
        e = eta_qseries(1, 1, 3)
        assert e.leading() == (F(1, 24), 1)
        assert e.coefficient(F(25, 24)) == -1
        e2 = eta_qseries(2, 1, 3)
        assert e2.leading() == (F(2, 24), 1)
        assert e2.coefficient(F(2 + 48, 24)) == -1

    def test_zeroth_power(self):
        e = eta_qseries(3, 0, 5)
        assert e.coefficient(0) == 1 and len(e.coeffs) == 1

    @pytest.mark.parametrize(
        "powers", [{4: 6}, {2: 4, 4: 4}, {1: 8, 4: 16, 2: -24}, {2: 22, 1: -12, 4: -8}]
    )
    def test_inverse_times_series_is_one(self, powers):
        s = series.eta_product_qseries(powers, 12)
        prod = s * s.inverse()
        assert prod.max24 == s.max24 - s.min24
        assert prod.coeffs == {0: 1}

    def test_integral_coefficients_stored_as_int(self):
        e = eta_qseries(1, -3, 4)
        assert all(type(c) is int for c in e.coeffs.values())
        assert type(e.coefficient(F(1, 8))) is Fraction
        assert type(e.leading()[1]) is Fraction

    def test_inverse_power_roundtrip(self):
        for e in (1, -1, 6, -6):
            a = eta_qseries(2, e, 8)
            b = eta_qseries(2, -e, 8)
            prod = a * b
            assert prod.coefficient(0) == 1
            assert all(c == 0 for ex, c in prod.coeffs.items() if ex != 0)


class TestTheta:
    def test_theta3(self):
        t = theta_qseries(3, 5)
        assert t.coefficient(0) == 1
        assert t.coefficient(F(1, 2)) == 2
        assert t.coefficient(2) == 2
        assert t.coefficient(F(9, 2)) == 2
        assert t.coefficient(1) == 0

    def test_theta4_signs(self):
        t = theta_qseries(4, 5)
        assert t.coefficient(F(1, 2)) == -2
        assert t.coefficient(2) == 2

    def test_theta2(self):
        t = theta_qseries(2, 5)
        assert t.coefficient(F(1, 8)) == 2
        assert t.coefficient(F(9, 8)) == 2
        assert t.coefficient(0) == 0

    def test_jacobi_identity(self):
        assert jacobi_theta_identity_check(12) is None

    def test_zero_factor_keeps_its_bound(self):
        # theta2 through q^{1/24} has no terms yet: its fourth power is not
        # known at q^{1/2}, where the true coefficient is 16
        with pytest.raises(IndexError):
            theta_qseries(2, F(1, 24)).pow(4).coefficient(F(1, 2))
        assert theta_qseries(2, 1).pow(4).coefficient(F(1, 2)) == 16
        empty = QSeries({}, 5)
        assert (empty * empty).max24 == 10
        assert (empty * theta_qseries(3, 2)).max24 == 5
        assert (theta_qseries(2, 2) * empty).max24 == 8


class TestHauptmodul:
    def test_eta_form_leading(self):
        z = hauptmodul_z(6)
        exp, coeff = z.leading()
        assert exp == 1 and coeff == 1

    def test_theta_form_leading(self):
        zt = hauptmodul_theta_form(4)
        exp, coeff = zt.leading()
        assert exp == F(1, 2) and coeff == -16

    def test_forms_disagree_as_printed(self):
        rep = hauptmodul_consistency_report(4)
        assert rep["agree_as_printed"] is False
        assert rep["value_at_q0"] == "0"


class TestCompose:
    def test_identity_outer(self):
        inner = eta_qseries(1, 8, 6)
        outer = power_series((0, 1, 0, 0, 0, 0))
        out = compose_series(outer, inner)
        bound = min(out.max24, inner.max24)
        assert out.truncate(bound).coeffs == inner.truncate(bound).coeffs

    def test_affine_outer(self):
        inner = QSeries({24: F(1)}, 24 * 6)
        out = compose_series(power_series((1, 1, 0)), inner)
        assert out.coefficient(0) == 1 and out.coefficient(1) == 1

    def test_respects_multiplication(self):
        f = power_series((1, 2, F(1, 3), 0, 5))
        g = power_series((2, 0, 1, 4, 0))
        h = hauptmodul_z(4)
        lhs = compose_series(f * g, h)
        rhs = compose_series(f, h) * compose_series(g, h)
        bound = min(lhs.max24, rhs.max24)
        assert lhs.truncate(bound).first_difference(rhs.truncate(bound)) is None

    def test_rejects_constant_term(self):
        with pytest.raises(NonvanishingInnerConstant):
            compose_series(power_series((1, 1)), QSeries({0: F(1)}, 48))

    @pytest.mark.parametrize("exponent", [GRID // 2, -GRID])
    def test_rejects_outer_off_whole_exponents(self, exponent):
        # outer(inner) reads outer's coefficients at whole powers only; a
        # term at q^{1/2} or q^{-1} would be dropped without a word
        outer = QSeries({0: 1, exponent: 1}, 4 * GRID)
        with pytest.raises(ValueError, match="outer"):
            compose_series(outer, hauptmodul_z(4))


class TestW2Identity:
    def test_hypergeometric_intermediate_form(self):
        # (1/(1-z)) 2F1(1/2,1/2;1;z/(z-1)) = sum tJ2(n) z^n through order 40
        w = w2_hypergeometric_form(40)
        assert w.max24 == 40 * GRID
        assert dense(w) == aperynum.tj_table(2, 40)

    def test_identity_matches_under_exactly_one_convention(self):
        rep = verify_w2_identity(10)
        assert rep.matched
        assert rep.convention_used == "eta-times-16"
        assert sum(1 for v in rep.variants if v["matched"]) == 1

    def test_report_pinned_at_q36(self):
        assert cli._jsonify(verify_w2_identity(36)) == {
            "matched": True,
            "convention_used": "eta-times-16",
            "first_mismatch": None,
            "max_exponent": "36",
            "variants": [
                {"label": "eta-as-printed", "matched": False, "first_mismatch": "1", "checked_through": "36"},
                {"label": "eta-times-16", "matched": True, "first_mismatch": None, "checked_through": "36"},
                {"label": "eta-negated", "matched": False, "first_mismatch": "1", "checked_through": "36"},
                {"label": "eta-negated-times-16", "matched": False, "first_mismatch": "1", "checked_through": "36"},
            ],
        }

    def test_normalized_constant_terms(self):
        rhs = series.eta_product_qseries({2: 22, 1: -12, 4: -8}, 4)
        assert rhs.coefficient(0) == 1
        assert aperynum.aperylike_tJ(2, 0) == 1
