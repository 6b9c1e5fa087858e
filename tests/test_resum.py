"""Divergent-series machinery: iterated-integral coefficients, formal
traces, Borel transforms and sums (integer and fractional order)."""

import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from zetaforge import cli, resum, specval, spectra
from zetaforge.exact import _fps_coeff
from zetaforge.resum import (
    BorelReport,
    OutOfStrip,
    a_nj_closed,
    borel_seam_gap,
    borel_sum_complex_s,
    borel_sum_hurwitz,
    borel_transform_hurwitz,
    fps_hurwitz,
    fps_ncho,
    fps_qrm,
)

F = Fraction


class TestIteratedIntegralCoefficients:
    def test_closed_values(self):
        assert abs(a_nj_closed(2, 1, 3.0) - 1.0 / 9.0) < 1e-15
        assert abs(a_nj_closed(3, 0, 2.0) - 1.0 / 8.0) < 1e-15
        assert abs(a_nj_closed(2, 2, 1.0) - 2.0) < 1e-15

    @pytest.mark.parametrize("n,j", [(2, 1), (3, 1), (2, 2)])
    def test_nested_integral_oracle(self, n, j):
        # literal nested quadrature of the defining iterated integral
        tau = 1.7

        def innermost(t1):
            val, _ = integrate.quad(
                lambda w: w ** (j - 1) * math.exp(-tau * w), t1, np.inf
            )
            return val

        if n == 2:
            val, _ = integrate.quad(innermost, 0, np.inf)
        else:  # n = 3

            def mid(t2):
                v, _ = integrate.quad(innermost, t2, np.inf)
                return v

            val, _ = integrate.quad(mid, 0, np.inf)
        assert abs(val - a_nj_closed(n, j, tau)) < 1e-8, (n, j)

    def test_telescoping_to_partial_zeta(self):
        # sum_{k<=M} A^(n)_1(k+tau) = sum_{k<=M} (k+tau)^{-n}
        tau, n, M = 0.75, 3, 40
        lhs = math.fsum(a_nj_closed(n, 1, k + tau) for k in range(M + 1))
        rhs = math.fsum((k + tau) ** -n for k in range(M + 1))
        assert abs(lhs - rhs) < 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            a_nj_closed(1, 1, 2.0)
        with pytest.raises(ValueError):
            a_nj_closed(2, 1, 0.0)


class TestFormalSeriesTraces:
    def test_asymptotic_window_then_divergence(self):
        rows = fps_hurwitz(2, 10.0, 160)
        target = float(specval.hurwitz_zeta_num(2, 10.0))
        best = min(abs(r["partial_sum"] - target) for r in rows)
        assert best < 1e-12
        terms = [abs(r["term"]) for r in rows]
        assert terms[160] > terms[100] > 0

    def test_terms_are_the_rounded_exact_products_past_float_range(self):
        # from k = 260 the coefficient B_k alone overflows a float, while
        # every term at tau = 10 stays finite (about 2e74 at k = 300)
        rows = fps_hurwitz(2, 10.0, 300)
        for r in rows:
            k = r["k"]
            assert r["term"] == float(_fps_coeff(k, 2) * Fraction(1, 10) ** (k + 1)), k
        assert all(math.isfinite(r["partial_sum"]) for r in rows)

    def test_cli_trace_past_float_range_of_the_coefficients(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["--no-meta", "--format", "csv", "divergence", "--n", "2", "--tau", "10", "--K", "300"])
        assert code == 0
        assert len(buf.getvalue().splitlines()) == 302  # header and k = 0..300

    def test_cli_trace_at_a_tau_that_is_not_dyadic_is_exact(self):
        # a float 1/3 put the rounded tau into the exact product: the k = 1
        # term read 4.500000000000001
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["--no-meta", "divergence", "--n", "2", "--tau", "1/3", "--K", "40"])
        assert code == 0
        rows = json.loads(buf.getvalue())
        assert [r["k"] for r in rows] == list(range(41))
        for r in rows:
            k = r["k"]
            assert r["term"] == float(_fps_coeff(k, 2) * 3 ** (k + 1)), k

    def test_divergence_at_moderate_tau(self):
        rows = fps_hurwitz(2, 2.0, 60)
        terms = [abs(r["term"]) for r in rows]
        assert terms[60] > terms[30] > terms[14] > 0

    def test_leading_term(self):
        for n in (2, 3, 5):
            rows = fps_hurwitz(n, 4.0, 2)
            assert abs(rows[0]["term"] - 1.0 / ((n - 1) * 4.0 ** (n - 1))) < 1e-15

    def test_asymptotic_error_slope(self):
        # for fixed K the truncation error decays like tau^{-(K+n)}
        n, K = 2, 4
        errs = []
        taus = [5.0, 10.0, 20.0, 40.0]
        for tau in taus:
            rows = fps_hurwitz(n, tau, K)
            target = float(specval.hurwitz_zeta_num(n, tau))
            errs.append(abs(rows[-1]["partial_sum"] - target))
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        # B_{K+1} = B_5 = 0, so the first surviving omitted term is k = K+2
        # and the slope can sit one below -(K+n); accept either regime
        assert slope <= -(K + n) + 0.4

    def test_qrm_trace_leading_and_reduction(self):
        rb = [1.0, -0.59, 0.35]  # RB_k(0) for g^2=0.09, d^2=0.25 (k<=2)
        rows = fps_qrm(3, 5.0, rb)
        assert abs(rows[0]["term"] - 2.0 / (2 * 25.0)) < 1e-15
        # g = delta = 0: coefficients are plain Bernoulli numbers
        from zetaforge.exact import bernoulli_number

        rbb = [float(bernoulli_number(k)) for k in range(6)]
        rows0 = fps_qrm(2, 10.0, rbb)
        rowsH = fps_hurwitz(2, 10.0, 5)
        for a, b in zip(rows0, rowsH):
            assert abs(a["term"] - 2 * b["term"]) < 1e-15

    def test_qrm_asymptotic_match(self):
        q = spectra.QrmParams(0.3, 0.5)
        spec = spectra.qrm_eigs(q, N=512, count=200, threshold=1e-4)
        rb1 = spectra.rabi_bernoulli_exact(1).evaluate_float(0.0, 0.09, 0.25)
        rb2 = spectra.rabi_bernoulli_exact(2).evaluate_float(0.0, 0.09, 0.25)
        errs = []
        taus = [10.0, 20.0, 40.0]
        for tau in taus:
            rows = fps_qrm(3, tau, [1.0, rb1, rb2])
            ref, _ = spectra.spectral_zeta_direct(spec, 3.0, tau)
            errs.append(abs(rows[-1]["partial_sum"] - ref) / abs(ref))
        # relative error O(tau^{-3})
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert slope <= -2.5

    def test_ncho_series_from_fit(self):
        p = spectra.NchoParams(2.0, 1.0)
        spec = spectra.ncho_eigs(p, N=512, count=120, threshold=1e-6)
        Z = spectra.partition_callable(spec)
        fit = spectra.heat_trace_fit(Z, np.linspace(0.15, 1.0, 20))
        out = fps_ncho(2, 20.0, fit, K=2)
        assert out["label"] == "conjecture-support"
        lead = out["trace"][0]["term"]
        assert abs(lead - fit.c_minus1 / (1 * 20.0)) < 1e-15
        # K = 1 truncation vs the Weyl-completed spectral value at tau = 20
        # (the two-sided bracket is too loose at this shift; the residue-
        # density completion is accurate to local counting fluctuations)
        ref = spectra.spectral_zeta_weyl(spec, 2.0, 20.0)
        assert abs(out["trace"][1]["partial_sum"] - ref) / ref < 1e-2

    def test_sqrt2_reduction_matches_qho_series(self):
        # alpha = beta = sqrt2: coefficients are 2 x the unit-oscillator ones
        p = spectra.NchoParams(math.sqrt(2), math.sqrt(2))
        spec = spectra.ncho_eigs(p, N=512, count=120, threshold=1e-6)
        fit = spectra.heat_trace_fit(
            spectra.partition_callable(spec), np.linspace(0.15, 1.0, 20)
        )
        from zetaforge.exact import bernoulli_poly

        out = fps_ncho(2, 10.0, fit, K=2)
        # the doubled unit oscillator has exact coefficients B_k(1/2), so the
        # fitted series must coincide with the qrm-style series fed those
        qho = [float(bernoulli_poly(k, F(1, 2))) for k in range(3)]
        rows_ref = fps_qrm(2, 10.0, qho)
        for a, b in zip(out["trace"], rows_ref):
            assert abs(a["term"] - b["term"]) < 5e-3 * max(1.0, abs(b["term"]))


class TestBorelTransform:
    def test_small_t_limit(self):
        assert abs(borel_transform_hurwitz(2, 1e-12) - 1.0) < 1e-9
        assert borel_transform_hurwitz(3, 0.0) == 0.5

    def test_n2_closed_form(self):
        for t in (0.6, 1.0, 3.0):
            assert abs(borel_transform_hurwitz(2, t) - t / -math.expm1(-t)) < 1e-13

    def test_n3_derivative_oracle(self):
        # (1/2!) d/dt [t^2/(1-e^{-t})] by central differences
        for t0 in (0.7, 1.0, 2.0):
            h = 1e-6
            f = lambda t: t * t / -math.expm1(-t)
            num = (f(t0 + h) - f(t0 - h)) / (2 * h * 2.0)
            assert abs(borel_transform_hurwitz(3, t0) - num) < 1e-8

    def test_n4_second_derivative_oracle(self):
        for t0 in (0.8, 1.5):
            h = 1e-4
            f = lambda t: t**3 / -math.expm1(-t)
            num = (f(t0 + h) - 2 * f(t0) + f(t0 - h)) / (h * h * 6.0)
            assert abs(borel_transform_hurwitz(4, t0) - num) < 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_branch_seam(self, n):
        assert borel_seam_gap(n) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_series_below_seam(self, n):
        # below t = 1/2 the transform is the Bernoulli series in log space;
        # both the exponential sum and the series on the exact coefficients
        # _fps_coeff(k, n)/k! summed in floats must agree with it
        def exact_coefficient_series(t):
            total, k = 0.0, 0
            while True:
                term = float(_fps_coeff(k, n)) / math.factorial(k) * t**k
                total += term
                if k > 4 and term != 0.0 and abs(term) < 1e-18 * max(1.0, abs(total)):
                    return total
                k += 1

        for t in np.linspace(0.05, 0.5, 46):
            t = float(t)
            value = borel_transform_hurwitz(n, t)
            assert abs(value - resum._borel_large_t(n, t)) <= 1e-14 * abs(value), t
            assert abs(value - exact_coefficient_series(t)) <= 1e-14 * abs(value), t


class TestBorelSum:
    def test_reference_value_z_third(self):
        rep = borel_sum_hurwitz(2, 1.0 / 3.0)
        assert rep.agreement
        assert abs(rep.borel_sum - 3 * (math.pi**2 / 6 - 1.25)) < 1e-8

    def test_zeta3_at_unit(self):
        rep = borel_sum_hurwitz(3, 1.0)
        assert abs(rep.borel_sum - 1.2020569031595942854) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("z", [1.0, 0.5, 1.0 / 3.0, 0.2])
    def test_matches_hurwitz_oracle(self, n, z):
        rep = borel_sum_hurwitz(n, z)
        assert rep.agreement
        assert abs(rep.borel_sum - rep.reference_value) < 1e-8

    def test_leading_behavior_small_z(self):
        for z in (0.1, 0.05):
            rep = borel_sum_hurwitz(2, z)
            assert abs(rep.borel_sum - 1.0) < z  # 1 + z/2 + O(z^2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("z", [1e3, 1e6, 1e9, 1e12])
    def test_large_z_estimate_covers_the_error(self, n, z):
        # the weight e^{-t/z} has its mass at t ~ z: one map of [1, inf)
        # onto [0, 1] read 999999987.22 at n = 2, z = 1e9, with an estimate
        # of 2.2 against an error of 12.8, and raised at z = 1e12
        rep = borel_sum_hurwitz(n, z)
        true = z + z ** (1 - n) * specval.hurwitz_zeta_num(n, 1.0 + 1.0 / z)
        assert abs(rep.borel_sum - true) <= rep.quadrature_error <= rep.tolerance
        assert rep.agreement

    def test_report_schema(self):
        d = cli._jsonify(borel_sum_hurwitz(2, 0.5))
        assert set(d) >= {
            "z",
            "borel_sum",
            "quadrature_error",
            "reference_value",
            "agreement",
        }


class TestBorelFractional:
    def test_two_route_agreement(self):
        rep = borel_sum_complex_s(1.5, 0.2)
        assert rep.agreement
        assert abs(rep.borel_sum - rep.reference_value) < 1e-6

    @pytest.mark.parametrize("s", [1.25, 1.5, 1.75])
    def test_real_output_across_strip(self, s):
        rep = borel_sum_complex_s(s, 0.3)
        assert isinstance(rep.borel_sum, float)
        assert rep.agreement

    def test_near_one_probe_bounded(self):
        # the product (s-1) B(z) stays bounded as s -> 1+; diagnostic only
        vals = [(s - 1) * borel_sum_complex_s(s, 0.1).borel_sum for s in (1.2, 1.1, 1.05)]
        assert all(0.1 < v < 5.0 for v in vals)

    @pytest.mark.parametrize("s", [1.05, 1.2, 1.5, 1.8, 1.95])
    @pytest.mark.parametrize("z", [0.1, 0.3, 0.5])
    def test_xroute_substitution_matches_qaws(self, s, z):
        # the endpoint weight x^{s-2} (1-x)^{1-s} integrated by QUADPACK's
        # algebraic-weight rule (QAWS) is the oracle for the change of variables
        def g(x):
            return z if x <= 0.0 else float(specval.hurwitz_zeta_num(2, 1.0 / (x * z))) / x

        ref, _ = integrate.quad(
            g, 0.0, 1.0, weight="alg", wvar=(s - 2.0, 1.0 - s), epsabs=1e-12, limit=200
        )
        ref *= math.sin(math.pi * s) / (z * math.pi * (1.0 - s))
        value, err = resum._borel_sum_fractional_xroute(s, z)
        gap = abs(value - ref)
        assert gap <= 1e-10
        assert err >= gap

    def test_out_of_strip(self):
        with pytest.raises(OutOfStrip):
            borel_sum_complex_s(2.5, 0.2)
        with pytest.raises(OutOfStrip):
            borel_sum_complex_s(1.5 + 0.3j, 0.2)
        with pytest.raises(OutOfStrip):
            borel_sum_complex_s(1.0, 0.2)
