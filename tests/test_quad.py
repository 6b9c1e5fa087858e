"""Tests for the adaptive 21-point Gauss-Kronrod quadrature (zetaforge._quad):
the rule's constants, closed forms with honest error estimates, and
agreement with scipy.integrate.quad (a test oracle only) on the Borel and
Mellin integrands."""

import math
import sys

import numpy as np
import pytest
from scipy import integrate

from zetaforge._quad import _WG, _XGK, QuadratureFailure, _gk21, quad
from zetaforge.resum import _borel_series, borel_transform_hurwitz


def qho_partition(t: float) -> float:
    return math.exp(-t / 2) / -math.expm1(-t)


class TestRule:
    def test_exact_for_degree_31(self):
        for k in range(32):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            value = _gk21(lambda x: x**k, -1.0, 1.0)[0]
            assert abs(value - exact) <= 4e-16, k

    def test_gauss_part_is_leggauss_10(self):
        x, w = np.polynomial.legendre.leggauss(10)
        nodes = np.array(_XGK[1:10:2])
        np.testing.assert_allclose(np.sort(np.concatenate([-nodes, nodes])), x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.array(_WG), w[5:][::-1], rtol=0, atol=1e-15)


def _gamma_integrand(s):
    # t^{s-1} e^{-t} on [0, inf) with t = u/(1-u), dt = du/(1-u)^2
    def f(u):
        t = u / (1.0 - u)
        return t ** (s - 1.0) * math.exp(-t) / (1.0 - u) ** 2

    return f


CLOSED_FORMS = [
    ("sin", math.sin, 0.0, math.pi, 2.0),
    ("sqrt", math.sqrt, 0.0, 1.0, 2.0 / 3.0),
    ("log", math.log, 0.0, 1.0, -1.0),
    ("inv-sqrt", lambda x: x**-0.5, 0.0, 1.0, 2.0),
    ("arctan", lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4),
    ("peak", lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0, 100.0 * (math.atan(70) + math.atan(30))),
    ("reversed", math.exp, 1.0, 0.0, 1.0 - math.e),
]
CLOSED_FORMS += [
    (f"gamma({s})", _gamma_integrand(s), 0.0, 1.0, math.gamma(s)) for s in (0.5, 1.5, 2.5, 4.0, 7.25)
]


@pytest.mark.parametrize("name,f,a,b,exact", CLOSED_FORMS, ids=[c[0] for c in CLOSED_FORMS])
def test_closed_forms_within_abserr(name, f, a, b, exact):
    value, abserr = quad(f, a, b, epsabs=1e-12)
    assert abs(value - exact) <= abserr
    assert abserr <= 1e-6 * max(1.0, abs(exact))


def test_polynomial_takes_one_rule():
    calls = []

    def f(x):
        calls.append(x)
        return x**5 - 3.0 * x**2

    assert quad(f, 0.0, 2.0, epsabs=1e-12) == _gk21(f, 0.0, 2.0)[:2]
    assert len(calls) == 2 * 21


HALF_LINE = [
    # int_1^inf g(t) e^{-rate t} dt in closed form
    ("exp", lambda t: 1.0, 2.0, math.exp(-2.0) / 2.0),
    ("t-exp", lambda t: t, 0.5, math.exp(-0.5) * (1.0 / 0.5 + 1.0 / 0.5**2)),
    ("t2-exp", lambda t: t * t, 3.0, math.exp(-3.0) * (1.0 / 3.0 + 2.0 / 9.0 + 2.0 / 27.0)),
    ("inverse-square", lambda t: t**-2.0, 0.0, 1.0),
]


@pytest.mark.parametrize("name,g,rate,exact", HALF_LINE, ids=[c[0] for c in HALF_LINE])
def test_half_line_closed_forms(name, g, rate, exact):
    # [1, inf) mapped onto [1/2, 1) by t = u/(1-u), dt = du/(1-u)^2, as
    # spectral_zeta_mellin maps its upper piece
    def f(u):
        t = u / (1.0 - u)
        return g(t) * math.exp(-rate * t) / (1.0 - u) ** 2

    value, abserr = quad(f, 0.5, 1.0, epsabs=1e-12)
    assert abs(value - exact) <= max(abserr, 1e-15 * exact)
    assert abserr <= 1e-8 * exact


STOPS = [
    ("divergent", lambda x: 1.0 / x, 0.0, 1.0, 1e-12, "limit of 200"),
    ("oscillating", lambda x: math.sin(1.0 / x) / x, 1e-6, 1.0, 1e-12, "limit of 200"),
    ("near-underflow", lambda x: 1.0 / x, 0.0, 1e-300, 1e-12, "cannot be split"),
    # a zero integral asked for below the 50 eps int|f| roundoff floor
    ("below-roundoff", math.sin, 0.0, 2.0 * math.pi, 1e-20, "roundoff"),
]


@pytest.mark.parametrize("name,f,a,b,epsabs,reason", STOPS, ids=[c[0] for c in STOPS])
def test_stopping_short_warns(name, f, a, b, epsabs, reason):
    # stopping short raises QuadratureFailure, whose message names the
    # reason and an error estimate above epsabs
    with pytest.raises(QuadratureFailure, match=reason) as failure:
        quad(f, a, b, epsabs=epsabs)
    estimate = float(str(failure.value).split()[2])
    assert estimate > epsabs


# The integrands of resum and spectra, written out again: the Laplace
# integral of the Borel transform below and above t = 1 (mapped by
# t = 1 + u/(1-u)), its fractional-order form on [0, 5], and the Mellin
# integral of the oscillator partition function as spectral_zeta_mellin
# forms it: t = (2u)^m on [u0, 1/2], with m = max(2, 1/(s-1)) and
# t0 = (2 u0)^m = sqrt of the smallest double, and t = u/(1-u) on [1/2, 1),
# each node exp(s ln t - tau t + ln(Z(t) d(ln t)/du)), and 0 where Z has
# underflowed.
def _borel_low(n, z):
    return lambda t: math.exp(-t / z) * borel_transform_hurwitz(n, t)


def _borel_high(n, z):
    def f(u):
        t = 1.0 + u / (1.0 - u)
        if t / z > 745.0:
            return 0.0
        return math.exp(-t / z) * borel_transform_hurwitz(n, t) / (1.0 - u) ** 2

    return f


def _borel_fractional(s):
    return lambda t: math.exp(-t / 0.3) * _borel_series(s, t)


def _mellin_m(s):
    return max(2.0, 1.0 / (s - 1.0))


def _mellin_u0(s):
    return 0.5 * math.sqrt(sys.float_info.min) ** (1.0 / _mellin_m(s))


def _mellin_node(s, tau, t, jac):
    z = qho_partition(t)  # zero where it has underflowed
    return math.exp(s * math.log(t) - tau * t + math.log(jac * z)) if z else 0.0


def _mellin_low(s, tau):
    m = _mellin_m(s)
    return lambda u: _mellin_node(s, tau, (2.0 * u) ** m, m / u)


def _mellin_high(s, tau):
    return lambda u: _mellin_node(s, tau, u / (1.0 - u), 1.0 / (u * (1.0 - u)))


INTEGRANDS = (
    [(f"borel-low-{n}-{z}", _borel_low(n, z), 0.0, 1.0) for n in (2, 4) for z in (0.2, 1.0)]
    + [(f"borel-high-{n}-{z}", _borel_high(n, z), 0.0, 1.0) for n in (2, 4) for z in (0.2, 1.0)]
    + [(f"borel-fractional-{s}", _borel_fractional(s), 0.0, 5.0) for s in (1.2, 1.7)]
    + [
        (f"mellin-low-{s}-{tau}", _mellin_low(s, tau), _mellin_u0(s), 0.5)
        for s in (1.05, 1.2, 1.5, 2, 3)
        for tau in (0.0, 2.0)
    ]
    + [(f"mellin-high-{s}-{tau}", _mellin_high(s, tau), 0.5, 1.0) for s in (2.0, 3.0) for tau in (0.5, 2.0)]
)


@pytest.mark.parametrize("name,f,a,b", INTEGRANDS, ids=[i[0] for i in INTEGRANDS])
def test_agrees_with_scipy_quad(name, f, a, b):
    value, abserr = quad(f, a, b, epsabs=1e-12)
    ref, ref_err = integrate.quad(f, a, b, epsabs=1e-12, limit=200)
    assert abs(value - ref) <= abserr + ref_err
