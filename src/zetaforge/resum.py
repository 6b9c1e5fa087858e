"""Divergent-series machinery: iterated-integral coefficients, formal power
series traces for Hurwitz-type zeta values, Borel transforms and sums.

The formal series

    zeta(n, tau) "=" sum_k (-1)^k B_k/k! * (k+n-2)!/(n-1)! * tau^{-(k+n-1)}

diverges for every tau (factorial growth beats the Bernoulli decay), so the
builders here return full term-magnitude ledgers and never claim
convergence.  The Borel transform of the associated series in z = 1/tau is
entire-enough along the positive axis, and its Laplace integral recovers
z^{1-n} zeta(n, 1/z).  The transform is one Bernoulli series for every real
order s > 1, used below t = 1/2; at integer order the termwise
differentiated exponential sum takes over above t = 1/2 and is checked
against the series at that seam.  Both the transform and the sum (split
adaptive quadrature) are implemented with explicit error control.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import Record, Uncertified
from ._quad import quad
from .exact import _fps_coeff, bernoulli_number
from .specval import hurwitz_zeta_num

__all__ = [
    "QuadratureFailure",
    "OutOfStrip",
    "BorelReport",
    "a_nj_closed",
    "fps_hurwitz",
    "fps_qrm",
    "fps_ncho",
    "borel_transform_hurwitz",
    "borel_sum_hurwitz",
    "borel_sum_complex_s",
]


class QuadratureFailure(Uncertified):
    """Laplace quadrature failed to converge."""


class OutOfStrip(ValueError):
    """s outside the real strip 1 < s < 2 handled by the fractional route."""


class BorelReport(Record):
    """A Borel sum at z and its quadrature error against a reference value."""

    __slots__ = (
        "z", "borel_sum", "quadrature_error", "reference_value", "agreement", "tolerance", "method",
    )
    _defaults = {"method": ""}


def a_nj_closed(n: int, j: int, tau: float) -> float:
    """Iterated-integral coefficient A^(n)_j(tau) = ((j+n-2)!/(n-1)!) tau^{-(j+n-1)}
    for n >= 2, j >= 0, tau > 0."""
    if n < 2 or j < 0:
        raise ValueError("need n >= 2 and j >= 0")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return math.factorial(j + n - 2) / math.factorial(n - 1) * tau ** (-(j + n - 1))


def _trace(rule: Callable[[int], float], K: int) -> list:
    """Ledger [{k, term, partial_sum}], k = 0..K, of the formal series in
    1/tau whose k-th term is the float rule(k)."""
    rows = []
    partial = 0.0
    for k in range(K + 1):
        t = rule(k)
        partial += t
        rows.append({"k": k, "term": t, "partial_sum": partial})
    return rows


def _shifted_trace(n: int, tau: float, coeffs: Sequence[float], K: int) -> list:
    """_trace of 2 sum_k (-1)^k c_k (k+n-2)!/(k! (n-1)!) tau^{-(k+n-1)},
    that is 2 sum_k (-1)^k c_k/k! A^(n)_k(tau)."""
    if n < 2:
        raise ValueError("need n >= 2")

    def rule(k: int) -> float:
        return 2.0 * (-1.0) ** k * float(coeffs[k]) / math.factorial(k) * a_nj_closed(n, k, tau)

    return _trace(rule, K)


def fps_hurwitz(n: int, tau: Fraction, K: int) -> list:
    """Divergence trace of the formal series for zeta(n, tau).

    ``tau`` is a rational: a ``Fraction``, an int, or a float read as the
    binary fraction it holds, so each term is the exact rational term
    rounded once.  Returns [{k, term, partial_sum}] for k = 0..K.  The
    early partial sums approach zeta(n, tau) in the asymptotic window
    before the factorial growth takes over; no convergence is claimed.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if K < 1:
        raise ValueError("need K >= 1")

    tau_q = Fraction(tau)

    def rule(k: int) -> float:
        # exact product, one rounding: at n = 2 the coefficient alone
        # overflows a float from k = 260, where the term at tau = 10 is 2e48
        return float(_fps_coeff(k, n) / tau_q ** (k + n - 1))

    return _trace(rule, K)


def fps_qrm(n: int, tau: float, rb_values: Sequence[float]) -> list:
    """Divergence trace for the shifted Rabi-model zeta:

    2 sum_k (-1)^k rb_k/k! (k+n-2)!/(n-1)! tau^{-(k+n-1)},

    over every given rb_k, the Taylor coefficients of t Z(t)/2 at tau = 0
    (exact for k <= 2, numeric beyond).
    """
    return _shifted_trace(n, tau, rb_values, len(rb_values) - 1)


def fps_ncho(n: int, tau: float, fit, K: Optional[int] = None) -> dict:
    """Truncated formal series for the matrix-oscillator zeta built from a
    heat-trace fit: coefficients b_0 = c_{-1}/2, b_1 = 0, b_{2m} = (2m)! C_m / 2
    (odd coefficients beyond 1 vanish structurally).

    Output is labeled conjecture-support: it presumes the quasi-partition
    gives the partition function, which is unproven for this model.
    """
    coeffs = [fit.c_minus1 / 2.0, 0.0]
    for c in fit.odd_coeffs:
        k = len(coeffs)  # the next even index
        coeffs.append(math.factorial(k) * c / 2.0)
        coeffs.append(0.0)
    kmax = K if K is not None else len(coeffs) - 2
    return {"label": "conjecture-support", "trace": _shifted_trace(n, tau, coeffs, kmax)}


# ---------------------------------------------------------------------------
# Borel transform and sum for the Hurwitz family
# ---------------------------------------------------------------------------

_SEAM = 0.5


def _borel_series(s: float, t: float) -> float:
    """Bernoulli series of the Borel transform,
    sum_k (-1)^k B_k Gamma(k+s-1)/(Gamma(k+1)^2 Gamma(s)) t^k, for real
    s > 1 (at integer s = n the coefficients are _fps_coeff(k, n)/k!),
    convergent for |t| < 2 pi, summed over k < 400.

    Term magnitudes are assembled in log space (|B_k| grows factorially and
    would overflow double precision long before the partial sums settle
    near the radius)."""
    if t == 0.0:
        return 1.0 / (s - 1.0)
    total = 0.0
    lg_s = math.lgamma(s)
    log_t = math.log(t)
    for k in range(400):
        b = bernoulli_number(k)
        if b == 0:
            continue
        log_mag = (
            math.log(abs(b.numerator))
            - math.log(b.denominator)
            + math.lgamma(k + s - 1.0)
            - 2.0 * math.lgamma(k + 1.0)
            - lg_s
            + k * log_t
        )
        sign = (-1.0) ** k * (1.0 if b > 0 else -1.0)
        term = sign * math.exp(log_mag)
        total += term
        if k > 6 and abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    else:
        raise QuadratureFailure("Bernoulli series of the Borel transform did not converge")
    return total


def _borel_large_t(n: int, t: float) -> float:
    """Exponential-sum branch:
    (1/(n-1)!) d^{n-2}/dt^{n-2} [ t^{n-1} / (1 - e^{-t}) ]
    with the geometric series differentiated termwise."""
    # k = 0 contributes t; k >= 1 terms decay like e^{-kt}
    total = t
    i_range = range(0, n - 1)  # derivative split indices
    fact = math.factorial
    k = 1
    while True:
        ekt = math.exp(-k * t)
        if ekt < 1e-20:
            break
        term = 0.0
        for i in i_range:
            # C(n-2, i) * (n-1)!/(n-1-i)! * t^{n-1-i} * (-k)^{n-2-i}
            term += (
                math.comb(n - 2, i)
                * fact(n - 1)
                // fact(n - 1 - i)
                * t ** (n - 1 - i)
                * (-k) ** (n - 2 - i)
            )
        total += term * ekt / fact(n - 1)
        k += 1
        if k > 100000:
            raise QuadratureFailure("exponential branch did not converge")
    return total


def borel_transform_hurwitz(n: int, t: float) -> float:
    """Borel transform of the formal series: the Bernoulli series
    _borel_series(n, t) below t = 1/2 and the termwise differentiated
    exponential sum above (the two agree at the seam)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t < _SEAM:
        return _borel_series(n, t)
    return _borel_large_t(n, t)


def borel_seam_gap(n: int) -> float:
    """|branch difference| at the seam t = 1/2 (both branches are valid there)."""
    return abs(_borel_series(n, _SEAM) - _borel_large_t(n, _SEAM))


def _check_z(z: float) -> None:
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z <= 0:
        raise ValueError("z must be positive")


def _certify(err: float, tol: float, z: float) -> None:
    """A tolerance is never widened: an error estimate above it is a failure."""
    if not err <= tol:
        msg = f"error estimate {err:.2e} exceeds the tolerance {tol:.1e} at z = {z:g}"
        raise QuadratureFailure(msg)


def _laplace(B: Callable[[float], float], z: float, lo: float, hi: float) -> tuple:
    """(1/z) int_lo^hi e^{-t/z} B(t) dt as int e^{-u} B(z u) du in u = t/z, over
    lo/z <= u <= min(hi/z, 745), with its error estimate: past u = 745 the
    weight e^{-u} has underflowed to zero.  u is scaled so that the weight's
    mass sits at u ~ 1 for every z; B must vary on one scale over the piece."""
    a, b = lo / z, min(hi / z, 745.0)
    if not a < b:
        return 0.0, 0.0
    return quad(lambda u: math.exp(-u) * B(z * u), a, b, epsabs=1e-12)


# breakpoints in t of the Laplace integral of the Borel transform B.  Past
# t = 46, e^{-t} < 1.1e-20, so B's exponential terms are below rounding and
# B(t) = t: the last piece varies only through the weight, on the scale z.
# Below, those terms decay on the scale 1.  quad may stop a piece at a
# relative estimate of 1.49e-8, above the 1e-8 tolerance when the piece
# holds most of the sum (one piece over [1, 46] did so at n = 5, z = 2);
# pieces that double in length keep each estimate well below it.
_PIECES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 46.0, math.inf)


def borel_sum_hurwitz(n: int, z: float) -> BorelReport:
    """Borel sum (1/z) int_0^inf e^{-t/z} B(t) dt against the reference
    z^{1-n} zeta(n, 1/z) at a tolerance of 1e-8 max(1, |reference|), by
    ``_laplace`` over the pieces of ``_PIECES``.  Where z^{1-n} overflows
    (z below about 10^{-308/(n-1)}), the reference is the Euler-Maclaurin
    expansion 1/(n-1) + z/2, whose next term n z^2/12 is below rounding
    there.  Past z^n of about 1e308, zeta(n, 1/z) is not a double, and the
    reference raises ValueError."""
    if n < 2:
        raise ValueError("need n >= 2")
    _check_z(z)
    try:
        reference = z ** (1 - n) * hurwitz_zeta_num(n, 1.0 / z)
    except OverflowError:
        reference = 1.0 / (n - 1) + z / 2.0

    B = functools.partial(borel_transform_hurwitz, n)
    pieces = [_laplace(B, z, lo, hi) for lo, hi in zip(_PIECES, _PIECES[1:])]
    value = sum(v for v, _ in pieces)
    if not math.isfinite(value):
        raise QuadratureFailure("Laplace integral diverged")
    qerr = sum(e for _, e in pieces)
    tol = 1e-8 * max(1.0, abs(reference))
    _certify(qerr, tol, z)
    return BorelReport(
        z=z,
        borel_sum=value,
        quadrature_error=qerr,
        reference_value=reference,
        agreement=abs(value - reference) <= tol,
        tolerance=tol,
        method="laplace-split",
    )


# ---------------------------------------------------------------------------
# fractional order: real s strictly between 1 and 2
# ---------------------------------------------------------------------------


def _check_strip(s) -> float:
    s = complex(s)
    if s.imag != 0:
        raise OutOfStrip("only real s in (1, 2) is supported")
    if not (1.0 < s.real < 2.0):
        raise OutOfStrip("s must lie strictly between 1 and 2")
    return s.real


def _borel_sum_fractional_xroute(s: float, z: float) -> tuple:
    """(sin pi s / (z pi (1-s))) int_0^1 (1-x)^{1-s} x^{s-3} zeta(2, 1/(xz)) dx.

    The integrand is regrouped as w(x) g(x) with w = x^{s-2} (1-x)^{1-s}
    (both exponents in (-1, 0)) and g(x) = zeta(2, 1/(xz))/x, which is
    bounded: zeta(2, w) ~ 1/w as w -> infinity makes g(0+) = z.  Each
    endpoint factor of w is removed by an exact change of variables on its
    half: x = v^{1/(s-1)} on [0, 1/2], where x^{s-2} dx = dv/(s-1), and
    1 - x = y^{1/(2-s)} on [1/2, 1], where (1-x)^{1-s} dx = dy/(2-s).
    """

    def g(x: float) -> float:
        if x <= 0.0:
            return z
        return hurwitz_zeta_num(2, 1.0 / (x * z)) / x

    a, b = s - 1.0, 2.0 - s

    def f_left(v: float) -> float:
        x = v ** (1.0 / a)
        return (1.0 - x) ** (1.0 - s) * g(x)

    def f_right(y: float) -> float:
        x = 1.0 - y ** (1.0 / b)
        return x ** (s - 2.0) * g(x)

    left, err_left = quad(f_left, 0.0, 0.5**a, epsabs=1e-12)
    right, err_right = quad(f_right, 0.0, 0.5**b, epsabs=1e-12)
    val, err = left / a + right / b, err_left / a + err_right / b
    pref = math.sin(math.pi * s) / (z * math.pi * (1.0 - s))
    return pref * val, abs(pref) * err


def _borel_sum_fractional_laplace(s: float, z: float) -> tuple:
    """(1/z) int_0^T e^{-t/z} B_s(t) dt by ``_laplace``, with T below the
    2 pi convergence radius of the series branch; the truncated tail
    e^{-T/z} |B_s(T)| is reported as error."""
    T = min(5.0, max(1.0, 30.0 * z))
    val, err = _laplace(lambda t: _borel_series(s, t), z, 0.0, T)
    return val, err + math.exp(-T / z) * abs(_borel_series(s, T))


def borel_sum_complex_s(s, z: float) -> BorelReport:
    """Borel sum of the fractional-order formal series, 1 < s < 2.

    Two independent numeric routes: the endpoint-weighted x-integral and the
    direct Laplace integral over the series Borel transform.  The x-route is
    the reported value; the Laplace route is the reference, computed first.
    The tolerance is 1e-6, which the Laplace estimate and then the two
    routes' summed estimates must not exceed.
    """
    s = _check_strip(s)
    _check_z(z)
    tol = 1e-6
    v2, e2 = _borel_sum_fractional_laplace(s, z)
    _certify(e2, tol, z)
    v1, e1 = _borel_sum_fractional_xroute(s, z)
    _certify(e1 + e2, tol, z)
    return BorelReport(
        z=z,
        borel_sum=v1,
        quadrature_error=e1,
        reference_value=v2,
        agreement=abs(v1 - v2) <= tol,
        tolerance=tol,
        method="x-integral vs laplace",
    )
