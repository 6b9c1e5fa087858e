"""Globally adaptive Gauss-Kronrod quadrature on a finite interval.

QAG with the 21-point rule (key 6) of Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, *QUADPACK* (Springer, 1983): the interval with the
largest error estimate is bisected until the summed estimate meets
max(epsabs, 1.49e-8 |value|), roundoff stops the progress, or 200
intervals are in use.  The integrand is called with one float at a time.
Stopping short of the tolerance raises ``QuadratureFailure``, an
``Uncertified`` error: no caller receives an estimate above its target.
Callers map a half-line onto a finite interval themselves:
``spectra.spectral_zeta_mellin`` forms its integrand in log space, and
``resum._laplace`` integrates in u = t/z up to u = 745, where e^{-u}
underflows.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, Tuple

from . import Uncertified

# Kronrod nodes on [0, 1) with their weights; the odd-indexed nodes are the
# 10-point Gauss-Legendre nodes, with weights _WG.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600156505950, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
_EPSREL = 1.49e-8
_LIMIT = 200


class QuadratureFailure(Uncertified):
    """A quadrature stopped before its error estimate met its tolerance."""


def _gk21(f: Callable[[float], float], a: float, b: float) -> Tuple[float, float, float]:
    """(value, error estimate, int |f - mean|) of the 21-point rule."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    pairs = [(f(c - h * x), f(c + h * x)) for x in _XGK[:10]]
    resk = _WGK[10] * fc + sum(w * (f1 + f2) for w, (f1, f2) in zip(_WGK, pairs))
    resg = sum(w * (f1 + f2) for w, (f1, f2) in zip(_WG, pairs[1::2]))
    mean = 0.5 * resk
    resabs = _WGK[10] * abs(fc) + sum(w * (abs(f1) + abs(f2)) for w, (f1, f2) in zip(_WGK, pairs))
    resasc = _WGK[10] * abs(fc - mean) + sum(
        w * (abs(f1 - mean) + abs(f2 - mean)) for w, (f1, f2) in zip(_WGK, pairs)
    )
    h = abs(h)
    resabs, resasc = resabs * h, resasc * h
    err = abs(resk - resg) * h
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * (0.5 * (b - a)), err, resasc


def quad(f: Callable[[float], float], a: float, b: float, epsabs: float) -> Tuple[float, float]:
    """(value, abserr) of int_a^b f; abserr is the summed QUADPACK estimate.
    Raises QuadratureFailure, naming the reason and the estimate, when the
    tolerance cannot be met."""
    value, err, resasc = _gk21(f, a, b)
    if err == 0.0 or (err <= max(epsabs, _EPSREL * abs(value)) and err != resasc):
        return value, err
    heap = [(-err, a, b, value)]
    area, errsum = value, err
    iroff1 = iroff2 = 0
    for last in range(2, _LIMIT + 1):
        neg_err, lo, hi, old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, asc1 = _gk21(f, lo, mid)
        v2, e2, asc2 = _gk21(f, mid, hi)
        area += v1 + v2 - old
        errsum += e1 + e2 + neg_err
        if asc1 != e1 and asc2 != e2:
            if abs(old - v1 - v2) <= 1e-5 * abs(v1 + v2) and e1 + e2 >= -0.99 * neg_err:
                iroff1 += 1
            if last > 10 and e1 + e2 > -neg_err:
                iroff2 += 1
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        if errsum <= max(epsabs, _EPSREL * abs(area)):
            return math.fsum(item[3] for item in heap), math.fsum(-item[0] for item in heap)
        if iroff1 >= 6 or iroff2 >= 20:
            reason = "roundoff stops the progress"
            break
        if max(abs(lo), abs(hi)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
            reason = "the interval cannot be split further"
            break
    else:
        reason = f"the limit of {_LIMIT} intervals is reached"
    raise QuadratureFailure(
        f"error estimate {errsum:.2e} of the integral {area:.17g} over [{a:g}, {b:g}] "
        f"misses the tolerance {max(epsabs, _EPSREL * abs(area)):.2e}: {reason}"
    )

