"""Floating-point special values for the two-by-two matrix oscillator.

Hurwitz zeta by Euler-Maclaurin, the cube integrals R_{k,j}(kappa), the
assembled spectral-zeta special values zeta_Q(k), the closed form at k = 2,
and the four-dimensional A_{n,k}/B_{n,j} integral families.

All cube quadratures work in the substituted coordinates u_i = 1 - v_i^2
(Jacobian prod 2 v_i), which removes the corner singularity of the
integrands at u = (1,...,1) and keeps the Monte Carlo variance finite, so
the reported standard errors are meaningful.  numpy and ``_mc`` are imported
inside the cube integrals only, so the scalar routines load neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

from . import FrozenRecord, Record
from .exact import bernoulli_number, hurwitz_zeta_nonpos

__all__ = [
    "PoleAtOne",
    "SeriesRegimeViolated",
    "UnsupportedIndexPair",
    "NchoParams",
    "QuadratureResult",
    "hurwitz_zeta_num",
    "hyp2f1_quarter",
    "r_k1_series",
    "r_kj_quadrature",
    "zetaQ_special",
    "zetaQ2_closed",
    "appendixB_integral",
    "r42_series",
    "APPENDIX_AB_EXACT",
]


class PoleAtOne(ZeroDivisionError):
    """Hurwitz zeta evaluated at its pole s = 1."""


class SeriesRegimeViolated(ValueError):
    """Series representation requested outside its convergence regime."""


class UnsupportedIndexPair(ValueError):
    """(k, j) pair without a concretely given integrand."""


class NchoParams(FrozenRecord):
    """Model parameters: alpha, beta > 0 with alpha*beta > 1.

    ``residue`` is the one definition of c_{-1}, the residue of zeta_Q at
    s = 1 and the Weyl density of the spectrum; ``spectra._pair_bounds``
    holds the pair bounds."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError("alpha and beta must be finite")
        if not (alpha > 0 and beta > 0):
            raise ValueError("alpha and beta must be positive")
        if not (alpha * beta > 1):
            raise ValueError("alpha*beta must exceed 1")
        super().__init__(alpha, beta)

    @property
    def kappa(self) -> float:
        return 1.0 / math.sqrt(self.alpha * self.beta - 1.0)

    @property
    def residue(self) -> float:
        """c_{-1} = (alpha + beta) / sqrt(alpha beta (alpha beta - 1))."""
        ab = self.alpha * self.beta
        return (self.alpha + self.beta) / math.sqrt(ab * (ab - 1.0))

    def swap(self) -> "NchoParams":
        return NchoParams(self.beta, self.alpha)


_METHODS = ("MONTE_CARLO", "TENSOR_GAUSS")
_EPS = 2.0**-52  # double-precision machine epsilon


class QuadratureResult(Record):
    """A cube integral, its error estimate and its samples or nodes; ``method``
    is MONTE_CARLO or TENSOR_GAUSS, and ``seed`` is None for the Gauss rule."""

    __slots__ = ("value", "std_error", "samples_or_nodes", "method", "seed")
    _defaults = {"seed": None}


# ---------------------------------------------------------------------------
# Hurwitz zeta, Euler-Maclaurin
# ---------------------------------------------------------------------------

_EM_CORRECTIONS = 10


def hurwitz_zeta_num(s: float, tau: float) -> float:
    """zeta(s, tau) = sum_{n>=0} (n+tau)^{-s} by Euler-Maclaurin, for real s.

    Head sum of M = max(20, ceil|s|+20) terms, trapezoidal endpoint, and 10
    Bernoulli tail corrections; this expression continues the sum to s != 1.
    Absolute error is ~1e-12 or better for 0 <= s <= 10 and tau >= 1/4.
    Integer s <= 0 is routed through the exact Bernoulli value
    -B_{k+1}(tau)/(k+1) (the continuation in closed form).  Non-integer
    s < 0 is cancellation-limited: the head terms grow like M^{|s|}, so the
    absolute error floor is about M^{|s|+1} * 1e-16.
    """
    s = float(s)
    if not (math.isfinite(s) and math.isfinite(tau)):
        raise ValueError("s and tau must be finite")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if s == 1:
        raise PoleAtOne("zeta(s, tau) has its pole at s = 1")
    if s <= 0 and s == int(s):
        return float(hurwitz_zeta_nonpos(int(-s), Fraction(tau)))
    M = 8 if s < 0 else max(20, int(math.ceil(abs(s))) + 20)
    x = M + tau
    try:
        head = math.fsum((n + tau) ** -s for n in range(M))
        tail = x ** (1 - s) / (s - 1) + 0.5 * x ** (-s)
        poch = s  # (s)_{2j-1} built up incrementally
        xpow = x ** (-s - 1)
        corr = 0.0
        for j in range(1, _EM_CORRECTIONS + 1):
            b = float(bernoulli_number(2 * j))
            corr += b / math.factorial(2 * j) * poch * xpow
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            xpow /= x * x
        val = head + tail + corr
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        # for s < 0 the value grows like tau^{1-s}: past a double
        raise ValueError(f"zeta(s, tau) is not a finite double at s = {s}, tau = {tau}")
    return val


def hyp2f1_quarter(x: float) -> float:
    """2F1(1/4, 3/4; 1; x) for x <= 0.

    Evaluated through the Pfaff transform (1-x)^{-1/4} 2F1(1/4,1/4;1;x/(x-1)),
    whose argument lies in [0, 1) for every x <= 0; the transformed series is
    summed with a 1e-16 term-ratio stop.
    """
    if x > 0:
        raise SeriesRegimeViolated("argument must be non-positive")
    if x == 0:
        return 1.0
    y = x / (x - 1.0)
    term = 1.0
    acc = 1.0
    n = 0
    while True:
        ratio = (0.25 + n) * (0.25 + n) / ((1.0 + n) * (1.0 + n)) * y
        term *= ratio
        acc += term
        n += 1
        if abs(term) < 1e-16 * abs(acc) or n > 100000:
            break
    return (1.0 - x) ** -0.25 * acc


# ---------------------------------------------------------------------------
# R_{k,j} integrals
# ---------------------------------------------------------------------------


def _hz_half(k: int) -> float:
    """zeta(k, 1/2) = (2^k - 1) zeta(k)."""
    return hurwitz_zeta_num(k, 0.5)


def r_k1_series(k: int, kappa: float, n_max: int) -> Tuple[float, float]:
    """R_{k,1}(kappa) = (k/2) sum_n C(-1/2,n) J_k(n) kappa^{2n}, truncated
    partial sum for 0 <= kappa < 1.  Returns (value, |last term|) as an
    error proxy.

    The factor k/2 matches the cube integral ``r_kj_quadrature(k, 1, .)``:
    J_k(0) = (k-1) zeta(k,1/2) while R_{k,1}(0) = C(k,2) zeta(k,1/2).
    """
    from .aperynum import j_table

    if not (0 <= kappa < 1):
        raise SeriesRegimeViolated("series route needs 0 <= kappa < 1")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if k not in (2, 3, 4):
        raise UnsupportedIndexPair(f"series defined here for k in 2..4, got {k}")
    basis = {
        "ONE": 1.0,
        "HZ2": _hz_half(2),
        "HZ3": _hz_half(3),
        "HZ4": _hz_half(4),
    }
    table = j_table(k, n_max)
    total = 0.0
    last = 0.0
    k2 = kappa * kappa
    kpow = 1.0
    binom = Fraction(1)  # C(-1/2, n)
    for n, combo in enumerate(table):
        jn = sum(float(c) * basis[sym] for sym, c in combo.coeffs)
        term = float(binom) * jn * kpow
        total += term
        last = abs(term)
        kpow *= k2
        binom *= Fraction(-(2 * n + 1), 2 * (n + 1))
    scale = k / 2
    return scale * total, scale * last


def _w_factors(k: int, j: int) -> Sequence[Tuple[float, Sequence[Sequence[int]]]]:
    """Component integrands for R_{k,j}: each item is
    (prefactor, grouping) where grouping lists the u-index blocks whose
    (1 - prod u^4) factors multiply kappa^2 under the square root."""
    if (k, j) == (2, 1):
        return [(4.0, [[0], [1]])]
    if (k, j) == (3, 1):
        return [(3 * 8.0, [[0], [1, 2]])]
    if (k, j) == (4, 1):
        return [
            (4 * 16.0, [[0], [1, 2, 3]]),
            (2 * 16.0, [[0, 1], [2, 3]]),
        ]
    raise UnsupportedIndexPair(f"no displayed integrand for (k, j) = ({k}, {j})")


def _cube_sub(v: np.ndarray):
    """The finite-variance substitution u = 1 - v^2 at sample rows v:
    (Jacobian prod 2 v_i, u^2, u^4)."""
    from ._np import np

    u = 1.0 - v * v
    u2 = u * u
    return np.prod(2.0 * v, axis=1), u2, u2 * u2


def _abc(u4: np.ndarray, u2: np.ndarray):
    from ._np import np

    a = 1.0 - np.prod(u2, axis=1)
    b = (1.0 - u4[:, 0] * u4[:, 1]) * (1.0 - u4[:, 2] * u4[:, 3])
    c = np.prod(1.0 - u4, axis=1)
    return a, b, c


def _r42_radicand(v: np.ndarray, k2: float):
    """(Jacobian, a, a^2 + k2 b + (k2 + k2^2) c): the R_{4,2} integrand is
    16 Jacobian / sqrt(radicand) at kappa^2 = k2."""
    jac, u2, u4 = _cube_sub(v)
    a, b, c = _abc(u4, u2)
    return jac, a, a * a + k2 * b + (k2 + k2 * k2) * c


def _rkj_integrand(k: int, j: int, kappa: float):
    """Integrand over v in [0,1]^k with u_i = 1 - v_i^2; includes Jacobian."""
    from ._np import np

    k2 = kappa * kappa

    if (k, j) == (4, 2):

        def f(v: np.ndarray) -> np.ndarray:
            jac, _, rad = _r42_radicand(v, k2)
            return 16.0 * jac / np.sqrt(rad)

        return f

    comps = _w_factors(k, j)

    def f(v: np.ndarray) -> np.ndarray:
        jac, u2, u4 = _cube_sub(v)
        a = 1.0 - np.prod(u2, axis=1)
        out = np.zeros(v.shape[0])
        for pref, groups in comps:
            blocks = [1.0 - np.prod(u4[:, g], axis=1) for g in groups]
            rad = a * a + k2 * blocks[0] * blocks[1]
            out += pref / np.sqrt(rad)
        return out * jac

    return f


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, not {method!r}")


def _gauss_cube(f, dim: int, budget: int) -> QuadratureResult:
    """int over [0,1]^dim of f by the tensor Gauss rule at n and n // 2 nodes
    per axis, n^dim about ``budget`` and n >= 4: I_n with the error estimate
    |I_n - I_{n//2}|, never less than the rounding floor N eps |I_n| of a sum
    of N = n^dim terms; ``samples_or_nodes`` counts the nodes of both rules.
    """
    from . import _mc

    if budget < 1:
        raise ValueError("samples must be at least 1")
    n_axis = max(4, int(round(budget ** (1.0 / dim))))
    val, nodes = _mc.tensor_gauss(f, dim, n_axis)
    coarse, coarse_nodes = _mc.tensor_gauss(f, dim, n_axis // 2)
    err = max(abs(val - coarse), nodes * _EPS * abs(val))
    return QuadratureResult(val, err, nodes + coarse_nodes, "TENSOR_GAUSS")


def _cube_quadrature(
    f, dim: int, method: str, budget: int, seed: int, stream: tuple
) -> QuadratureResult:
    """int over [0,1]^dim of f: ``_gauss_cube``, or (the library's one Monte
    Carlo route) ``budget`` samples from the Philox stream (op, params)."""
    from . import _mc

    _check_method(method)
    if method == "TENSOR_GAUSS":
        return _gauss_cube(f, dim, budget)
    rng = _mc.philox_rng(*stream, seed)
    mean, err, n = _mc.mc_mean(f, dim, budget, rng)
    return QuadratureResult(mean, err, n, "MONTE_CARLO", seed=seed)


def r_kj_quadrature(
    k: int,
    j: int,
    kappa: float,
    method: str = "MONTE_CARLO",
    budget: int = 10**6,
    seed: int = 0,
) -> QuadratureResult:
    """Numerical value of the k-dimensional integral R_{k,j}(kappa) with the
    integrand exactly as displayed (prefactors included).

    Supported pairs: (2,1), (3,1), (4,1), (4,2); others raise
    UnsupportedIndexPair since no general integrand is displayed.
    """
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if (k, j) not in ((2, 1), (3, 1), (4, 1), (4, 2)):
        raise UnsupportedIndexPair(f"(k, j) = ({k}, {j}) not supported")
    f = _rkj_integrand(k, j, kappa)
    return _cube_quadrature(f, k, method, budget, seed, ("r_kj", (k, j, float(kappa))))


def zetaQ_special(
    k: int,
    params: NchoParams,
    budget: int = 10**6,
    seed: int = 0,
    method: str = "MONTE_CARLO",
) -> QuadratureResult:
    """Assembled special value

    zeta_Q(k) = 2 c^k ( zeta(k,1/2) + sum_{0<2j<=k} r^{2j} R_{k,j}(kappa) ),
    c = c_{-1}/2 (``NchoParams.residue``), r = (a-b)/(a+b).

    The R terms use quadrature (the series route needs kappa < 1, which the
    admissible parameter range does not guarantee).  Their weighted errors
    add linearly.  Under TENSOR_GAUSS the error also carries a floor of 32
    ulps of the value for the Euler-Maclaurin zeta(k, 1/2), itself a sum of
    about 30 rounded terms, and the assembly, so it is never 0.
    """
    if k not in (2, 3, 4):
        raise UnsupportedIndexPair("assembled values available for k in 2..4")
    _check_method(method)
    a, b = params.alpha, params.beta
    c = params.residue / 2.0
    r2 = ((a - b) / (a + b)) ** 2
    total = _hz_half(k)
    errs = []
    nodes = 0
    if r2 > 0:
        pairs = [(k, 1)] if k < 4 else [(4, 1), (4, 2)]
        for kk, jj in pairs:
            res = r_kj_quadrature(kk, jj, params.kappa, method=method, budget=budget, seed=seed)
            weight = r2**jj
            total += weight * res.value
            errs.append(weight * res.std_error)
            nodes += res.samples_or_nodes
    pref = 2.0 * c**k
    value = pref * total
    if method == "MONTE_CARLO":
        err = pref * math.sqrt(sum(e**2 for e in errs))
        return QuadratureResult(value, err, nodes, method, seed=seed)
    err = pref * math.fsum(errs) + 32 * _EPS * abs(value)
    return QuadratureResult(value, err, nodes, method)


def zetaQ2_closed(params: NchoParams) -> float:
    """Closed form of zeta_Q(2):

    (pi c_{-1} / 2)^2 (1 + ((a-b)/(a+b))^2 F(-kappa^2)^2)
    with c_{-1} = ``NchoParams.residue`` and F = 2F1(1/4, 3/4; 1; .).
    """
    a, b = params.alpha, params.beta
    pref = (math.pi * params.residue / 2.0) ** 2
    r2 = ((a - b) / (a + b)) ** 2
    if r2 == 0:
        return pref
    F = hyp2f1_quarter(-params.kappa**2)
    return pref * (1.0 + r2 * F * F)


# ---------------------------------------------------------------------------
# A_{n,k} and B_{n,j} integrals
# ---------------------------------------------------------------------------


def appendixB_integral(
    which: str,
    n: int,
    k_or_j: int,
    budget: int = 10**6,
    seed: int = 0,
    method: str = "MONTE_CARLO",
) -> QuadratureResult:
    """Four-dimensional integrals

    A(n,k) = int (b+c)^{n-k} c^k / a^{2n+1},
    B(n,j) = int b^{n-j} c^j / a^{2n+1}
    over [0,1]^4 with a = 1 - prod u_i^2, b = (1-u1^4 u2^4)(1-u3^4 u4^4),
    c = prod (1-u_i^4).
    """
    if which not in ("A", "B"):
        raise ValueError("which must be 'A' or 'B'")
    if not (0 <= k_or_j <= n):
        raise ValueError("need 0 <= k (or j) <= n")
    from ._np import np

    m = k_or_j

    def f(v: np.ndarray) -> np.ndarray:
        jac, u2, u4 = _cube_sub(v)
        a, b, c = _abc(u4, u2)
        base = (b + c) if which == "A" else b
        return base ** (n - m) * c**m / a ** (2 * n + 1) * jac

    return _cube_quadrature(f, 4, method, budget, seed, (f"appendixB-{which}", (n, m)))


def _pi_poly(c4: float, c2: float) -> float:
    return c4 * math.pi**4 + c2 * math.pi**2


# exact low-order values of the A/B integral families
APPENDIX_AB_EXACT = {
    ("A", 0, 0): _pi_poly(1.0 / 96.0, 0.0),
    ("A", 1, 0): _pi_poly(1.0 / 64.0, -1.0 / 64.0),
    ("A", 1, 1): _pi_poly(1.0 / 128.0, -9.0 / 256.0),
    ("B", 0, 0): _pi_poly(1.0 / 96.0, 0.0),
    ("B", 1, 0): _pi_poly(1.0 / 128.0, 5.0 / 256.0),
    ("B", 1, 1): _pi_poly(1.0 / 128.0, -9.0 / 256.0),
}


def r42_series(t: float) -> float:
    """Low-order expansion R_{4,2}(t) = 16 sum_n C(-1/2,n) sum_k C(n,k)
    A_{n,k} t^{n+k} through n = 1, where the exact A table stops; t is
    kappa^2."""
    if not math.isfinite(t):
        raise ValueError(f"t = kappa^2 must be finite, got {t}")
    A = APPENDIX_AB_EXACT
    return 16.0 * (A[("A", 0, 0)] - 0.5 * (A[("A", 1, 0)] * t + A[("A", 1, 1)] * t * t))


def r42_order_of_contact(kappas: Sequence[float], budget: int = 10**6) -> list:
    """R_{4,2}(kappa) - r42_series(kappa^2) by the tensor Gauss rule on
    about ``budget`` nodes per kappa.

    The kappa = 0 baseline integrates to pi^4/6 exactly, so only the
    difference integrand, which is O(kappa^2) pointwise, is integrated; this
    resolves the O(kappa^4) order of contact.  Returns a list of
    {kappa, difference, std_error} dicts, ``std_error`` being the rule's
    n-versus-n/2 estimate.
    """
    from ._np import np

    out = []
    for k in map(float, kappas):

        def f(v: np.ndarray) -> np.ndarray:
            jac, a, rad = _r42_radicand(v, k * k)
            return 16.0 * jac * (1.0 / np.sqrt(rad) - 1.0 / a)

        res = _gauss_cube(f, 4, budget)
        diff = math.pi**4 / 6.0 + res.value - r42_series(k * k)
        out.append({"kappa": k, "difference": diff, "std_error": res.std_error})
    return out
