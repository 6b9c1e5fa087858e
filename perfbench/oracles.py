"""Reference values the benchmark checks zetaforge's outputs against.

Every oracle here is computed apart from the program:

* eigenvalues from the parity structure of the two Hamiltonians, solved as
  tridiagonal chains (or, when a bias breaks the parity, as a band matrix)
  with scipy at a larger truncation than the program used;
* closed forms of the models that reduce to shifted oscillators, with
  Hurwitz zeta from mpmath;
* the closed form of zeta_Q(2) through mpmath.hyp2f1;
* Bernoulli numbers from sympy, Apery numbers from math.comb sums;
* the low-order A/B cube integrals as printed in the paper's appendix.

Nothing in this module imports zetaforge.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal

EPS = float(np.finfo(float).eps)

# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def ncho_chains(alpha: float, beta: float, N: int) -> list:
    """The four parity chains of the matrix oscillator truncated to n < N.

    The coupling J (x) (a^2 - a+^2)/2 links (n, spin) only to
    (n +/- 2, 1 - spin), so starting at n0 in {0, 1} and spin s0 in {0, 1}
    each chain alternates spin while n steps by two.  Returns a list of
    (diagonal, off_diagonal) pairs.
    """
    chains = []
    for n0 in (0, 1):
        n = np.arange(n0, N, 2, dtype=float)
        for s0 in (0, 1):
            spin = (s0 + np.arange(len(n))) % 2
            diag = np.where(spin == 0, alpha, beta) * (n + 0.5)
            off = 0.5 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
            chains.append((diag, off))
    return chains


def qrm_chains(g: float, delta: float, N: int) -> list:
    """The two parity chains of the unbiased Rabi model truncated to n < N:
    g (a + a+) sx links (n, spin) only to (n +/- 1, 1 - spin)."""
    n = np.arange(N, dtype=float)
    chains = []
    for s0 in (0, 1):
        spin = (s0 + np.arange(N)) % 2
        diag = n + np.where(spin == 0, delta, -delta)
        chains.append((diag, g * np.sqrt(n[1:])))
    return chains


def chains_lowest(chains: list, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the union of tridiagonal chains."""
    vals = []
    for diag, off in chains:
        m = min(count, len(diag))
        vals.append(
            eigh_tridiagonal(
                diag, off, eigvals_only=True, select="i", select_range=(0, m - 1)
            )
        )
    return np.sort(np.concatenate(vals))[:count]


def chains_norm(chains: list) -> float:
    """Upper bound on the 2-norm of the block-diagonal matrix of chains."""
    return max(
        float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e), initial=0.0))
        for d, e in chains
    )


def qrm_band(g: float, delta: float, eps: float, N: int) -> np.ndarray:
    """Lower band storage (half-width 3) of the biased Rabi truncation n < N
    in the basis index 2n + spin: band[j, i] = H[i + j, i]."""
    n = np.arange(N, dtype=float)
    root = g * np.sqrt(n[1:])
    band = np.zeros((4, 2 * N))
    band[0, 0::2] = n + delta
    band[0, 1::2] = n - delta
    band[1, 0::2] = eps  # (n, up) - (n, down)
    band[1, 1:-1:2] = root  # (n, down) - (n + 1, up)
    band[3, 0:-3:2] = root  # (n, up) - (n + 1, down)
    return band


def band_lowest(band: np.ndarray, count: int) -> np.ndarray:
    return eig_banded(
        band, lower=True, eigvals_only=True, select="i", select_range=(0, count - 1)
    )


def band_norm(band: np.ndarray) -> float:
    return float(np.max(np.abs(band[0]))) + 2.0 * float(np.sum(np.max(np.abs(band[1:]), axis=1)))


def rounding_floor(norm: float) -> float:
    """How far a backward-stable symmetric eigensolver may stray below the
    exact eigenvalue of the matrix it was given."""
    return 64.0 * EPS * norm


def reference_spectrum(model: dict, N: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of a model description at truncation N."""
    kind = model["model"]
    if kind == "ncho":
        return chains_lowest(ncho_chains(model["alpha"], model["beta"], N), count)
    if model.get("eps", 0.0) == 0.0:
        return chains_lowest(qrm_chains(model["g"], model["delta"], N), count)
    return band_lowest(qrm_band(model["g"], model["delta"], model["eps"], N), count)


def truncation_norm(model: dict, N: int) -> float:
    """Norm bound of the truncation the program diagonalizes at N."""
    if model["model"] == "ncho":
        return chains_norm(ncho_chains(model["alpha"], model["beta"], N))
    return band_norm(qrm_band(model["g"], model["delta"], model.get("eps", 0.0), N))


# ---------------------------------------------------------------------------
# closed forms: spectra that are unions of arithmetic progressions
# ---------------------------------------------------------------------------


def progressions(model: dict):
    """The spectrum as [(first, gap, multiplicity)] where the model reduces
    to shifted oscillators, else None:

    * matrix oscillator with alpha = beta: sqrt(alpha^2 - 1)(n + 1/2), twice;
    * Rabi model with g = 0: n +/- sqrt(delta^2 + eps^2);
    * Rabi model with delta = 0: n - g^2 +/- eps.
    """
    if model["model"] == "ncho":
        if model["alpha"] != model["beta"]:
            return None
        w = math.sqrt(model["alpha"] ** 2 - 1.0)
        return [(0.5 * w, w, 2)]
    eps = model.get("eps", 0.0)
    if model["g"] == 0.0:
        d = math.hypot(model["delta"], eps)
        return [(-d, 1.0, 1), (d, 1.0, 1)]
    if model["delta"] == 0.0:
        g2 = model["g"] ** 2
        return [(-g2 - eps, 1.0, 1), (-g2 + eps, 1.0, 1)]
    return None


def progression_eigs(progs, count: int) -> np.ndarray:
    vals = [f + gap * n for f, gap, m in progs for n in range(count) for _ in range(m)]
    return np.sort(vals)[:count]


def progression_partition(progs, t: float) -> float:
    return float(
        mpmath.fsum(m * mpmath.exp(-t * f) / -mpmath.expm1(-t * gap) for f, gap, m in progs)
    )


def progression_zeta(progs, s: float, tau: float) -> float:
    """sum_j (lambda_j + tau)^{-s} = sum m gap^{-s} zeta_H(s, (first + tau)/gap)."""
    return float(
        mpmath.fsum(m * gap ** (-s) * mpmath.zeta(s, (f + tau) / gap) for f, gap, m in progs)
    )


def hurwitz_zeta(s: float, a: float) -> float:
    return float(mpmath.zeta(s, a))


def zetaQ2_closed(alpha: float, beta: float) -> float:
    """zeta_Q(2) = (pi c)^2 (1 + r^2 2F1(1/4, 3/4; 1; -kappa^2)^2), with
    c = (a + b)/(2 sqrt(ab(ab - 1))), r = (a - b)/(a + b), kappa^2 = 1/(ab - 1)."""
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
    c = (a + b) / (2 * mpmath.sqrt(a * b * (a * b - 1)))
    r = (a - b) / (a + b)
    F = mpmath.hyp2f1(0.25, 0.75, 1, -1 / (a * b - 1))
    return float((mpmath.pi * c) ** 2 * (1 + r * r * F * F))


def r21_closed(kappa: float) -> float:
    """R_{2,1}(kappa) = (pi^2/2) 2F1(1/4, 3/4; 1; -kappa^2)^2, the value that
    makes the assembled zeta_Q(2) equal its closed form."""
    F = mpmath.hyp2f1(0.25, 0.75, 1, -mpmath.mpf(kappa) ** 2)
    return float(mpmath.pi**2 / 2 * F * F)


def ncho_pair_bounds_ok(alpha: float, beta: float, eigs, slack: float) -> bool:
    """(j - 1/2) a_min <= l_{2j-1} <= l_{2j} <= (j - 1/2) a_max with
    a_{min,max} = min/max(alpha, beta) sqrt(1 - 1/(alpha beta))."""
    f = math.sqrt(1.0 - 1.0 / (alpha * beta))
    lo, hi = min(alpha, beta) * f, max(alpha, beta) * f
    for j in range(1, len(eigs) // 2 + 1):
        l1, l2 = eigs[2 * j - 2], eigs[2 * j - 1]
        if not ((j - 0.5) * lo - slack <= l1 <= l2 <= (j - 0.5) * hi + slack):
            return False
    return True


# ---------------------------------------------------------------------------
# cube integrals
# ---------------------------------------------------------------------------

_PI2, _PI4 = math.pi**2, math.pi**4

# A(n, k) and B(n, j) at low order, as printed in the paper's appendix
APPENDIX_AB = {
    ("A", 0, 0): _PI4 / 96,
    ("A", 1, 0): _PI4 / 64 - _PI2 / 64,
    ("A", 1, 1): _PI4 / 128 - 9 * _PI2 / 256,
    ("B", 0, 0): _PI4 / 96,
    ("B", 1, 0): _PI4 / 128 + 5 * _PI2 / 256,
    ("B", 1, 1): _PI4 / 128 - 9 * _PI2 / 256,
}


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------


def bernoulli(n: int) -> Fraction:
    import sympy

    b = sympy.bernoulli(n)
    return Fraction(int(b.p), int(b.q))


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    import sympy

    b = sympy.bernoulli(n, sympy.Rational(x.numerator, x.denominator))
    return Fraction(int(b.p), int(b.q))


def apery2(n: int) -> int:
    return sum(math.comb(n, k) ** 2 * math.comb(n + k, k) for k in range(n + 1))


def apery3(n: int) -> int:
    return sum((math.comb(n, k) * math.comb(n + k, k)) ** 2 for k in range(n + 1))


def tj2(n: int) -> Fraction:
    """tJ_2(n) = sum_k (-1)^k C(2k, k)^2 / 16^k C(n, k)."""
    return sum(
        (Fraction((-1) ** k * math.comb(2 * k, k) ** 2 * math.comb(n, k), 16**k) for k in range(n + 1)),
        Fraction(0),
    )


def tj(k: int, n: int) -> Fraction:
    """tJ_k(n) for k = 2..6 from the nested harmonic sums that define it:

    k = 2s + 2: sum_j (-1)^j C(-1/2, j)^2 C(n, j) (-1)^s E_s(j), where
    E_s(j) = sum_{j > j1 > ... > js >= 0} prod (j_i + 1/2)^-2;
    k = 2s + 1: sum_j (-1)^j C(-1/2, j)^2 C(n, j) (-1)^s/2 O_s(j), where
    O_1(j) = sum_{i < j} (i + 1/2)^-3 C(-1/2, i)^-2 and
    O_s(j) = sum_{i < j} O_{s-1}(i) (i + 1/2)^-2.
    """
    central = [Fraction(math.comb(2 * j, j), 4**j) ** 2 for j in range(n + 1)]
    half = [Fraction(2 * j + 1, 2) for j in range(n + 1)]

    def nest(inner, depth):
        for _ in range(depth):
            acc, nxt = Fraction(0), [Fraction(0)]
            for j in range(n):
                acc += inner[j] / half[j] ** 2
                nxt.append(acc)
            inner = nxt
        return inner

    if k % 2 == 0:
        s = (k - 2) // 2
        weight = nest([Fraction(1)] * (n + 1), s)
        sign = Fraction((-1) ** s)
    else:
        s = (k - 1) // 2
        acc, first = Fraction(0), [Fraction(0)]
        for j in range(n):
            acc += 1 / (half[j] ** 3 * central[j])
            first.append(acc)
        weight = nest(first, s - 1)
        sign = Fraction((-1) ** s, 2)
    return sum(
        ((-1) ** j * central[j] * math.comb(n, j) * weight[j] for j in range(n + 1)),
        Fraction(0),
    ) * sign
