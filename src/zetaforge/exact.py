"""Exact rational arithmetic backbone.

Bernoulli numbers and polynomials, Hurwitz zeta values at non-positive
integers, generalized binomials, Pochhammer symbols, and reduction of
rationals modulo odd prime powers.  Everything here is computed in
``fractions.Fraction`` (eagerly normalized, positive denominator) so the
congruence machinery built on top stays well defined; the one float is the
quasi-partition series summed from those exact values, kept here so that
its command loads no float module.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, fsum, isfinite
from typing import Sequence, Union

Rat = Fraction
RatLike = Union[Fraction, int]

__all__ = [
    "Rat",
    "DenominatorNotInvertible",
    "bernoulli_number",
    "bernoulli_poly",
    "hurwitz_zeta_nonpos",
    "quasi_partition",
    "qho_quasi_partition_values",
    "binom_general",
    "pochhammer",
    "rational_mod_prime_power",
    "padic_valuation",
]


class DenominatorNotInvertible(ArithmeticError):
    """Reduction of x mod p^e requested while p divides the denominator of x."""


def _bernoulli_table(m: int) -> list:
    """B_0..B_m (B_1 = -1/2) from the tangent numbers T_1..T_{m//2}.

    Brent-Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers" (2013): the in-place integer recurrence
    T_j <- (j-k) T_{j-1} + (j-k+2) T_j gives every T_n in O(m^2) integer
    operations, then B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)).
    """
    half = m // 2
    t = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (m - 1)
    for n in range(1, half + 1):
        four = 4**n
        out[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * t[n], four * (four - 1))
    return out[: m + 1]


class _BernoulliCache:
    """Lazy shared table of B_0, B_1, ... (convention B_1 = -1/2).

    A request past the end rebuilds the table to max(k, 2 * length) and
    appends the new entries, so the total stays amortised O(k^2) integer
    operations.  The table only ever grows and entries are immutable, so
    concurrent readers are safe; extension happens under a lock.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = []
        self._lock = threading.Lock()

    def get(self, k: int) -> Fraction:
        if k < len(self._values):
            return self._values[k]
        with self._lock:
            have = len(self._values)
            if k >= have:
                self._values.extend(_bernoulli_table(max(k, 2 * have))[have:])
        return self._values[k]


_BERNOULLI = _BernoulliCache()


def bernoulli_number(k: int) -> Fraction:
    """B_k for the generating function t/(e^t - 1); B_1 = -1/2."""
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    return _BERNOULLI.get(k)


def _fps_coeff(k: int, n: int) -> Fraction:
    """(-1)^k B_k / k! * (k+n-2)!/(n-1)!: the k-th coefficient of the formal
    asymptotic series of zeta(n, tau) in powers of 1/tau, exact."""
    return (
        (-1) ** k
        * bernoulli_number(k)
        * Fraction(factorial(k + n - 2), factorial(k) * factorial(n - 1))
    )


def bernoulli_poly(k: int, x: RatLike) -> Fraction:
    """Bernoulli polynomial B_k(x) = sum_j C(k,j) B_j x^(k-j), exact."""
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    x = Fraction(x)
    acc = Fraction(0)
    xpow = Fraction(1)
    # accumulate from j = k down so the running power of x stays incremental
    for j in range(k, -1, -1):
        acc += comb(k, j) * bernoulli_number(j) * xpow
        xpow *= x
    return acc


def hurwitz_zeta_nonpos(k: int, tau: RatLike) -> Fraction:
    """zeta(-k, tau) = -B_{k+1}(tau)/(k+1), exact for integer k >= 0."""
    if k < 0:
        raise ValueError("expected a non-positive argument -k with k >= 0")
    return -bernoulli_poly(k + 1, tau) / (k + 1)


def quasi_partition(values: Sequence, residue: float, t: float) -> float:
    """sum_{k<=K} (-1)^k zeta_H(-k) t^k / k! + residue / t, with the
    caller-provided special values zeta_H(-k), k = 0..K.  The Rabi model's
    small-t model in ``mellin-zeta``, 2 (1/t - RB_1(0) + RB_2(0) t/2), is
    this series with residue 2 and values [-2 RB_1(0), -RB_2(0)]."""
    if not isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t <= 0:
        raise ValueError("t must be positive")
    acc = [residue / t]
    tk = 1.0
    for k, v in enumerate(values):
        acc.append((-1.0) ** k * float(v) * tk / factorial(k))
        tk *= t
    return fsum(acc)


def qho_quasi_partition_values(K: int) -> list:
    """Exact zeta(-k, 1/2) inputs, k = 0..K."""
    if K < 0:
        raise ValueError("K must be non-negative")
    return [hurwitz_zeta_nonpos(k, Fraction(1, 2)) for k in range(K + 1)]


def binom_general(a: RatLike, k: int) -> Fraction:
    """Generalized binomial a(a-1)...(a-k+1)/k! for rational a."""
    if k < 0:
        raise ValueError("lower index must be non-negative")
    a = Fraction(a)
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num / den


def pochhammer(a: RatLike, n: int) -> Fraction:
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("Pochhammer index must be non-negative")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def _is_odd_prime(p: int) -> bool:
    """True when p is an odd prime (trial division)."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def padic_valuation(x: RatLike, p: int) -> int:
    """v_p(x) for a nonzero rational; raises on x = 0."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def rational_mod_prime_power(x: RatLike, p: int, e: int = 1) -> int:
    """x mod p^e in [0, p^e), via the modular inverse of the denominator.

    Raises DenominatorNotInvertible when p divides the denominator.
    """
    if e < 1:
        raise ValueError("exponent must be positive")
    x = Fraction(x)
    if x.denominator % p == 0:
        raise DenominatorNotInvertible(
            f"denominator {x.denominator} is divisible by p={p}"
        )
    modulus = p**e
    return (x.numerator * pow(x.denominator, -1, modulus)) % modulus
