"""Apery numbers, Apery-like numbers and their congruence verifiers.

The classical Apery pairs (A2, B2) and (A3, B3) come from their three-term
recurrences with the binomial-sum closed forms as a second, independent
route.  The oscillator-model families J_k(n) (values in the Q-span of
{1, zeta(2,1/2), zeta(3,1/2), zeta(4,1/2)}) and their rational
normalizations tJ_k(n) are defined by closed binomial/harmonic sums; the
common three-term recurrence with a lower-index inhomogeneity is kept as
the oracle in the test-suite, never as the definition.

Congruence checkers return structured pass/fail reports with both residues;
they never raise on a failed congruence (the suite doubles as a research
probe).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Optional

from . import FrozenRecord, Record
from .exact import (
    DenominatorNotInvertible,
    _is_odd_prime,
    padic_valuation,
    rational_mod_prime_power,
)

ONE = "ONE"
HZ2 = "HZ2"  # zeta(2, 1/2)
HZ3 = "HZ3"  # zeta(3, 1/2)
HZ4 = "HZ4"  # zeta(4, 1/2)
_BASIS = (ONE, HZ2, HZ3, HZ4)

__all__ = [
    "ZetaCombo",
    "UnsupportedIndex",
    "IndexNotIntegral",
    "CongruenceReport",
    "apery2",
    "apery2_b",
    "apery2_closed",
    "apery3",
    "apery3_b",
    "apery3_closed",
    "aperylike_J",
    "aperylike_tJ",
    "tj_table",
    "j_table",
    "congruence_pary_product",
    "supercongruence_check",
    "tj_supercongruence_check",
    "los_square_sum_check",
    "asd_congruence_check",
    "eta_coefficient",
]


class UnsupportedIndex(ValueError):
    """Requested family index outside the supported range."""


class IndexNotIntegral(ValueError):
    """A derived sequence index (mp^j - 1)/2 is not a non-negative integer."""


class ZetaCombo(FrozenRecord):
    """Finite Q-linear combination over the basis {1, z2, z3, z4} with
    z_k = zeta(k, 1/2).  Zero coefficients are never stored."""

    __slots__ = ("coeffs",)  # sorted tuple of (symbol, Fraction)

    @classmethod
    def of(cls, mapping: dict) -> "ZetaCombo":
        items = []
        for sym, c in mapping.items():
            if sym not in _BASIS:
                raise UnsupportedIndex(f"unknown basis symbol {sym!r}")
            c = Fraction(c)
            if c != 0:
                items.append((sym, c))
        items.sort(key=lambda t: _BASIS.index(t[0]))
        return cls(tuple(items))

    @classmethod
    def zero(cls) -> "ZetaCombo":
        return cls(())

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def get(self, sym: str) -> Fraction:
        return dict(self.coeffs).get(sym, Fraction(0))

    def __add__(self, other: "ZetaCombo") -> "ZetaCombo":
        out = dict(self.coeffs)
        for sym, c in other.coeffs:
            out[sym] = out.get(sym, Fraction(0)) + c
        return ZetaCombo.of(out)

    def __sub__(self, other: "ZetaCombo") -> "ZetaCombo":
        return self + other.scale(-1)

    def scale(self, c) -> "ZetaCombo":
        c = Fraction(c)
        return ZetaCombo.of({sym: c * v for sym, v in self.coeffs})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return all(sym == ONE for sym, _ in self.coeffs)


# ---------------------------------------------------------------------------
# classical Apery sequences
# ---------------------------------------------------------------------------

_SEQ_LOCK = threading.Lock()
_A2: list = [1, 3]
_B2: list = [Fraction(0), Fraction(5)]
_A3: list = [1, 5]
_B3: list = [Fraction(0), Fraction(6)]


# m^d u(m) = a(m) u(m-1) + b(m) u(m-2), as (d, a, b), for zeta(2) and zeta(3)
_ZETA2 = (2, lambda m: 11 * m * m - 11 * m + 3, lambda m: (m - 1) ** 2)
_ZETA3 = (3, lambda m: 34 * m**3 - 51 * m * m + 27 * m - 5, lambda m: -(m - 1) ** 3)


def _extend(table: list, n: int, d: int, a, b) -> None:
    """Grow table through index n by the recurrence (d, a, b); an integer
    table must stay integral."""
    with _SEQ_LOCK:
        integral = isinstance(table[0], int)
        while len(table) <= n:
            m = len(table)
            val = a(m) * table[m - 1] + b(m) * table[m - 2]
            table.append(_exact_div(val, m**d) if integral else val / m**d)


def _exact_div(val: int, den: int) -> int:
    q, r = divmod(val, den)
    if r != 0:
        raise ArithmeticError("integer Apery recurrence produced a non-integer")
    return q


def apery2(n: int) -> int:
    """n-th Apery number for zeta(2) via its recurrence; integrality asserted."""
    if n < 0:
        raise ValueError("index must be non-negative")
    _extend(_A2, n, *_ZETA2)
    return _A2[n]


def apery2_b(n: int) -> Fraction:
    """Companion sequence B2(n) (rational) from the same recurrence."""
    if n < 0:
        raise ValueError("index must be non-negative")
    _extend(_B2, n, *_ZETA2)
    return _B2[n]


def apery3(n: int) -> int:
    """n-th Apery number for zeta(3) via its recurrence; integrality asserted."""
    if n < 0:
        raise ValueError("index must be non-negative")
    _extend(_A3, n, *_ZETA3)
    return _A3[n]


def apery3_b(n: int) -> Fraction:
    if n < 0:
        raise ValueError("index must be non-negative")
    _extend(_B3, n, *_ZETA3)
    return _B3[n]


def apery2_closed(n: int) -> int:
    """Binomial-sum route: sum_k C(n,k)^2 C(n+k,k)."""
    return sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))


def apery3_closed(n: int) -> int:
    """Binomial-sum route: sum_k C(n,k)^2 C(n+k,k)^2."""
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


# ---------------------------------------------------------------------------
# Apery-like families for the oscillator model
# ---------------------------------------------------------------------------


def tj_table(k: int, n_max: int) -> list:
    """tJ_k(0..n_max) as exact rationals.

    Even k = 2s+2: tJ_k(n) = sum_j (-1)^(j+s) C(-1/2,j)^2 C(n,j) Zeven_s(j)
    with Zeven_s(j) = sum_{j > j1 > ... > js >= 0} prod_i 1/(j_i + 1/2)^2;
    odd k = 2s+1 (s >= 1): half of that with Zodd_s(j), whose innermost
    factor is 1/((j_s + 1/2)^3 C(-1/2,j_s)^2) in place of 1/(j_s + 1/2)^2.

    Every step before the output runs on ints over one common denominator.
    Each nesting level multiplies it by L = lcm_{j<=n_max} (2j+1)^2 and adds
    num[j] * 4L/(2j+1)^2 to a running sum; the weights
    (-1)^j C(2j,j)^2/16^j enter as C(2j,j)^2 16^(n_max-j), then one gcd
    reduces.  The binomial transform takes n_max rounds of neighbour sums
    r[j] + r[j+1], after which r[0] = sum_j C(n,j) core_j: additions only,
    one Fraction per output.
    """
    if k < 2 or k > 6:
        raise UnsupportedIndex(f"tJ_{k} outside the supported range 2..6")
    if n_max < 0:
        return []
    s = (k - 1) // 2
    cen = [1]  # C(2j, j), each from the last
    for j in range(n_max):
        cen.append(cen[-1] * (4 * j + 2) // (j + 1))
    if k % 2:
        # the odd innermost factor times the weight 1/2: 16^j/((2j+1) C(2j,j)^2)
        terms = [(2 * j + 1) * c * c for j, c in enumerate(cen)]
        den = lcm(*terms)
        nums = [den // t << 4 * j for j, t in enumerate(terms)]
    else:
        den, nums = 1, [1] * (n_max + 1)
    big = lcm(*range(1, 2 * n_max + 2, 2)) ** 2
    step = [4 * (big // (2 * j + 1) ** 2) for j in range(n_max)]
    for _ in range(s):
        acc, nested = 0, [0]
        for x, m in zip(nums, step):
            acc += x * m
            nested.append(acc)
        nums, den = nested, den * big
    nums = [(-1) ** (j + s) * x * c * c << 4 * (n_max - j)
            for j, (x, c) in enumerate(zip(nums, cen))]
    den <<= 4 * n_max
    g = gcd(den, *nums)
    den, nums = den // g, [x // g for x in nums]
    out = []
    for _ in range(n_max + 1):
        out.append(Fraction(nums[0], den))
        nums = [a + b for a, b in zip(nums, nums[1:])]
    return out


def aperylike_tJ(k: int, n: int) -> Fraction:
    """Normalized Apery-like number tJ_k(n), exact rational."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return tj_table(k, n)[n]


def _j1(n: int) -> Fraction:
    """J_1(n) = 2^n n! / (2n+1)!!."""
    num = 2**n
    for i in range(2, n + 1):
        num *= i
    den = 1
    for i in range(1, 2 * n + 2, 2):
        den *= i
    return Fraction(num, den)


# J_k(n) for k = 2..4 as a sum of terms c tJ_m(n) times a basis symbol,
# each given as (symbol, m, c); aperylike_J spells the three forms out
_J_FORMS = {
    2: ((HZ2, 2, 1),),
    3: ((ONE, 3, 1), (HZ3, 2, 2)),
    4: ((HZ2, 4, 1), (HZ4, 2, 3)),
}


def aperylike_J(k: int, n: int) -> ZetaCombo:
    """Apery-like number J_k(n) for k in 0..4 as a ZetaCombo.

    Closed forms: J_2 = z2 * tJ2(n); J_3 = tJ3(n) + 2 z3 * tJ2(n);
    J_4 = z2 * tJ4(n) + 3 z4 * tJ2(n); J_1 rational; J_0 = 0.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    if k == 0:
        return ZetaCombo.zero()
    if k == 1:
        return ZetaCombo.of({ONE: _j1(n)})
    if k not in _J_FORMS:
        raise UnsupportedIndex(f"J_{k} outside the supported range 0..4")
    return ZetaCombo.of({sym: c * aperylike_tJ(m, n) for sym, m, c in _J_FORMS[k]})


def j_table(k: int, n_max: int) -> list:
    """J_k(0..n_max) for k in 2..4, from one tj_table per tJ index."""
    if k not in _J_FORMS:
        raise UnsupportedIndex(f"J_{k} table outside the supported range 2..4")
    form = _J_FORMS[k]
    tables = {m: tj_table(m, n_max) for _, m, _ in form}
    return [
        ZetaCombo.of({sym: c * tables[m][n] for sym, m, c in form})
        for n in range(n_max + 1)
    ]


# ---------------------------------------------------------------------------
# congruence reports
# ---------------------------------------------------------------------------


class CongruenceReport(Record):
    """The residues of a congruence's two sides (None if not computed) mod ``modulus``."""

    __slots__ = ("kind", "params", "lhs_residue", "rhs_residue", "modulus", "ok", "note")
    _defaults = {"note": ""}


def _p_digits(n: int, p: int) -> list:
    if n == 0:
        return [0]
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return digits


_PARY_SEQ = {
    "A2": lambda n: Fraction(apery2(n)),
    "A3": lambda n: Fraction(apery3(n)),
    "TJ2": lambda n: aperylike_tJ(2, n),
}


def congruence_pary_product(kind: str, p: int, n: int) -> CongruenceReport:
    """Digit-product congruence: A(n) = prod_j A(n_j) mod p over the base-p
    digits n_j of n."""
    if kind not in _PARY_SEQ:
        raise UnsupportedIndex(f"unsupported kind {kind!r}")
    if p != 2 and not _is_odd_prime(p):
        raise ValueError("p must be a prime")
    if kind == "TJ2" and p == 2:
        raise ValueError("TJ2 reduction needs an odd prime")
    seq = _PARY_SEQ[kind]
    lhs = rational_mod_prime_power(seq(n), p, 1)
    rhs = 1
    for d in _p_digits(n, p):
        rhs = (rhs * rational_mod_prime_power(seq(d), p, 1)) % p
    return CongruenceReport(
        kind=f"pary-{kind}",
        params={"p": p, "n": n},
        lhs_residue=lhs,
        rhs_residue=rhs,
        modulus=p,
        ok=lhs == rhs,
    )


def supercongruence_check(kind: str, p: int, m: int, r: int) -> CongruenceReport:
    """A(m p^r - 1) = A(m p^{r-1} - 1) mod p^{3r} for p >= 5 (mod p^r for p = 3)."""
    if kind not in ("A2", "A3"):
        raise UnsupportedIndex(f"unsupported kind {kind!r}")
    if p != 2 and not _is_odd_prime(p):
        raise ValueError("p must be a prime")
    if m < 1 or r < 1:
        raise ValueError("m and r must be positive")
    seq = apery2 if kind == "A2" else apery3
    exponent = 3 * r if p >= 5 else r
    modulus = p**exponent
    lhs = seq(m * p**r - 1) % modulus
    rhs = seq(m * p ** (r - 1) - 1) % modulus
    return CongruenceReport(
        kind=f"super-{kind}",
        params={"p": p, "m": m, "r": r},
        lhs_residue=lhs,
        rhs_residue=rhs,
        modulus=modulus,
        ok=lhs == rhs,
        note="" if p >= 5 else "p < 5: modulus relaxed to p^r",
    )


def tj_supercongruence_check(s: int, p: int, m: int, n: int) -> CongruenceReport:
    """p^{2sn} tJ_{2s+2}(m p^n) = p^{2s(n-1)} tJ_{2s+2}(m p^{n-1}) mod p^n,
    for an odd prime p and 1 <= m < p/2."""
    if not _is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    if s < 0 or n < 1:
        raise ValueError("need s >= 0 and n >= 1")
    if not (1 <= m and 2 * m < p):
        raise ValueError("need 1 <= m < p/2")
    k = 2 * s + 2
    lhs_val = Fraction(p) ** (2 * s * n) * aperylike_tJ(k, m * p**n)
    rhs_val = Fraction(p) ** (2 * s * (n - 1)) * aperylike_tJ(k, m * p ** (n - 1))
    modulus = p**n
    diff = lhs_val - rhs_val
    ok = diff == 0 or padic_valuation(diff, p) >= n
    try:
        lhs_res: Optional[int] = rational_mod_prime_power(lhs_val, p, n)
        rhs_res: Optional[int] = rational_mod_prime_power(rhs_val, p, n)
    except DenominatorNotInvertible:
        lhs_res = rhs_res = None
    return CongruenceReport(
        kind=f"tj-super-TJ{k}",
        params={"s": s, "p": p, "m": m, "n": n},
        lhs_residue=lhs_res,
        rhs_residue=rhs_res,
        modulus=modulus,
        ok=ok,
        note="" if lhs_res is not None else "residues via difference valuation",
    )


def los_square_sum_check(p: int) -> CongruenceReport:
    """sum_{n<p} tJ2(n)^2 = (-1)^{(p-1)/2} mod p^3 for odd prime p."""
    if not _is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    table = tj_table(2, p - 1)
    total = sum((v * v for v in table), Fraction(0))
    modulus = p**3
    lhs = rational_mod_prime_power(total, p, 3)
    rhs = 1 if (p - 1) // 2 % 2 == 0 else modulus - 1
    return CongruenceReport(
        kind="los-square-sum",
        params={"p": p},
        lhs_residue=lhs,
        rhs_residue=rhs,
        modulus=modulus,
        ok=lhs == rhs,
    )


def eta_coefficient(which: str, n: int) -> int:
    """Fourier coefficient at q^n of eta(4tau)^6 (``lambda``) or
    eta(2tau)^4 eta(4tau)^4 (``gamma``)."""
    from . import series

    powers = {4: 6} if which == "lambda" else {2: 4, 4: 4}
    qs = series.eta_product_qseries(powers, n)
    c = qs.coefficient(n)
    if c.denominator != 1:
        raise ArithmeticError("eta product coefficient is not an integer")
    return c.numerator


def asd_congruence_check(kind: str, p: int, m: int, r: int) -> CongruenceReport:
    """Three-term Atkin-Swinnerton-Dyer style congruence mod p^r:

    A2((mp^r-1)/2) - lambda_p A2((mp^{r-1}-1)/2)
        + (-1)^{(p-1)/2} p^2 A2((mp^{r-2}-1)/2) = 0,
    A3(...) - gamma_p A3(...) + p^3 A3(...) = 0,

    with lambda/gamma the eta-product coefficients at q^p.
    """
    if kind not in ("A2", "A3"):
        raise UnsupportedIndex(f"unsupported kind {kind!r}")
    if not _is_odd_prime(p) or m % 2 == 0 or r < 2:
        raise ValueError("need an odd prime p, odd m and r >= 2")
    idx = []
    for j in (r, r - 1, r - 2):
        t = m * p**j - 1
        if t < 0 or t % 2 != 0:
            raise IndexNotIntegral(f"(m p^{j} - 1)/2 is not a non-negative integer")
        idx.append(t // 2)
    modulus = p**r
    if kind == "A2":
        coeff = eta_coefficient("lambda", p)
        total = (
            apery2(idx[0])
            - coeff * apery2(idx[1])
            + (-1) ** ((p - 1) // 2) * p * p * apery2(idx[2])
        )
    else:
        coeff = eta_coefficient("gamma", p)
        total = apery3(idx[0]) - coeff * apery3(idx[1]) + p**3 * apery3(idx[2])
    lhs = total % modulus
    return CongruenceReport(
        kind=f"asd-{kind}",
        params={"p": p, "m": m, "r": r, "eta_coefficient": coeff},
        lhs_residue=lhs,
        rhs_residue=0,
        modulus=modulus,
        ok=lhs == 0,
    )
