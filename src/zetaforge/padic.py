"""Fixed-precision p-adic arithmetic for odd primes.

A value is p^v * u with u a unit known modulo p^N; precision tracking is
explicit (subtraction records valuation loss, results below four certified
digits raise PrecisionExhausted).  On top of the field arithmetic live the
Teichmuller character, the principal-unit projection, Volkenborn integrals
of polynomials, the p-adic Hurwitz zeta function (integer order) and its
shifted variant, and the p-adic convergence ledger of the
archimedean-divergent formal series.  The plain and the shifted Hurwitz
function are one series, sum_k C(1-s, k) c_k tau^{-k} with c_k = B_k or
B_k(x), with one certified tail valuation.

Convention for |tau|_p > 1: tau = p^v u splits into the tracked valuation
factor p^v and the unit u; <tau> = u/omega(u) and the extended character is
omega(tau) = p^v omega(u).  All cross-route identities are checked under
this convention and report the normalization factor explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import FrozenRecord
from .exact import (
    DenominatorNotInvertible,
    _fps_coeff,
    _is_odd_prime,
    bernoulli_number,
    bernoulli_poly,
    padic_valuation,
    rational_mod_prime_power,
)

__all__ = [
    "NotAUnit",
    "TauInZp",
    "SAtOne",
    "DomainViolated",
    "PrecisionExhausted",
    "Padic",
    "teichmuller",
    "angle_bracket",
    "omega_extended",
    "volkenborn_poly",
    "padic_hurwitz_zeta",
    "padic_hurwitz_shifted",
    "padic_divergence_report",
]


class NotAUnit(ValueError):
    """Operation requires a p-adic unit (valuation zero)."""


class TauInZp(ValueError):
    """tau must lie outside Z_p (|tau|_p > 1)."""


class SAtOne(ZeroDivisionError):
    """The p-adic Hurwitz zeta has its pole at s = 1."""


class DomainViolated(ValueError):
    """Shifted-series domain condition |tau|_p > |x|_p not met."""


class PrecisionExhausted(ArithmeticError):
    """Cancellation left fewer than four certified digits."""


_MIN_DIGITS = 4


class Padic(FrozenRecord):
    """p^val * unit with unit known modulo p^prec (canonical zero: unit 0).

    The absolute precision is val + prec: the value is known modulo
    p^(val+prec), a zero's val being no valuation.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: int, unit: int, prec: int):
        if not _is_odd_prime(p):
            raise ValueError("p must be an odd prime")
        if prec < 1:
            raise PrecisionExhausted("no certified digits left")
        if unit != 0 and unit % p == 0:
            raise ValueError("unit part must not be divisible by p")
        super().__init__(p, val, unit, prec)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, x, p: int, prec: int = 20) -> "Padic":
        x = Fraction(x)
        if x == 0:
            return cls(p, 0, 0, prec)
        v = padic_valuation(x, p)
        num, den = x.numerator, x.denominator
        if v >= 0:
            num //= p**v
        else:
            den //= p**-v
        modulus = p**prec
        unit = (num * pow(den, -1, modulus)) % modulus
        return cls(p, v, unit, prec)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    def digits(self, count: Optional[int] = None) -> list:
        n = self.unit
        count = count if count is not None else self.prec
        out = []
        for _ in range(count):
            n, d = divmod(n, self.p)
            out.append(d)
        return out

    def to_dict(self) -> dict:
        if self.is_zero():  # its digits from p^0 to its absolute precision
            n = self.val + self.prec
            return {"p": self.p, "valuation": None, "digits": [0] * max(n, 0), "precision": n}
        return {"p": self.p, "valuation": self.val, "digits": self.digits(), "precision": self.prec}

    def expansion_str(self) -> str:
        """The first eight digits as a sum of powers of p, plus O(p^N)."""
        if self.is_zero():
            return f"O({self.p}^{self.val + self.prec})"
        parts = []
        for i, d in enumerate(self.digits(min(8, self.prec))):
            if d:
                e = self.val + i
                parts.append(f"{d}*{self.p}^{e}" if e != 0 else f"{d}")
        parts.append(f"O({self.p}^{self.val + self.prec})")
        return " + ".join(parts)

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other: "Padic") -> None:
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __add__(self, other: "Padic") -> "Padic":
        self._check_same(other)
        p = self.p
        abs_prec = min(self.val + self.prec, other.val + other.prec)
        # digits start at the lowest valuation of a nonzero term above
        # abs_prec; with none, the sum is the less precise operand, a zero
        terms = [x for x in (self, other) if not x.is_zero()]
        vals = [x.val for x in terms if x.val < abs_prec]
        if not vals:
            return self if self.val + self.prec == abs_prec else other
        v = min(vals)
        digits = abs_prec - v
        if digits < _MIN_DIGITS:
            raise PrecisionExhausted("addition out of certified range")
        modulus = p**digits
        total = sum(x.unit * p ** (x.val - v) for x in terms) % modulus
        if total == 0:  # known modulo p^abs_prec, as the operands are
            return Padic(p, v, 0, digits)
        shift = 0
        while total % p == 0:
            total //= p
            shift += 1
        new_prec = digits - shift
        if new_prec < _MIN_DIGITS:
            raise PrecisionExhausted(
                f"cancellation lost {shift} digits; {new_prec} remain"
            )
        return Padic(p, v + shift, total % p**new_prec, new_prec)

    def __neg__(self) -> "Padic":
        if self.is_zero():
            return self
        return Padic(self.p, self.val, (-self.unit) % self.p**self.prec, self.prec)

    def __sub__(self, other: "Padic") -> "Padic":
        return self + (-other)

    def __mul__(self, other: "Padic") -> "Padic":
        self._check_same(other)
        prec = min(self.prec, other.prec)
        # a zero factor gives a zero at the valuations' sum, as a unit does
        unit = (self.unit * other.unit) % self.p**prec
        return Padic(self.p, self.val + other.val, unit, prec)

    def inverse(self) -> "Padic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of p-adic zero")
        inv = pow(self.unit, -1, self.p**self.prec)
        return Padic(self.p, -self.val, inv, self.prec)

    def __truediv__(self, other: "Padic") -> "Padic":
        return self * other.inverse()

    def pow_int(self, e: int) -> "Padic":
        if e < 0:
            return self.inverse().pow_int(-e)
        out = Padic(self.p, 0, 1, self.prec)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def reduce_mod(self, e: int) -> int:
        """The value mod p^e as an integer, for 0 <= e <= val + prec and
        val >= 0."""
        if self.val < 0 and not self.is_zero():
            raise ValueError("negative valuation has no residue mod p^e")
        if e > self.val + self.prec:
            raise PrecisionExhausted("requested residue beyond certified digits")
        return 0 if self.is_zero() else (self.unit * self.p**self.val) % self.p**e

    def agrees_with(self, other: "Padic", digits: Optional[int] = None) -> bool:
        """Equality modulo p^(min certified absolute precision), optionally
        capped at ``digits`` absolute digits.  Computed on raw residues, so
        total cancellation counts as agreement rather than tripping the
        precision guard."""
        self._check_same(other)
        d = min(self.val + self.prec, other.val + other.prec)
        if digits is not None:
            d = min(d, digits)
        v = min(self.val if not self.is_zero() else d, other.val if not other.is_zero() else d)
        rel = d - v
        if rel <= 0:
            return True
        modulus = self.p**rel
        lhs = self.unit * self.p ** (self.val - v) if not self.is_zero() else 0
        rhs = other.unit * self.p ** (other.val - v) if not other.is_zero() else 0
        return (lhs - rhs) % modulus == 0


def teichmuller(u: Padic) -> Padic:
    """The (p-1)-st root of unity congruent to u mod p, via the fixed point
    of x -> x^p at working precision."""
    if u.is_zero() or u.val != 0:
        raise NotAUnit("Teichmuller character needs |u|_p = 1")
    p, N = u.p, u.prec
    modulus = p**N
    x = u.unit % modulus
    for _ in range(N + 1):
        nxt = pow(x, p, modulus)
        if nxt == x:
            break
        x = nxt
    return Padic(p, 0, x, N)


def angle_bracket(tau: Padic) -> Padic:
    """Principal-unit part <tau> = unit(tau)/omega(unit(tau)) = 1 mod p.

    For |tau|_p != 1 the valuation factor p^v is deliberately not folded in;
    callers track it separately (see module docstring).
    """
    if tau.is_zero():
        raise NotAUnit("zero has no principal-unit part")
    u = Padic(tau.p, 0, tau.unit, tau.prec)
    return u / teichmuller(u)


def omega_extended(tau: Padic) -> Padic:
    """omega(tau) = p^v omega(unit(tau)): the multiplicative extension used
    by the interpolation identity at non-positive integers."""
    if tau.is_zero():
        raise NotAUnit("zero has no Teichmuller projection")
    u = Padic(tau.p, 0, tau.unit, tau.prec)
    w = teichmuller(u)
    return Padic(tau.p, tau.val, w.unit, w.prec)


# ---------------------------------------------------------------------------
# Volkenborn integral
# ---------------------------------------------------------------------------


def _power_sum(j: int, M: int) -> Fraction:
    """sum_{k=0}^{M-1} k^j = (B_{j+1}(M) - B_{j+1})/(j+1), exact."""
    return (bernoulli_poly(j + 1, M) - bernoulli_number(j + 1)) / (j + 1)


def volkenborn_poly(coeffs: Sequence, p: int, r_max: int) -> Tuple[list, list]:
    """Volkenborn approximants (1/p^r) sum_{k<p^r} f(k) for a polynomial f
    given by rational coefficients (ascending powers), r = 1..r_max.

    Returns (approximants as Padic to 20 digits, valuations of successive differences);
    the exact average is computed with closed-form power sums, so deep
    levels cost nothing.
    """
    coeffs = [Fraction(c) for c in coeffs]
    approx = []
    exact_values = []
    for r in range(1, r_max + 1):
        M = p**r
        total = sum((c * _power_sum(j, M) for j, c in enumerate(coeffs)), Fraction(0))
        value = total / M
        exact_values.append(value)
        approx.append(Padic.from_rational(value, p, 20))
    gains = []
    for r in range(1, len(exact_values)):
        diff = exact_values[r] - exact_values[r - 1]
        gains.append(None if diff == 0 else padic_valuation(diff, p))
    return approx, gains


# ---------------------------------------------------------------------------
# p-adic Hurwitz zeta
# ---------------------------------------------------------------------------


def _require_outside_zp(tau: Padic) -> None:
    if tau.is_zero() or tau.val >= 0:
        raise TauInZp("need |tau|_p > 1")


def _hurwitz_series(
    s: int, tau, p: int, K: Optional[int], prec: int, coeff, loss: int = 0
) -> Padic:
    """(<tau>^{1-s}/(s-1)) sum_{k<=K} C(1-s, k) coeff(k) tau^{-k} for integer
    s != 1 and rational tau with |tau|_p > 1; coeff(k) is B_k, or B_k(x)
    for the shifted series.

    coeff(k) has valuation at least -k*loss - 1 (loss = max(0, -v(x)) for
    B_k(x)), so term k has valuation at least k*(|v(tau)| - loss) - 1; K
    defaults to enough terms for the requested precision and the omitted
    tail certifies the digits returned.  The series is accumulated exactly
    in the rationals.
    """
    tau_rat = Fraction(tau)
    tau_padic = Padic.from_rational(tau_rat, p, prec)
    if s == 1:
        raise SAtOne("pole at s = 1")
    _require_outside_zp(tau_padic)
    a = -tau_padic.val - loss  # per-term valuation gain, >= 1
    if K is None:
        K = max(10, (prec + 2) // a + 2)
    inv_tau = 1 / tau_rat
    acc = Fraction(0)
    tp = Fraction(1)
    binom = 1  # C(1-s, k), an integer for integer s
    for k in range(K + 1):
        acc += binom * coeff(k) * tp
        tp *= inv_tau
        binom = binom * (1 - s - k) // (k + 1)
    series = Padic.from_rational(acc / (s - 1), p, prec + max(0, (K + 1) * a))
    bracket = angle_bracket(tau_padic).pow_int(1 - s)
    result = bracket * series
    # certify: omitted terms have valuation >= (K+1) a - 1 relative to the
    # valuation of the bracket/(s-1) prefactor
    tail_val = (K + 1) * a - 1 - padic_valuation(Fraction(s - 1), p)
    certified = min(result.prec, tail_val - result.val + bracket.val)
    if certified < _MIN_DIGITS:
        raise PrecisionExhausted("certified tail below four digits; raise K or prec")
    return Padic(p, result.val, result.unit % p**certified, certified)


def padic_hurwitz_zeta(
    s: int, tau, p: int, K: Optional[int] = None, prec: int = 20
) -> Padic:
    """zeta_p(s, tau) = (<tau>^{1-s}/(s-1)) sum_k C(1-s, k) B_k tau^{-k}
    for integer s != 1 and rational tau with |tau|_p > 1, truncated at K
    with a certified tail (see _hurwitz_series)."""
    return _hurwitz_series(s, tau, p, K, prec, bernoulli_number)


def padic_hurwitz_shifted(s: int, tau, x, p: int, prec: int = 20) -> Padic:
    """Shifted series zeta_p(s, tau + x) = (<tau>^{1-s}/(s-1))
    sum_k C(1-s,k) B_k(x) tau^{-k} for rational tau and x, requiring
    |tau|_p > max(1, |x|_p)."""
    tau, x = Fraction(tau), Fraction(x)
    if x != 0 and tau != 0 and padic_valuation(tau, p) >= padic_valuation(x, p):
        raise DomainViolated("need |tau|_p > |x|_p")
    loss = 0 if x == 0 else max(0, -padic_valuation(x, p))
    return _hurwitz_series(s, tau, p, None, prec, lambda k: bernoulli_poly(k, x), loss)


def padic_divergence_report(n: int, tau, p: int, K: int) -> dict:
    """Valuation ledger of the formal series for zeta(n, tau) read p-adically:

    term_k = (-1)^k B_k/k! (k+n-2)!/(n-1)! tau^{-(k+n-1)}.

    Reports, at 20 digits of precision, term valuations (eventually
    strictly increasing), the partial sums, the stabilized p-adic value, and
    the normalization factor (tau/<tau>)^{1-n} = (p^v omega(u))^{1-n}
    linking the plain sum to zeta_p(n, tau).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    tau_rat = Fraction(tau)
    prec = 20
    tau_padic = Padic.from_rational(tau_rat, p, prec)
    _require_outside_zp(tau_padic)
    rows = []
    acc = Fraction(0)
    for k in range(K + 1):
        term = _fps_coeff(k, n) / tau_rat ** (k + n - 1)
        acc += term
        try:
            residue = rational_mod_prime_power(acc, p, 4)
        except DenominatorNotInvertible:  # p divides the denominator
            residue = None
        rows.append(
            {
                "k": k,
                "term_valuation": None if term == 0 else padic_valuation(term, p),
                "partial_sum_mod_p4": residue,
            }
        )
    total = Padic.from_rational(acc, p, prec)
    # the K-term partial sum is certified modulo p^((K+n) a - 1):
    # term_k has valuation >= (k+n-1) a + v(B_k) >= (k+n-1) a - 1
    a = -tau_padic.val
    certified_depth = (K + n) * a - 1
    # normalization (tau/<tau>)^{1-n}
    w = omega_extended(tau_padic)
    norm = w.pow_int(1 - n)
    zeta_p = padic_hurwitz_zeta(n, tau_rat, p=p, prec=prec)
    product = norm * zeta_p
    return {
        "p": p,
        "n": n,
        "rows": rows,
        "sum": total,
        "certified_depth": certified_depth,
        "normalization": norm,
        "zeta_p": zeta_p,
        "normalized_zeta": product,
        "sum_matches_normalized_zeta": total.agrees_with(
            product, digits=certified_depth
        ),
        "stabilization_index_mod_p4": _stabilization_index(rows),
    }


def _stabilization_index(rows: list) -> Optional[int]:
    final = rows[-1]["partial_sum_mod_p4"]
    idx = None
    for row in reversed(rows):
        if row["partial_sum_mod_p4"] == final:
            idx = row["k"]
        else:
            break
    return idx
