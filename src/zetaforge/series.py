"""Truncated q-expansions with exact rational coefficients.

One ring, ``QSeries``: Laurent-bounded expansions on the exponent lattice
(1/24)Z, which hosts Dedekind eta (1/24), the elliptic thetas (1/8, 1/2) and
all of their quotients in a single exact grid.  Its whole exponents are the
ordinary power series sum c_n z^n (``power_series``), with z in the place
of q.  Each series carries the last exponent it guarantees; arithmetic
never pretends to know coefficients past what the operands guarantee.

On top of it live the second-order operators of interest (the ladder
operator D and the Picard-Fuchs operator L), Gauss hypergeometric
coefficient series, eta/theta expansions, the genus-zero hauptmodul, and
the empirical verification of the weight-one q-series identity for the
generating function of the normalized Apery-like numbers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from . import FrozenRecord, Record

GRID = 24
# sentinel truncation bound for series that are exact (polynomials, constants)
EXACT_BOUND = 10**9

__all__ = [
    "GRID",
    "OrderTooSmall",
    "PoleInCoefficient",
    "NonInvertibleLeadingTerm",
    "NonvanishingInnerConstant",
    "LinearDiffOp",
    "LADDER_D",
    "PICARD_FUCHS_L",
    "apply_ladder_D",
    "apply_picard_fuchs_L",
    "hypergeom_2f1_series",
    "QSeries",
    "power_series",
    "eta_qseries",
    "eta_product_qseries",
    "theta_qseries",
    "hauptmodul_z",
    "hauptmodul_theta_form",
    "hauptmodul_consistency_report",
    "compose_series",
    "W2Report",
    "verify_w2_identity",
    "w2_hypergeometric_form",
    "jacobi_theta_identity_check",
]


class OrderTooSmall(ValueError):
    """Series order too small for the requested operator application."""


class PoleInCoefficient(ArithmeticError):
    """A hypergeometric denominator parameter hits a non-positive integer."""


class NonInvertibleLeadingTerm(ArithmeticError):
    """q-series inversion requires a nonzero (unit) leading coefficient."""


class NonvanishingInnerConstant(ValueError):
    """Composition requires the inner series to vanish at the origin."""


# ---------------------------------------------------------------------------
# q-series on the 1/24 exponent lattice
# ---------------------------------------------------------------------------


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if isinstance(c, int):
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class QSeries(Record):
    """Exact q-expansion with exponents in (1/24)Z, Laurent-bounded below.

    ``coeffs`` maps exponent*24 -> coefficient, stored as an int when it is
    integral (eta and theta products stay integer) and as a Fraction
    otherwise; ``max24`` is the last exponent (in 24ths) whose coefficient
    is guaranteed correct.  Multiplication, inversion and differentiation
    shrink ``max24`` exactly as the unknown tails dictate; a polynomial
    known exactly has the bound ``EXACT_BOUND``.
    """

    __slots__ = ("coeffs", "max24")

    def __init__(self, coeffs: dict, max24: int):
        super().__init__({e: _exact(c) for e, c in coeffs.items() if c != 0 and e <= max24}, max24)

    # -- basic structure ----------------------------------------------------

    @property
    def min24(self) -> Optional[int]:
        return min(self.coeffs) if self.coeffs else None

    def leading(self) -> tuple:
        """(exponent as Fraction, coefficient) of the lowest-order term."""
        if not self.coeffs:
            raise NonInvertibleLeadingTerm("series is zero through its bound")
        e = self.min24
        return Fraction(e, GRID), Fraction(self.coeffs[e])

    def coefficient(self, exponent) -> Fraction:
        e24 = _to_grid(exponent)
        if e24 > self.max24:
            raise IndexError(
                f"exponent {Fraction(e24, GRID)} beyond trusted bound "
                f"{Fraction(self.max24, GRID)}"
            )
        return Fraction(self.coeffs.get(e24, 0))

    def truncate(self, max24: int) -> "QSeries":
        if max24 > self.max24:
            raise OrderTooSmall("cannot extend a q-series truncation")
        return QSeries({e: c for e, c in self.coeffs.items() if e <= max24}, max24)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        m = min(self.max24, other.max24)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QSeries(out, m)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "QSeries":
        c = _exact(c)
        return QSeries({e: c * v for e, v in self.coeffs.items()}, self.max24)

    def __mul__(self, other: "QSeries") -> "QSeries":
        # unknown tail of one factor first pollutes exponents past
        # (own bound + other's minimal exponent); a factor that is zero
        # through its bound has only its bound to offer
        bounds = []
        if other.coeffs:
            bounds.append(self.max24 + other.min24)
        if self.coeffs:
            bounds.append(other.max24 + self.min24)
        m = min(bounds) if bounds else self.max24 + other.max24
        right = sorted(other.coeffs.items())
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in right:
                e = e1 + e2
                if e > m:
                    break
                out[e] = out.get(e, 0) + c1 * c2
        return QSeries(out, m)

    def pow(self, e: int) -> "QSeries":
        if e < 0:
            return self.pow(-e).inverse()
        result = qseries_one()
        base = self
        k = e
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; needs a nonzero leading coefficient."""
        if not self.coeffs:
            raise NonInvertibleLeadingTerm("cannot invert the zero series")
        m = self.min24
        inv_lead = _exact(1 / Fraction(self.coeffs[m]))
        rel_len = self.max24 - m  # relative trusted window
        # the terms sit on m + step*Z (one residue class mod 24 for an eta
        # product), so the inverse sits on -m + step*Z: solve on that grid,
        # walking only the nonzero terms of the monic series self/lead
        step = gcd(*(e - m for e in self.coeffs)) or 1
        terms = [
            ((e - m) // step, c * inv_lead)
            for e, c in sorted(self.coeffs.items())
            if e != m
        ]
        b = [1]
        for i in range(1, rel_len // step + 1):
            s = 0
            for j, c in terms:
                if j > i:
                    break
                s -= c * b[i - j]
            b.append(s)
        out = {step * i - m: bi * inv_lead for i, bi in enumerate(b)}
        return QSeries(out, rel_len - m)

    def differentiate(self) -> "QSeries":
        """d/dq: q^{e/24} becomes (e/24) q^{e/24 - 1}, trusted one step less."""
        return QSeries(
            {e - GRID: c * Fraction(e, GRID) for e, c in self.coeffs.items()},
            self.max24 - GRID,
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def first_difference(self, other: "QSeries") -> Optional[Fraction]:
        """Lowest exponent where the two expansions disagree, within the
        common trusted bound; None when they agree throughout."""
        m = min(self.max24, other.max24)
        exps = sorted(
            set(e for e in self.coeffs if e <= m)
            | set(e for e in other.coeffs if e <= m)
        )
        for e in exps:
            if self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return Fraction(e, GRID)
        return None

    def entries(self) -> list:
        """The stored terms as {exponent, coefficient} Fractions, in
        exponent order."""
        return [
            {"exponent": Fraction(e, GRID), "coefficient": Fraction(c)}
            for e, c in sorted(self.coeffs.items())
        ]


def _to_grid(exponent) -> int:
    e = Fraction(exponent) * GRID
    if e.denominator != 1:
        raise ValueError(f"exponent {exponent} is off the 1/{GRID} lattice")
    return e.numerator


def qseries_one() -> QSeries:
    return QSeries({0: 1}, EXACT_BOUND)


def power_series(coeffs: Sequence) -> QSeries:
    """sum_n coeffs[n] z^n as a QSeries in z = q, trusted through
    z^{len(coeffs) - 1}."""
    return QSeries({GRID * n: c for n, c in enumerate(coeffs)}, GRID * (len(coeffs) - 1))


# ---------------------------------------------------------------------------
# second order operators c2 f'' + c1 f' + c0 f with polynomial coefficients
# ---------------------------------------------------------------------------


def _polynomial(coeffs: Sequence) -> QSeries:
    """sum_n coeffs[n] z^n, exact through every order."""
    return QSeries(power_series(coeffs).coeffs, EXACT_BOUND)


class LinearDiffOp(FrozenRecord):
    """c2(z) d^2/dz^2 + c1(z) d/dz + c0(z) with exact polynomial coefficients,
    each a tuple of coefficients in ascending powers of z."""

    __slots__ = ("c0", "c1", "c2", "name")
    _defaults = {"name": ""}

    def apply(self, f: QSeries) -> QSeries:
        if f.max24 < 2 * GRID:
            raise OrderTooSmall(f"operator {self.name or 'L'} needs order >= 2")
        d1 = f.differentiate()
        d2 = d1.differentiate()
        out = d2 * _polynomial(self.c2) + d1 * _polynomial(self.c1) + f * _polynomial(self.c0)
        return out.truncate(f.max24 - 2 * GRID)


# D = z(1-z)^2 d^2/dz^2 + (1-3z)(1-z) d/dz + (z - 3/4): maps the generating
# function of the index-k Apery-like family to the index-(k-2) one.
LADDER_D = LinearDiffOp(
    c0=(Fraction(-3, 4), Fraction(1)),
    c1=(Fraction(1), Fraction(-4), Fraction(3)),
    c2=(Fraction(0), Fraction(1), Fraction(-2), Fraction(1)),
    name="ladder-D",
)

# L = T(T^2-1) d^2/dT^2 + (3T^2-1) d/dT + T: annihilates 2F1(1/2,1/2;1;T^2).
PICARD_FUCHS_L = LinearDiffOp(
    c0=(Fraction(0), Fraction(1)),
    c1=(Fraction(-1), Fraction(0), Fraction(3)),
    c2=(Fraction(0), Fraction(-1), Fraction(0), Fraction(1)),
    name="picard-fuchs-L",
)


def apply_ladder_D(f: QSeries) -> QSeries:
    return LADDER_D.apply(f)


def apply_picard_fuchs_L(f: QSeries) -> QSeries:
    return PICARD_FUCHS_L.apply(f)


def hypergeom_2f1_series(a, b, c, order: int) -> QSeries:
    """2F1(a,b;c;z) as an exact series: coefficients (a)_n (b)_n / ((c)_n n!)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for n in range(order):
        den = (c + n) * (n + 1)
        if den == 0:
            raise PoleInCoefficient(f"(c)_n vanishes at n={n + 1} for c={c}")
        term *= (a + n) * (b + n) / den
        coeffs.append(term)
    return power_series(coeffs)


# ---------------------------------------------------------------------------
# eta and theta expansions
# ---------------------------------------------------------------------------


def _eta_raw(scale: int, max24: int) -> QSeries:
    """eta(scale*tau) = sum_m (-1)^m q^{scale (6m+1)^2 / 24} through max24."""
    coeffs: dict = {}
    m = 0
    while True:
        hit = False
        for mm in (m, -m - 1):
            e = scale * (6 * mm + 1) ** 2
            if e <= max24:
                coeffs[e] = coeffs.get(e, 0) + (-1) ** (mm % 2)
                hit = True
        if not hit:
            break
        m += 1
    return QSeries(coeffs, max24)


def eta_qseries(scale: int, power: int, max_exponent) -> QSeries:
    """q-expansion of eta(scale*tau)^power, trusted through max_exponent."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    return eta_product_qseries({scale: power}, max_exponent)


def eta_product_qseries(powers: Mapping[int, int], max_exponent) -> QSeries:
    """Product over scales m of eta(m*tau)^e trusted through max_exponent.

    Negative powers go through exact series inversion; each base series is
    pre-extended so the inversions' precision loss lands back on the
    requested bound.
    """
    max24 = _to_grid(max_exponent)
    # inverting a series with leading exponent m costs 2m of trusted range
    slack = sum(2 * abs(e) * m for m, e in powers.items() if e < 0)
    out = qseries_one()
    for m in sorted(powers):
        e = powers[m]
        if e == 0:
            continue
        base = _eta_raw(m, max24 + slack).pow(abs(e))
        if e < 0:
            base = base.inverse()
        out = out * base
    return out.truncate(max24)


def theta_qseries(j: int, max_exponent) -> QSeries:
    """Elliptic theta constants with nome q^{1/2}:

    theta2 = sum q^{(n+1/2)^2/2}, theta3 = sum q^{n^2/2},
    theta4 = sum (-1)^n q^{n^2/2}  (sums over all integers n).
    """
    max24 = _to_grid(max_exponent)
    coeffs: dict = {}
    if j == 2:
        n = 0
        while 3 * (2 * n + 1) ** 2 <= max24:  # (n+1/2)^2/2 = (2n+1)^2/8
            coeffs[3 * (2 * n + 1) ** 2] = 2
            n += 1
    elif j in (3, 4):
        coeffs[0] = 1
        n = 1
        while 12 * n * n <= max24:  # n^2/2
            coeffs[12 * n * n] = 2 if (j == 3 or n % 2 == 0) else -2
            n += 1
    else:
        raise ValueError("theta index must be 2, 3 or 4")
    return QSeries(coeffs, max24)


# ---------------------------------------------------------------------------
# hauptmodul and the weight-one identity
# ---------------------------------------------------------------------------


def hauptmodul_z(max_exponent) -> QSeries:
    """The genus-zero hauptmodul as the eta quotient
    eta(tau)^8 eta(4tau)^16 / eta(2tau)^24 (leading term +q)."""
    return eta_product_qseries({1: 8, 4: 16, 2: -24}, max_exponent)


def hauptmodul_theta_form(max_exponent) -> QSeries:
    """The companion theta quotient -theta2^4/theta4^4 (leading -16 q^{1/2})."""
    max24 = _to_grid(max_exponent)
    t2 = theta_qseries(2, Fraction(max24 + 48, GRID))
    t4 = theta_qseries(4, Fraction(max24 + 48, GRID))
    return (t2.pow(4) * t4.pow(4).inverse()).scale(-1).truncate(max24)


def hauptmodul_consistency_report(max_exponent) -> dict:
    """Compare the two printed forms of the hauptmodul.

    They are genuinely different expansions (their leading terms differ);
    the report records both leading terms and where they first disagree so
    the convention search in verify_w2_identity is auditable.
    """
    eta_form = hauptmodul_z(max_exponent)
    theta_form = hauptmodul_theta_form(max_exponent)
    le, ce = eta_form.leading()
    lt, ct = theta_form.leading()
    first = eta_form.first_difference(theta_form)
    return {
        "eta_form_leading": {"exponent": le, "coefficient": ce},
        "theta_form_leading": {"exponent": lt, "coefficient": ct},
        "first_difference": first,
        "agree_as_printed": first is None,
        "value_at_q0": "0",
    }


def compose_series(outer: QSeries, inner: QSeries) -> QSeries:
    """outer(inner(q)) for a power series ``outer`` in whole non-negative
    exponents and an inner q-series with strictly positive order."""
    if any(e < 0 or e % GRID for e in outer.coeffs):
        raise ValueError("outer series must have whole non-negative exponents")
    if inner.is_zero():
        raise NonvanishingInnerConstant("inner series is identically zero")
    m = inner.min24
    if m <= 0:
        raise NonvanishingInnerConstant(
            "inner series must have strictly positive minimal exponent"
        )
    bound, powers = _powers_through(inner, outer.max24 // GRID)
    weights = [outer.coeffs.get(GRID * n, 0) for n in range(len(powers))]
    return _weighted_sum(weights, powers, bound)


def _powers_through(inner: QSeries, order: int) -> tuple:
    """(bound, [inner^0, inner^1, ...]) for composing a series of the given
    order with ``inner``: the bound past which such a composition is not
    trusted, and the powers, each truncated to the bound, up to the first
    that vanishes through it."""
    # terms beyond the order first matter at exponent m*(order+1)
    bound = min(inner.max24, inner.min24 * (order + 1) - 1)
    powers = [qseries_one()]
    for _ in range(order):
        power = powers[-1] * inner
        power = power.truncate(min(power.max24, bound))
        if power.is_zero():
            break
        powers.append(power)
    return bound, powers


def _weighted_sum(coeffs: Sequence, powers: list, bound: int) -> QSeries:
    """sum_n coeffs[n] powers[n], trusted through ``bound``; the sum runs in
    integers over the common denominator of the coefficients."""
    weights = [Fraction(c) for c in coeffs[: len(powers)]]
    den = lcm(*(w.denominator for w in weights))
    acc: dict = {}
    max24 = bound
    for w, power in zip(weights, powers):
        if w == 0:
            continue
        w = w.numerator * (den // w.denominator)
        for e, c in power.coeffs.items():
            acc[e] = acc.get(e, 0) + w * c
        max24 = min(max24, power.max24)
    return QSeries({e: Fraction(c, den) for e, c in acc.items()}, max24).truncate(bound)


class W2Report(Record):
    """Outcome of the q-expansion identity search for the weight-one form."""

    __slots__ = ("matched", "convention_used", "first_mismatch", "max_exponent", "variants")

    def __init__(
        self,
        matched: bool,
        convention_used: Optional[str],
        first_mismatch: Optional[Fraction],
        max_exponent: Fraction,
        variants: Optional[list] = None,
    ):
        # a fresh list each, so that no two reports share one
        variants = [] if variants is None else variants
        super().__init__(matched, convention_used, first_mismatch, max_exponent, variants)


def w2_hypergeometric_form(order: int) -> QSeries:
    """(1-z)^{-1} 2F1(1/2,1/2;1; z/(z-1)) as an exact power series in z."""
    hyp = hypergeom_2f1_series(Fraction(1, 2), Fraction(1, 2), 1, order)
    inner = power_series([0] + [-1] * order)  # z/(z-1)
    geom = power_series([1] * (order + 1))  # 1/(1-z)
    return compose_series(hyp, inner) * geom


def verify_w2_identity(max_exponent=20) -> W2Report:
    """Check sum_n tJ2(n) z(tau)^n against the eta quotient
    eta(2tau)^22 / (eta(tau)^12 eta(4tau)^8), trying the convention
    variants for z(tau) and reporting which (if any) matches exactly.

    A mismatch is an outcome, not an error; a bound below q^1, where z
    has no term yet, raises ValueError.
    """
    from . import aperynum  # local import; aperynum also consumes this module

    if max_exponent < 1:
        raise ValueError("max_exponent must be at least 1")
    max24 = _to_grid(max_exponent)
    order = max24 // GRID  # z has leading exponent q^1
    # sum_n tJ2(n) z^n, with tJ2(n) = sum_k (-1)^k C(-1/2,k)^2 C(n,k)
    tj2 = aperynum.tj_table(2, order + 1)
    rhs = eta_product_qseries({2: 22, 1: -12, 4: -8}, max_exponent)

    # each candidate is c z for the eta quotient z; as (c z)^n = c^n z^n,
    # the powers of z are formed once and c^n moves into the weights
    z_bound, powers = _powers_through(hauptmodul_z(max_exponent), len(tj2) - 1)
    candidates = [
        ("eta-as-printed", 1),
        ("eta-times-16", 16),
        ("eta-negated", -1),
        ("eta-negated-times-16", -16),
    ]

    variants = []
    matched_label = None
    matched_mismatch: Optional[Fraction] = None
    for label, c in candidates:
        weights = [t * c**n for n, t in enumerate(tj2)]
        lhs = _weighted_sum(weights, powers, z_bound)
        bound = min(lhs.max24, rhs.max24)
        diff = lhs.truncate(bound).first_difference(rhs.truncate(bound))
        ok = diff is None
        variants.append(
            {
                "label": label,
                "matched": ok,
                "first_mismatch": diff,
                "checked_through": Fraction(bound, GRID),
            }
        )
        if ok and matched_label is None:
            matched_label = label
    if matched_label is None:
        # every candidate mismatched: report the furthest-agreeing one
        matched_mismatch = max(v["first_mismatch"] for v in variants)
    return W2Report(
        matched=matched_label is not None,
        convention_used=matched_label,
        first_mismatch=matched_mismatch,
        max_exponent=Fraction(max_exponent),
        variants=variants,
    )


def jacobi_theta_identity_check(max_exponent) -> Optional[Fraction]:
    """First exponent violating theta3^4 = theta2^4 + theta4^4, or None."""
    t2 = theta_qseries(2, max_exponent)
    t3 = theta_qseries(3, max_exponent)
    t4 = theta_qseries(4, max_exponent)
    return t3.pow(4).first_difference(t2.pow(4) + t4.pow(4))
