"""Matrix-truncation spectral solvers and partition-function machinery.

Covers the two-by-two matrix oscillator (Hermite-basis truncation), the
quantum Rabi model with optional bias (Fock truncation), quantum harmonic
oscillator references, partition functions with proved two-sided tail
brackets, nested-integral partition series, heat-trace asymptotic fits,
Mellin-transform spectral zeta numerics, and the Rabi-Bernoulli polynomial
family (exact table for k <= 2, fitted beyond).  The quasi-partition series,
summed from exact values, lives in ``exact`` and is re-exported here.

Both models conserve a Z2 parity, so each truncation splits into sectors
in band storage: four tridiagonal chains of size about N/2 for the
oscillator, two chains of size N for the symmetric Rabi model, and one band
of half-width 2 when a bias breaks the parity.  Side by side the sectors
are one band, zero at every seam.

Each eigenvalue is certified by its Ritz residual, with one solve.  The
leading section of size M (the levels n < M) is a compression of every
deeper truncation, so its lowest eigenvalues theta_k lie above theirs
(interlacing), and each theta_k with its eigenvector v lies within
||H v - theta_k v|| of an eigenvalue of every truncation from M up and of
the untruncated model: the residual inside the section plus the coupling
to the next rung (Parlett, The Symmetric Eigenvalue Problem, ch. 10-11).
The sections double from the smallest power of two that holds ``count``
levels until every residual is within its own rounding bound, so the
values returned are the N truncation's eigenvalues to rounding; a doubling
past N/2 goes straight to N.  A Sturm count (inertia) of the 2N truncation
at the edges of the residual intervals proves which eigenvalue each one
holds; where it does not, the radius is the enclosure that the model's
pair bounds give.  Nothing is cached.

The solver and its LAPACK calls are in ``_eig``, which ``_solve``
imports; each function here that uses numpy imports it from ``_np``, so
numpy and LAPACK load at the first float kernel, not with this module.
The dense ``*_truncated_matrix`` builders are the small-N test reference.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from . import FrozenRecord, Record, Uncertified
from ._quad import _half_line, quad
from .exact import qho_quasi_partition_values, quasi_partition
from .specval import NchoParams, QuadratureResult, _gauss_cube, hurwitz_zeta_num

__all__ = [
    "NotConverged",
    "BoundsViolated",
    "TailDominates",
    "IllConditioned",
    "NonIntegrable",
    "UnsupportedIndex",
    "QrmParams",
    "SpectrumResult",
    "HeatTraceFit",
    "RabiBernoulli",
    "ncho_truncated_matrix",
    "ncho_eigs",
    "qrm_truncated_matrix",
    "qrm_eigs",
    "qho_spectrum",
    "ncho_eigen_bounds_ok",
    "partition_from_spectrum",
    "partition_callable",
    "qrm_partition_series",
    "heat_trace_fit",
    "quasi_partition",
    "qho_quasi_partition_values",
    "spectral_zeta_mellin",
    "spectral_zeta_direct",
    "rabi_bernoulli_exact",
    "rabi_bernoulli_numeric",
]


class NotConverged(Uncertified):
    """Truncation convergence estimates exceed the caller's threshold."""


class BoundsViolated(Uncertified):
    """Converged eigenvalues fall outside their proved two-sided bounds."""


class TailDominates(Uncertified):
    """Tail bracket half-width exceeds 10% of the partition value."""


class IllConditioned(Uncertified):
    """Heat-trace design matrix is numerically rank deficient."""


class NonIntegrable(ValueError):
    """The spectral zeta sum or Mellin integral diverges at (s, tau)."""


class UnsupportedIndex(ValueError):
    """Exact Rabi-Bernoulli table covers k <= 2 only."""


class QrmParams(FrozenRecord):
    """Rabi model parameters: coupling g >= 0, level split Delta >= 0, bias
    eps (0 for the symmetric model); the mode frequency is fixed to 1."""

    __slots__ = ("g", "delta", "eps")

    def __init__(self, g: float, delta: float, eps: float = 0.0):
        if not all(map(math.isfinite, (g, delta, eps))):
            raise ValueError("g, delta and eps must be finite")
        if g < 0 or delta < 0:
            raise ValueError("g and delta must be non-negative")
        super().__init__(g, delta, eps)


class SpectrumResult(Record):
    """Lowest eigenvalues of a truncation with certified radii.

    When ``index_proved``, the k-th eigenvalue of every truncation from
    ``section_N`` to 2 ``truncation_N`` levels lies within ``convergence[k]``
    of ``eigenvalues[k]``.  Otherwise ``convergence[k]`` is the enclosure of
    the model's pair bounds, which holds from ``section_N`` levels up and for
    the untruncated model.  ``section_N`` is the leading section solved: the
    smallest that converged, or ``truncation_N``.  ``model`` is "ncho",
    "qrm" or "qho"; ``params`` is what was solved (NchoParams or QrmParams),
    None for qho.
    """

    __slots__ = (
        "eigenvalues", "model", "params", "truncation_N", "convergence", "section_N", "index_proved",
    )


class HeatTraceFit(Record):
    """The heat-trace fit over ``t_grid``: c_{-1}, the odd and the even
    coefficients (``even_coeffs`` None when not fitted) and the residual."""

    __slots__ = ("c_minus1", "odd_coeffs", "even_coeffs", "residual", "t_grid")


# ---------------------------------------------------------------------------
# matrices and eigenvalues
# ---------------------------------------------------------------------------


def ncho_truncated_matrix(params: NchoParams, N: int) -> np.ndarray:
    """2N x 2N Hermite-basis truncation, basis index 2n + spin.

    Diagonal blocks (n + 1/2) diag(alpha, beta); off-diagonal part
    J (x) (a^2 - a+^2)/2 with J = [[0, -1], [1, 0]].  The result is
    symmetric (product of two antisymmetric factors).  Dense reference for
    small N; the solvers use the parity sectors below.
    """
    from ._np import np

    if N < 4:
        raise ValueError("need N >= 4")
    H = np.zeros((2 * N, 2 * N))
    levels = np.arange(N) + 0.5
    H[0::2, 0::2] = np.diag(params.alpha * levels)
    H[1::2, 1::2] = np.diag(params.beta * levels)
    # (a^2 - a+^2)/2: real antisymmetric, coupling n to n -/+ 2
    s = np.zeros((N, N))
    for n in range(2, N):
        s[n - 2, n] = 0.5 * math.sqrt(n * (n - 1))
        s[n, n - 2] = -0.5 * math.sqrt(n * (n - 1))
    # J (x) s: spin block (0,1) gets -s, (1,0) gets +s
    H[0::2, 1::2] += -s
    H[1::2, 0::2] += s
    return H


def qrm_truncated_matrix(params: QrmParams, N: int) -> np.ndarray:
    """2N x 2N Fock truncation of a+a + Delta sz + (g (a + a+) + eps) sx.
    Dense reference for small N; the solvers use the sectors below."""
    from ._np import np

    if N < 4:
        raise ValueError("need N >= 4")
    H = np.zeros((2 * N, 2 * N))
    n = np.arange(N)
    H[0::2, 0::2] = np.diag(n + params.delta)
    H[1::2, 1::2] = np.diag(n - params.delta)
    x = np.zeros((N, N))
    root = np.sqrt(np.arange(1, N))
    x[np.arange(N - 1), np.arange(1, N)] = root
    x[np.arange(1, N), np.arange(N - 1)] = root
    coupling = params.g * x + params.eps * np.eye(N)
    H[0::2, 1::2] += coupling
    H[1::2, 0::2] += coupling
    return H


def _chain(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Lower band storage of a symmetric tridiagonal block."""
    from ._np import np

    band = np.zeros((2, len(diag)))
    band[0] = diag
    band[1, :-1] = off
    return band


def _ncho_sectors(params: NchoParams, N: int) -> list:
    """The truncation n < N as four tridiagonal parity chains.

    The coupling J (x) (a^2 - a+^2)/2 links (n, spin) only to
    (n +/- 2, 1 - spin), so a chain starts at n0 in {0, 1} with spin s0 and
    alternates spin while n steps by two.  Off-diagonal signs are dropped:
    they change no eigenvalue of a tridiagonal matrix.
    """
    from ._np import np

    if N < 4:
        raise ValueError("need N >= 4")
    chains = []
    for n0 in (0, 1):
        n = np.arange(n0, N, 2, dtype=float)
        off = 0.5 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
        for s0 in (0, 1):
            spin = (s0 + np.arange(len(n))) % 2
            slope = np.where(spin == 0, params.alpha, params.beta)
            chains.append(_chain(slope * (n + 0.5), off))
    return chains


def _qrm_sectors(params: QrmParams, N: int) -> list:
    """The truncation n < N as two parity chains, or one band when a bias
    breaks the parity.

    g (a + a+) sx links (n, spin) only to (n +/- 1, 1 - spin): two chains
    of size N, distinguished by the spin at n = 0.  The bias eps sx also
    links (n, 0) to (n, 1), rung n of one chain to rung n of the other, so
    interleaving the chains rung by rung gives one band of half-width 2.
    """
    from ._np import np

    if N < 4:
        raise ValueError("need N >= 4")
    n = np.arange(N, dtype=float)
    off = params.g * np.sqrt(n[1:])
    diags = [n + np.where((s0 + n) % 2 == 0, params.delta, -params.delta) for s0 in (0, 1)]
    if params.eps == 0.0:
        return [_chain(d, off) for d in diags]
    band = np.zeros((3, 2 * N))
    band[0, 0::2], band[0, 1::2] = diags
    band[1, 0::2] = params.eps
    band[2, 0:-2:2] = off
    band[2, 1:-2:2] = off
    return [band]


def _section_widths(model: str, params, M: int) -> list:
    """Rows that the levels n < M fill in each sector block, in the order
    ``_ncho_sectors`` and ``_qrm_sectors`` return them: the oscillator's
    chains from n0 = 0, 0, 1, 1 hold the levels n0, n0 + 2, ..., the Rabi
    chains every level, and the biased band two rows a level.  Every
    block's rows run up the levels, so the leading section of a deeper
    truncation is its blocks ``_cut`` to these widths."""
    if model == "ncho":
        return [(M + 1 - n0) // 2 for n0 in (0, 0, 1, 1)]
    return [M, M] if params.eps == 0.0 else [2 * M]


def _solve(model: str, params, sectors: Callable, N: int, count: int,
           threshold: float) -> SpectrumResult:
    """Certify the lowest ``count`` eigenvalues of the N truncation from
    its 2N sectors, built once (``_eig.certify``), and wrap the result."""
    from . import _eig
    from ._np import np

    if count < 1:
        raise ValueError("count must be at least 1")
    if count > 2 * N:
        raise ValueError(f"count must not exceed {2 * N}, the size of the truncation")
    # every truncation's k-th eigenvalue from M levels up lies in [lower_k, w_k]
    lower = _pair_bounds(model, params, np.arange(count) // 2)[0][0]
    w, radii, M, proved = _eig.certify(
        sectors(params, 2 * N), lambda M: _section_widths(model, params, M), lower, N, count, threshold
    )
    return SpectrumResult(
        eigenvalues=w.tolist(),
        model=model,
        params=params,
        truncation_N=N,
        convergence=radii.tolist(),
        section_N=M,
        index_proved=proved,
    )


def ncho_eigs(
    params: NchoParams,
    N: int = 1024,
    count: int = 40,
    threshold: float = 1e-8,
) -> SpectrumResult:
    """Lowest eigenvalues of the matrix-oscillator truncation, each with a
    certified radius (see ``SpectrumResult``) from the Ritz residual on the
    smallest leading section that converges.  Raises NotConverged when any
    radius exceeds the threshold, and BoundsViolated when a converged
    eigenvalue leaves its two-sided pair bounds."""
    out = _solve("ncho", params, _ncho_sectors, N, count, threshold)
    # slack of a couple of convergence units for not-yet-tight values
    if not ncho_eigen_bounds_ok(out, slack=max(1e-9, 2.0 * threshold)):
        raise BoundsViolated("converged eigenvalues violate the pair bounds")
    return out


def qrm_eigs(
    params: QrmParams,
    N: int = 512,
    count: int = 40,
    threshold: float = 1e-8,
) -> SpectrumResult:
    """Lowest eigenvalues of the Rabi-model Fock truncation (bias included),
    each with a certified radius (see ``SpectrumResult``) from the Ritz
    residual on the smallest leading section that converges.  Raises
    NotConverged when any radius exceeds the threshold."""
    return _solve("qrm", params, _qrm_sectors, N, count, threshold)


def qho_spectrum(count: int) -> SpectrumResult:
    """Reference unit oscillator spectrum n + 1/2, exact."""
    return SpectrumResult(
        eigenvalues=[n + 0.5 for n in range(count)],
        model="qho",
        params=None,
        truncation_N=count,
        convergence=[0.0] * count,
        section_N=count,
        index_proved=True,
    )


def ncho_eigen_bounds_ok(spec: SpectrumResult, slack: float = 1e-9) -> bool:
    """Whether each oscillator eigenvalue pair lies, in order, within the
    pair bounds of ``_pair_bounds`` widened by ``slack``."""
    from ._np import np

    n = len(spec.eigenvalues) // 2
    (lo, _), (hi, _) = _pair_bounds("ncho", spec.params, np.arange(n))
    first, second = np.asarray(spec.eigenvalues[: 2 * n]).reshape(n, 2).T
    return bool(np.all((lo - slack <= first) & (first <= second) & (second <= hi + slack)))


def _pair_bounds(model: str, params, j):
    """((lower, step), (upper, step)): bounds on the untruncated model's
    eigenvalue pair j (eigenvalues 2j and 2j + 1, counted from 0), each with
    its step from one pair to the next; the one definition of both models'
    pair bounds.  The oscillator's pair j lies in [(j + 1/2) a_min,
    (j + 1/2) a_max] with a_{min,max} = min/max(alpha, beta) sqrt(1 - 1/ab);
    pair j of the Rabi model's a+a + g (a + a+) sx sits at j - g^2, and the
    remaining terms have norm at most Delta + |eps|.  Every truncation's
    pair j lies above the lower bound (interlacing)."""
    if model == "ncho":
        f = math.sqrt(1.0 - 1.0 / (params.alpha * params.beta))
        lo, hi = min(params.alpha, params.beta) * f, max(params.alpha, params.beta) * f
        return (lo * (j + 0.5), lo), (hi * (j + 0.5), hi)
    g2, d = params.g ** 2, params.delta + abs(params.eps)
    return (j - g2 - d, 1.0), (j - g2 + d, 1.0)


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------


def _tail_bracket(
    spec: SpectrumResult, head: float, progression_sum: Callable[[int, float, float], float]
) -> Tuple[float, float]:
    """(midpoint, half_width) of head plus the sum of a decreasing function
    of the eigenvalue over the not-computed part of the spectrum.

    The model's two-sided eigenvalue bounds give two arithmetic progressions
    (multiplicity, first value, gap) that bound the not-computed eigenvalues
    term by term, from below and from above; progression_sum(mult, first,
    gap) sums the function over one of them, so the progression from above
    gives the lower bound and the one from below the upper bound."""
    n = len(spec.eigenvalues)
    if spec.model == "qho":
        below = above = (1, n + 0.5, 1.0)
    elif spec.model not in ("ncho", "qrm"):
        raise ValueError(f"unknown model {spec.model!r}")
    elif n % 2 != 0:
        raise ValueError("tail bracket expects an even eigenvalue count")
    else:
        low, high = _pair_bounds(spec.model, spec.params, n // 2)  # first pair not computed
        below, above = (2, *low), (2, *high)
    lower, upper = progression_sum(*above), progression_sum(*below)
    return head + 0.5 * (lower + upper), 0.5 * abs(upper - lower)


def partition_from_spectrum(
    spec: SpectrumResult, t: float, tail: str = "NONE"
) -> Tuple[float, float]:
    """Z(t) = sum_j e^{-lambda_j t} over the computed spectrum.

    The half-width holds the error of that partial sum from the
    eigenvalues' own radii r_j: at most sum_j t e^{-(lambda_j - r_j) t} r_j
    (the largest slope of e^{-lambda t} within each radius), itself at most
    t e^{t max r} sum_j e^{-lambda_j t} r_j, which is added.  tail="QHO_BOUND"
    appends the model's two-sided oscillator tail bracket beyond the last
    computed index and returns (midpoint, half_width); tail="NONE" returns
    (partial sum, its error).  Raises TailDominates when the half-width
    exceeds 10% of the value.
    """
    return _partition(spec, t, tail, head_error=True)


def _partition(spec: SpectrumResult, t: float, tail: str, head_error: bool) -> Tuple[float, float]:
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t <= 0:
        raise ValueError("t must be positive")
    if tail not in ("NONE", "QHO_BOUND"):
        raise ValueError("tail must be NONE or QHO_BOUND")
    terms = [math.exp(-lam * t) for lam in spec.eigenvalues]
    value, half = math.fsum(terms), 0.0
    if tail == "QHO_BOUND":

        def geometric(mult: int, first: float, gap: float) -> float:
            # mult * sum_{m>=0} e^{-t(first + m*gap)}
            return mult * math.exp(-t * first) / -math.expm1(-t * gap)

        value, half = _tail_bracket(spec, value, geometric)
    if head_error and spec.convergence:
        exponent = t * max(spec.convergence)  # e^{r_j t} <= e^{exponent}
        half += (
            t * math.exp(exponent) * math.fsum(e * r for e, r in zip(terms, spec.convergence))
            if exponent < 700.0 else math.inf
        )
    if tail == "QHO_BOUND" and half > 0.1 * value:
        raise TailDominates(
            f"tail half-width {half:.3e} exceeds 10% of Z = {value:.3e}"
        )
    return value, half


def partition_callable(spec: SpectrumResult) -> Callable[[float], float]:
    """Z(t) as a scalar callable: the midpoint of the tail-completed
    bracket, which the eigenvalues' radii leave where it is."""

    def Z(t: float) -> float:
        return _partition(spec, t, "QHO_BOUND", head_error=False)[0]

    return Z


# ---------------------------------------------------------------------------
# nested-integral partition series for the Rabi model
# ---------------------------------------------------------------------------


def _qrm_shell_exponent(mu: np.ndarray, t: float, g: float) -> np.ndarray:
    """Exponent of the ordered-simplex integrand for one shell.

    mu has shape (batch, d) with d even; the index-0 anchor mu_0 = 0 is
    prepended internally.
    """
    from ._np import np

    batch, d = mu.shape
    sinh_t = math.sinh(t)
    g2 = g * g
    mu0 = np.concatenate([np.zeros((batch, 1)), mu], axis=1)  # gamma = 0..d
    signs = (-1.0) ** np.arange(d + 1)

    main = 4.0 * g2 * np.cosh(t * (1.0 - mu[:, -1])) / sinh_t

    alt_cosh = np.sum(signs * np.cosh(t * mu0), axis=1)
    xi = -(8.0 * g2 / sinh_t) * np.sinh(0.5 * t * (1.0 - mu[:, -1])) ** 2
    xi = xi * ((-1.0) ** d) * alt_cosh
    # pair sum over 0 <= a < b <= d-1 with b - a odd
    cosh_shift = np.cosh(t * (mu0 - 1.0))  # index gamma = 0..d
    cosh_mu = np.cosh(t * mu0)
    pair = np.zeros(batch)
    for a in range(0, d - 1):
        left = cosh_mu[:, a] - cosh_mu[:, a + 1]
        for b in range(a + 1, d):
            if (b - a) % 2 == 1:
                pair += (cosh_shift[:, b + 1] - cosh_shift[:, b]) * left
    xi = xi - (4.0 * g2 / sinh_t) * pair

    alt_sinh = np.sum(signs * np.sinh(t * (0.5 - mu0)), axis=1)
    psi = (4.0 * g2 / sinh_t) * alt_sinh**2
    return main + xi + psi


def qrm_partition_series(
    params: QrmParams,
    t: float,
    lam_max: int = 2,
    budget: int = 10**6,
) -> QuadratureResult:
    """Partition function from the nested-integral series truncated at shell
    lam_max:

    Z(t) = 2 e^{t g^2} / (1 - e^{-t}) [ 1 + e^{-2 g^2 coth(t/2)}
           sum_{l=1}^{lam_max} (t Delta)^{2l} I_{2l}(t) ],

    with I_d the integral over the ordered simplex 0 <= mu_1 <= ... <= mu_d
    <= 1 (the trace normalization 2 comes from the two-level structure).
    Each I_d is integrated over the cube [0,1]^d by the tensor Gauss rule
    through mu_j = prod_{i>=j} w_i, which is ascending and has Jacobian
    prod_i w_i^{i-1}.  The node budget is split across the shells in
    proportion to (t Delta)^{2l}, and their weighted n-versus-n/2 estimates
    add linearly.
    """
    if params.eps != 0.0:
        raise ValueError("nested-integral series implemented for zero bias")
    if t <= 0:
        raise ValueError("t must be positive")
    if lam_max not in (0, 1, 2):
        raise ValueError("lam_max must be 0, 1 or 2")
    g, delta = params.g, params.delta
    pref = 2.0 * math.exp(t * g * g) / -math.expm1(-t)
    if lam_max == 0 or delta == 0.0:
        return QuadratureResult(pref, 0.0, 0, "TENSOR_GAUSS")

    from ._np import np

    def f(w: np.ndarray) -> np.ndarray:
        mu = np.cumprod(w[:, ::-1], axis=1)[:, ::-1]
        return np.prod(w ** np.arange(w.shape[1]), axis=1) * np.exp(_qrm_shell_exponent(mu, t, g))

    damp = math.exp(-2.0 * g * g / math.tanh(0.5 * t))
    weights = [(t * delta) ** (2 * l) for l in range(1, lam_max + 1)]
    wsum = sum(weights)
    total, err, nodes = 1.0, 0.0, 0
    for l, weight in enumerate(weights, start=1):
        res = _gauss_cube(f, 2 * l, max(1000, int(budget * weight / wsum)))
        total += weight * damp * res.value
        err += weight * damp * res.std_error
        nodes += res.samples_or_nodes
    return QuadratureResult(pref * total, pref * err, nodes, "TENSOR_GAUSS")


# ---------------------------------------------------------------------------
# heat-trace fit, Mellin zeta
# ---------------------------------------------------------------------------


def _lstsq(A: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares coefficients of A c ~ y and the RMS of the residual."""
    from ._np import np

    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    return coef, float(np.sqrt(np.mean((A @ coef - y) ** 2)))


def heat_trace_fit(
    Z: Callable[[float], float],
    t_grid: Sequence[float],
    n_odd_terms: int = 3,
    include_even: bool = False,
) -> HeatTraceFit:
    """Weighted least squares for Z(t) ~ c_{-1}/t + sum_j C_j t^{2j-1}.

    Weights equalize relative error (w = 1/Z).  ``include_even`` adds the
    structurally-absent even powers t^0, t^2, ... as a diagnostic; for a
    spectrum obeying the odd expansion their fitted coefficients must come
    out consistent with zero.
    """
    from ._np import np

    t = np.asarray([float(x) for x in t_grid])
    if len(t) < 2 * n_odd_terms + 2:
        raise ValueError("grid too small for the requested number of terms")
    if np.any(t <= 0) or np.any(t > 1.0):
        raise ValueError("t_grid must lie in (0, 1]")
    z = np.array([Z(x) for x in t])
    cols = [1.0 / t] + [t ** (2 * j - 1) for j in range(1, n_odd_terms + 1)]
    if include_even:
        cols += [t ** (2 * j) for j in range(0, n_odd_terms)]
    w = 1.0 / z
    A, y = np.stack(cols, axis=1) * w[:, None], z * w
    cond = np.linalg.cond(A)
    if cond > 1e12:
        raise IllConditioned(f"design matrix condition number {cond:.3e} exceeds 1e+12")
    coef, resid = _lstsq(A, y)
    odd = [float(c) for c in coef[1 : n_odd_terms + 1]]
    even = [float(c) for c in coef[n_odd_terms + 1 :]] if include_even else None
    return HeatTraceFit(
        c_minus1=float(coef[0]),
        odd_coeffs=odd,
        even_coeffs=even,
        residual=resid,
        t_grid=[float(x) for x in t],
    )


def spectral_zeta_mellin(
    Z: Callable[[float], float],
    s: float,
    tau: float,
    small_t_model: Optional[Callable[[float], float]] = None,
    t_cut: float = 0.0,
) -> float:
    """zeta_H(s; tau) = (1/Gamma(s)) int_0^inf t^{s-1} Z(t) e^{-t tau} dt.

    The integral is split at t = 1 with the upper half mapped to a finite
    interval.  When a small-t model is supplied (``mellin-zeta`` passes the
    Rabi quasi-partition series, built by ``quasi_partition``), it replaces
    Z below ``t_cut``, which keeps spectra with finitely many computed
    eigenvalues honest near t = 0.  The model makes the integrand jump at
    ``t_cut``, so the half that holds the jump is integrated on each side of
    its image separately.
    """
    for name, value in (("s", s), ("tau", tau)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if s <= 1:
        raise NonIntegrable("need Re s > 1 for the Mellin integral")
    jump = t_cut if small_t_model is not None else 0.0

    def quad_split(f: Callable[[float], float], lo: float, cut: float) -> float:
        edges = (lo, cut, 1.0) if lo < cut < 1.0 else (lo, 1.0)
        pieces = zip(edges, edges[1:])
        return sum(quad(f, a, b, epsabs=1e-10)[0] for a, b in pieces)

    def zf(t: float) -> float:
        if t < t_cut and small_t_model is not None:
            return small_t_model(t)
        return Z(t)

    # [0, 1] with t = u^m, m = max(2, 1/(s-1)): Z(t) = O(1/t) as t -> 0 (the
    # reason s > 1 is needed), so the integrand m u^{m-1} t^{s-1} Z(t) stays
    # bounded at u = 0.  Below u0, where t < t0 = 1.5e-154 (far enough from
    # the smallest double that Z(t) ~ 1/t cannot overflow), the piece is
    # added as a rectangle: for s <= 1.5 (m = 1/(s-1)) the integrand is
    # m t Z(t) e^{-tau t} there, constant to O(t); for s > 1.5 (m = 2) it is
    # O(u^{2s-3}), and the whole piece is O(t0^{s-1}), below 1e-76.
    m = max(2.0, 1.0 / (s - 1.0))
    u0 = math.sqrt(sys.float_info.min) ** (1.0 / m)

    def f_low(u: float) -> float:
        t = u**m
        return m * u ** (m - 1.0) * t ** (s - 1.0) * zf(t) * math.exp(-tau * t)

    cut = jump ** (1.0 / m) if 0.0 < jump < 1.0 else 0.0
    low = u0 * f_low(u0) + quad_split(f_low, u0, cut)

    # [1, inf) with t = 1 + u/(1-u); Z is never called where the weight
    # e^{-tau t} has underflowed to zero (shifted spectra may have a negative
    # ground state, and exp(-lam*t) would overflow at the far end of the
    # mapped interval)
    f_high = _half_line(lambda t: t ** (s - 1.0) * zf(t), tau)
    high = quad_split(f_high, 0.0, 1.0 - 1.0 / jump if jump > 1.0 else 0.0)
    if not (math.isfinite(low) and math.isfinite(high)):
        raise NonIntegrable("Mellin integral did not converge")
    return (low + high) / math.gamma(s)


def _check_shift(spec: SpectrumResult, tau: float) -> None:
    """Raise NonIntegrable unless every lambda_j - r_j + tau > 0: below that
    a sum of (lambda_j + tau)^{-s} is not real, and the Mellin integral of
    the same spectrum diverges."""
    lowest = min((lam - r for lam, r in zip(spec.eigenvalues, spec.convergence)), default=math.inf)
    if lowest + tau <= 0:
        raise NonIntegrable(f"tau = {tau} is not above {-lowest}, minus the lowest eigenvalue's lower edge")


def spectral_zeta_weyl(spec: SpectrumResult, s: float, tau: float) -> float:
    """sum_j (lambda_j + tau)^{-s} with the not-computed part completed by
    the Weyl-law continuum at the exact residue density.

    For the matrix-oscillator model the eigenvalue counting function grows
    like c_{-1} * lambda with c_{-1} = ``NchoParams.residue`` (a proved
    residue, not a fit), so the tail is c_{-1}/((s-1)(L+tau)^{s-1}) with L
    half a mean spacing past the last computed eigenvalue.  The error is set
    by local counting fluctuations, O((L+tau)^{-s}); this is an estimate,
    not a two-sided bound (use spectral_zeta_direct for the bracket).
    Raises NonIntegrable as spectral_zeta_direct does.
    """
    if spec.model != "ncho":
        raise ValueError("Weyl completion implemented for the ncho model")
    _check_shift(spec, tau)
    head = math.fsum((lam + tau) ** (-s) for lam in spec.eigenvalues)
    density = spec.params.residue
    L = spec.eigenvalues[-1] + 0.5 / density
    return head + density / ((s - 1.0) * (L + tau) ** (s - 1.0))


def spectral_zeta_direct(
    spec: SpectrumResult, s: float, tau: float
) -> Tuple[float, float]:
    """sum_j (lambda_j + tau)^{-s} over the computed spectrum plus the
    two-sided tail bracket; returns (midpoint, half_width).  The half-width
    also holds the partial sum's error from the eigenvalues' radii r_j,
    sum_j s (lambda_j - r_j + tau)^{-s-1} r_j.  Raises NonIntegrable unless
    every lambda_j - r_j + tau > 0: below that the sum is not real, and the
    Mellin integral of the same spectrum diverges."""
    _check_shift(spec, tau)
    head = math.fsum((lam + tau) ** (-s) for lam in spec.eigenvalues)
    error = math.fsum(
        s * (lam - r + tau) ** (-s - 1.0) * r
        for lam, r in zip(spec.eigenvalues, spec.convergence)
        if r
    )

    def zeta_tail(mult: int, first: float, gap: float) -> float:
        # mult * sum_{m>=0} (first + m*gap + tau)^{-s}
        return mult * gap**-s * hurwitz_zeta_num(s, (first + tau) / gap)

    value, half = _tail_bracket(spec, head, zeta_tail)
    return value, half + error


# ---------------------------------------------------------------------------
# Rabi-Bernoulli polynomials
# ---------------------------------------------------------------------------


class RabiBernoulli(Record):
    """Polynomial in tau with coefficients polynomial in g^2 and Delta^2.

    ``terms`` maps (i_tau, i_g2, i_d2) -> Fraction.  Exact entries exist for
    k <= 2; higher k come from numeric fits with error bars.
    """

    __slots__ = ("k", "terms")

    def evaluate(self, tau, g2, d2) -> Fraction:
        tau, g2, d2 = Fraction(tau), Fraction(g2), Fraction(d2)
        return sum(
            (c * tau**i * g2**j * d2**m for (i, j, m), c in self.terms.items()),
            Fraction(0),
        )

    def evaluate_float(self, tau: float, g2: float, d2: float) -> float:
        return math.fsum(
            float(c) * tau**i * g2**j * d2**m for (i, j, m), c in self.terms.items()
        )


_RB_EXACT = {
    0: {(0, 0, 0): Fraction(1)},
    1: {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-1, 2), (0, 1, 0): Fraction(-1)},
    2: {
        (2, 0, 0): Fraction(1),
        (1, 0, 0): Fraction(-1),
        (1, 1, 0): Fraction(-2),
        (0, 0, 0): Fraction(1, 6),
        (0, 1, 0): Fraction(1),
        (0, 2, 0): Fraction(1),
        (0, 0, 1): Fraction(1),
    },
}


def rabi_bernoulli_exact(k: int) -> RabiBernoulli:
    """Exact table: RB_0 = 1, RB_1 = tau - 1/2 - g^2,
    RB_2 = tau^2 - (1 + 2g^2) tau + 1/6 + g^2 + g^4 + Delta^2."""
    if k not in _RB_EXACT:
        raise UnsupportedIndex("exact Rabi-Bernoulli polynomials stop at k = 2")
    return RabiBernoulli(k=k, terms=dict(_RB_EXACT[k]))


def rabi_bernoulli_numeric(
    k: int, tau: float, Z: Callable[[float], float]
) -> Tuple[float, float]:
    """(RB)_k(tau) estimate from the Taylor coefficients of
    f(t) = t Z(t) e^{-tau t} / 2 = sum (-1)^k (RB)_k t^k / k!.

    Fits a polynomial of degree k + 4 on 24 points of [0.02, 0.45]; returns
    (estimate, fit_error).  The k <= 2 exact table is the consistency
    oracle in the tests.
    """
    from ._np import np

    if k > 4:
        raise UnsupportedIndex("numeric route supported for k <= 4")
    deg = k + 4
    t = np.linspace(0.02, 0.45, 24)
    y = np.array([0.5 * x * Z(x) * math.exp(-tau * x) for x in t])
    scale = float(np.max(t))
    A = np.stack([(t / scale) ** j for j in range(deg + 1)], axis=1)
    coef, resid = _lstsq(A, y)
    ck = coef[k] / scale**k
    est = (-1.0) ** k * math.factorial(k) * float(ck)
    # crude sensitivity: redo the fit dropping the last grid point
    coef2, _, _, _ = np.linalg.lstsq(A[:-1], y[:-1], rcond=None)
    est2 = (-1.0) ** k * math.factorial(k) * float(coef2[k] / scale**k)
    return est, abs(est - est2) + resid

