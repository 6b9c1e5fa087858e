"""Matrix-truncation spectral solvers and partition-function machinery.

Covers the two-by-two matrix oscillator (Hermite-basis truncation), the
quantum Rabi model with optional bias (Fock truncation), quantum harmonic
oscillator references, partition functions with proved two-sided tail
brackets, nested-integral partition series, heat-trace asymptotic fits,
quasi-partition functions, Mellin-transform spectral zeta numerics, and the
Rabi-Bernoulli polynomial family (exact table for k <= 2, fitted beyond).

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

The LAPACK routines come from scipy's f2py wrappers, the module behind
``scipy.linalg.lapack``, loaded from its file when this module is imported,
so that no process pays for importing ``scipy.linalg``: bisection and
inverse iteration (``dstebz``, ``dstein``) for the chains, and banded
bisection (``dsbevx``) with banded LU (``dgbtrf``, ``dgbtrs``) for the
biased band.  A section below N that is small against ``count`` takes all
its values from one root-free QR pass instead (``dsterf`` on each chain
block, ``dsbev`` on the band).  The dense ``*_truncated_matrix`` builders
are the small-N test reference.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from . import Uncertified, _mc
from ._np import np, quiet_blas
from ._quad import _half_line, quad
from .exact import hurwitz_zeta_nonpos
from .specval import NchoParams, QuadratureResult, hurwitz_zeta_num

__all__ = [
    "NotConverged",
    "BoundsViolated",
    "TailDominates",
    "IllConditioned",
    "FitUnstable",
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
    "spectral_zeta_mellin",
    "spectral_zeta_direct",
    "rabi_bernoulli_exact",
    "rabi_bernoulli_numeric",
    "derivative_relation_check",
]


class NotConverged(Uncertified):
    """Truncation convergence estimates exceed the caller's threshold."""


class BoundsViolated(Uncertified):
    """Converged eigenvalues fall outside their proved two-sided bounds."""


class TailDominates(Uncertified):
    """Tail bracket half-width exceeds 10% of the partition value."""


class IllConditioned(Uncertified):
    """Heat-trace design matrix is numerically rank deficient."""


class FitUnstable(Uncertified):
    """Taylor-coefficient fit failed its stability checks."""


class NonIntegrable(ValueError):
    """The spectral zeta sum or Mellin integral diverges at (s, tau)."""


class UnsupportedIndex(ValueError):
    """Exact Rabi-Bernoulli table covers k <= 2 only."""


@dataclass(frozen=True)
class QrmParams:
    """Rabi model parameters: coupling g >= 0, level split Delta >= 0, bias
    eps (0 for the symmetric model); the mode frequency is fixed to 1."""

    g: float
    delta: float
    eps: float = 0.0

    def __post_init__(self):
        if self.g < 0 or self.delta < 0:
            raise ValueError("g and delta must be non-negative")


@dataclass
class SpectrumResult:
    """Lowest eigenvalues of a truncation with certified radii.

    When ``index_proved``, the k-th eigenvalue of every truncation from
    ``section_N`` to 2 ``truncation_N`` levels lies within ``convergence[k]``
    of ``eigenvalues[k]``.  Otherwise ``convergence[k]`` is the enclosure of
    the model's pair bounds, which holds from ``section_N`` levels up and for
    the untruncated model.  ``section_N`` is the leading section solved: the
    smallest that converged, or ``truncation_N``.
    """

    eigenvalues: list
    model: str  # "ncho" | "qrm" | "qho"
    params: Optional[NchoParams | QrmParams]  # what was solved; None for qho
    truncation_N: int
    convergence: list
    section_N: int
    index_proved: bool


@dataclass
class HeatTraceFit:
    c_minus1: float
    odd_coeffs: list
    even_coeffs: Optional[list]
    residual: float
    t_grid: list


# ---------------------------------------------------------------------------
# matrices and eigenvalues
# ---------------------------------------------------------------------------


def _ladder_skew(N: int) -> np.ndarray:
    """(a^2 - a+^2)/2 on the N-dimensional Fock/Hermite truncation; real
    antisymmetric, coupling n to n -/+ 2."""
    s = np.zeros((N, N))
    for n in range(2, N):
        s[n - 2, n] = 0.5 * math.sqrt(n * (n - 1))
        s[n, n - 2] = -0.5 * math.sqrt(n * (n - 1))
    return s


def ncho_truncated_matrix(params: NchoParams, N: int) -> np.ndarray:
    """2N x 2N Hermite-basis truncation, basis index 2n + spin.

    Diagonal blocks (n + 1/2) diag(alpha, beta); off-diagonal part
    J (x) (a^2 - a+^2)/2 with J = [[0, -1], [1, 0]].  The result is
    symmetric (product of two antisymmetric factors).  Dense reference for
    small N; the solvers use the parity sectors below.
    """
    if N < 4:
        raise ValueError("need N >= 4")
    H = np.zeros((2 * N, 2 * N))
    levels = np.arange(N) + 0.5
    H[0::2, 0::2] = np.diag(params.alpha * levels)
    H[1::2, 1::2] = np.diag(params.beta * levels)
    s = _ladder_skew(N)
    # J (x) s: spin block (0,1) gets -s, (1,0) gets +s
    H[0::2, 1::2] += -s
    H[1::2, 0::2] += s
    return H


def qrm_truncated_matrix(params: QrmParams, N: int) -> np.ndarray:
    """2N x 2N Fock truncation of a+a + Delta sz + (g (a + a+) + eps) sx.
    Dense reference for small N; the solvers use the sectors below."""
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


def _load_flapack():
    """scipy's f2py LAPACK wrappers, ``scipy.linalg._flapack``, loaded from
    their file without importing scipy or scipy.linalg.

    Importing scipy.linalg costs about 0.3 s per process, most of it numpy
    submodules (testing, f2py, ma, random) that no solver here uses.  Loading
    the module links scipy's own OpenBLAS, whose worker thread would spin
    behind the first solves; the import of scipy.linalg hid that spin behind
    its own work.  The link runs inside ``_np.quiet_blas``, as numpy's does.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("zetaforge.spectra needs scipy", name="scipy")
    spec = importlib.machinery.FileFinder(
        os.path.join(scipy_spec.submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec(name)
    with quiet_blas(name):
        module = importlib.util.module_from_spec(spec)  # links the library
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
_SAFE_MIN = _flapack.dlamch("s")
_EPS = float(np.finfo(float).eps)
# eigenvectors are formed and checked this many elements (64 kB) at a time:
# larger temporaries are fresh allocations, whose page faults can cost more
# than the arithmetic on them
_VECTOR_BLOCK = 1 << 13
# a section below N takes its values from one QR pass when it has at most
# this many rows per wanted value, else from bisection.  QR time over
# bisection time for the values alone (scipy 1.17's LAPACK on a shared
# 2-vCPU Xeon), at 20 to 160 values on NCHO and Rabi chains and the
# biased band: 0.21-0.84 at 4 rows a value, 0.72-1.06 at 16, 0.99-1.37 at
# 24; chains of 1024 rows with 40 values take 3.8-7.8 ms by dstebz and
# 5.3-9.6 ms by dsterf.  Below 20 values QR can take up to 3.5 times as
# long on chains, but either route then takes only tens of microseconds.
_QR_ROWS = 16


def _check_info(info: int, name: str) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"{name} did not converge (LAPACK info={info})")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {name}")


def _band_eigenvalues(band: np.ndarray, il: int, iu: int) -> np.ndarray:
    """Eigenvalues il..iu (from 1, ascending) of a symmetric band in lower
    storage, by the ``dsbevx`` call that ``scipy.linalg.eig_banded(band,
    lower=True, eigvals_only=True, select="i")`` makes, argument for
    argument, so the eigenvalues are the same bits."""
    w, _, found, _, info = _flapack.dsbevx(
        band, 0.0, 1.0, il, iu, compute_v=0, mmax=1, range=2, lower=1,
        overwrite_ab=0, abstol=2 * _SAFE_MIN,
    )
    _check_info(info, "dsbevx")
    return w[:found]


def _lowest(blocks: list, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues, ascending, of the block-diagonal matrix
    whose blocks are in lower band storage of one half-width.  Row i of a
    block leaves its last i slots zero, so side by side the blocks are one
    band, zero at every seam: one bisection splits it there and finds only
    the lowest ``count`` of the union, not ``count`` per block.  The solvers
    certify a leading section instead; this is the full-truncation
    reference."""
    band = np.concatenate(blocks, axis=1)
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    return _band_eigenvalues(band, 1, min(count, band.shape[1]))


def _norm_bound(band: np.ndarray) -> float:
    """Bound on the 2-norm of a symmetric band (Gershgorin)."""
    return float(np.abs(band[0]).max() + 2.0 * np.abs(band[1:]).max(axis=1).sum())


def _chunks(select: np.ndarray, n: int) -> list:
    step = max(1, _VECTOR_BLOCK // n)
    return [select[i : i + step] for i in range(0, len(select), step)]


def _split_ends(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """End (exclusive) of each split-off block of a tridiagonal matrix, by
    ``dstebz``'s own test: it splits after row j where e_j^2 <= |d_j d_{j+1}|
    eps^2 + safe_min, so both routes of ``_chain_pairs`` see the same blocks."""
    split = np.flatnonzero(np.abs(d[1:] * d[:-1]) * _EPS**2 + _SAFE_MIN > e * e) + 1
    return np.append(split, len(d))


def _chain_pairs(band: np.ndarray, il: int, iu: int, qr: bool = False) -> tuple:
    """Eigenvalues il..iu of a union of tridiagonal chains, grouped by
    split-off block and ascending within each, the first row of each one's
    block, and a function that yields the eigenvectors of a selection of
    them by inverse iteration (``dstein``, which wants that grouping), a
    block of vectors at a time, one vector per row.

    The values come from bisection (``dstebz``), about 53 Sturm sweeps per
    value at LAPACK's default tolerance, eps ||T||; or, with ``qr``, from
    root-free QR (``dsterf``, Pal-Walker-Kahan) on each block of more than
    one row, which returns every value of a block in O(n^2) flops, a block
    of one row being its diagonal entry.  Either way the residuals hold the
    values' error."""
    d, e = band[0], band[1, :-1]
    if qr:
        ends = _split_ends(d, e)
        starts = np.concatenate(([0], ends[:-1]))
        values = d.copy()
        big = ends - starts > 1
        for s, t in zip(starts[big].tolist(), ends[big].tolist()):
            # on copies: the band stays as it is
            values[s:t], info = _flapack.dsterf(d[s:t], e[s : t - 1], overwrite_d=0, overwrite_e=0)
            _check_info(info, "dsterf")
        # each block's values are ascending in its own rows: the rows of the
        # lowest values, in row order, are grouped as dstein wants
        rows = np.sort(np.argsort(values, kind="stable")[il - 1 : iu])
        w, blocks = values[rows], np.searchsorted(ends, rows, side="right") + 1
        isplit = np.zeros(len(d), dtype=np.int32)  # dstein wants it of length n
        isplit[: len(ends)] = ends
    else:
        found, w, iblock, isplit, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, il, iu, 0.0, "B")
        _check_info(info, "dstebz")
        w, blocks = w[:found], iblock[:found]
    firsts = np.concatenate(([0], isplit))[blocks - 1]

    def vectors(select: np.ndarray):
        for part in _chunks(select, len(d)):
            ib = np.zeros(len(d), dtype=np.int32)  # dstein reads the first len(part) of n
            ib[: len(part)] = blocks[part]
            z, info = _flapack.dstein(d, e, w[part], ib, isplit)
            # info > 0 counts vectors that missed dstein's own test; their
            # residuals say how far they are
            _check_info(min(info, 0), "dstein")
            yield part, z.T

    return w, firsts, vectors


def _band_pairs(band: np.ndarray, il: int, iu: int, qr: bool = False) -> tuple:
    """Eigenvalues il..iu of a band, the first row of each one's block (0:
    the band is one block), and a function that yields the eigenvectors of
    a selection of them, a block at a time, one vector per row: two steps
    of inverse iteration on the band's LU factors (``dgbtrf``, ``dgbtrs``).
    ``dsbevx`` itself would form a dense n x n transformation for them.

    The values come from banded bisection (``dsbevx``); or, with ``qr``,
    from ``dsbev`` without vectors, which reduces the band to tridiagonal
    form and takes every eigenvalue by root-free QR in O(n^2) flops."""
    if qr:
        w, _, info = _flapack.dsbev(band, compute_v=0, lower=1, overwrite_ab=0)
        _check_info(info, "dsbev")
        w = w[il - 1 : iu]
    else:
        w = _band_eigenvalues(band, il, iu)
    kd, n = band.shape[0] - 1, band.shape[1]
    ab = np.zeros((3 * kd + 1, n))  # general band storage; the top kd rows take the fill-in
    ab[2 * kd] = band[0]
    for i in range(1, kd + 1):
        ab[2 * kd + i, : n - i] = band[i, : n - i]
        ab[2 * kd - i, i:] = band[i, : n - i]
    tiny = _EPS * _norm_bound(band)
    start = np.arange(n) * 0.6180339887498949 % 1.0 - 0.5  # fixed: runs repeat bit for bit
    # the factors and iterates may overwrite these buffers in place
    shifted, x = np.empty_like(ab, order="F"), np.empty((n, 1), order="F")

    def vectors(select: np.ndarray):
        for part in _chunks(select, n):
            z = np.empty((len(part), n))
            for j, theta in enumerate(w[part]):
                shifted[:] = ab
                shifted[2 * kd] -= theta
                lu, piv, info = _flapack.dgbtrf(shifted, kd, kd, overwrite_ab=1)
                _check_info(min(info, 0), "dgbtrf")
                if info > 0:  # an exactly singular factor
                    lu[2 * kd][lu[2 * kd] == 0.0] = tiny
                x[:, 0] = start
                y = x
                for _ in range(2):  # |y| grows by 1/|theta - lambda| each step
                    y, info = _flapack.dgbtrs(lu, kd, kd, y, piv, overwrite_b=1)
                    _check_info(info, "dgbtrs")
                z[j] = y[:, 0]
            yield part, z

    return w, np.zeros(len(w), dtype=int), vectors


def _cut(block: np.ndarray, size: int) -> np.ndarray:
    """A copy of the leading ``size`` rows of a block in lower band storage,
    with the slots that would couple past them zeroed."""
    out = block[:, :size].copy()
    for i in range(1, out.shape[0]):
        out[i, -i:] = 0.0
    return out


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


def _extend(widths: list, deep: list) -> tuple:
    """The section's blocks, of the given widths, each with the rows past
    its cut that couple to it, read from the deeper truncation ``deep`` and
    laid side by side; and (start among them, start in the section, size)
    of each block's own rows.  A section eigenvector padded with zeros on
    the added rows has there the residual of every deeper truncation: the
    coupling to the next rung."""
    out, spans, start, own = [], [], 0, 0
    for size, full in zip(widths, deep):
        kd = full.shape[0] - 1
        out.append(_cut(full, size + kd))  # nothing couples past the added rows
        spans.append((start, own, size))
        start, own = start + size + kd, own + size
    return np.concatenate(out, axis=1), spans


def _residuals(ext: np.ndarray, spans: list, w: np.ndarray, chunks) -> np.ndarray:
    """||H v - theta v|| / ||v|| for each section pair (theta, v) that
    ``chunks`` yields, for every deeper truncation H, on the extended band
    from ``_extend``; in the order of the chunks, inf where not finite."""
    residuals = []
    sq = lambda a: np.einsum("ij,ij->i", a, a)
    for part, z in chunks:
        v = np.zeros((len(part), ext.shape[1]))
        for start, own, size in spans:
            v[:, start : start + size] = z[:, own : own + size]
        r = v * ext[0]
        r -= w[part, None] * v
        for i in range(1, ext.shape[0]):
            off = ext[i, :-i]
            r[:, i:] += off * v[:, :-i]
            r[:, :-i] += off * v[:, i:]
        residuals.append(np.sqrt(sq(r) / sq(z)))
    res = np.concatenate(residuals)
    return np.where(np.isfinite(res), res, np.inf)


def _copies(blocks: list) -> int:
    """2 when the blocks come in pairs of identical copies (the oscillator at
    alpha = beta, the Rabi model at Delta = 0), else 1."""
    if len(blocks) % 2 == 0 and all(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(blocks[0::2], blocks[1::2])
    ):
        return 2
    return 1


def _count_below(band: np.ndarray, sigma: float) -> Optional[int]:
    """Number of eigenvalues <= sigma of a symmetric band of half-width 1 or
    2, by inertia: the Sturm count of LAPACK's bisection for chains, the 2 x 2
    block LDL^T factorization of the band otherwise; None when a pivot
    block is singular to rounding."""
    if band.shape[0] == 2:
        d, e = band[0], band[1, :-1]
        floor = d.min() - 2.0 * np.abs(e).max() - 1.0  # below every eigenvalue
        if sigma <= floor:
            return 0
        # with an unbounded tolerance dstebz counts at the ends of
        # (floor, sigma] and bisects no further
        found, _, _, _, info = _flapack.dstebz(
            d, e, 1, floor, sigma, 0, 0, sys.float_info.max, "E"
        )
        return found if info == 0 else None
    # Gershgorin margins of the rows from j on: once they exceed the norm of
    # the Schur complement's correction, the rest is positive definite
    n = band.shape[1]
    radius = np.zeros(n)
    for i in (1, 2):
        radius[:-i] += np.abs(band[i, :-i])
        radius[i:] += np.abs(band[i, :-i])
    margin = np.minimum.accumulate((band[0] - radius)[::-1])[::-1].tolist()
    a, b1, b2 = (row.tolist() for row in band)
    negative, p, q, r = 0, 0.0, 0.0, 0.0
    for j in range(0, n, 2):
        pj, qj, rj = a[j] - sigma, b1[j], a[j + 1] - sigma
        if j:
            # minus B S^{-1} B^T, with B = [[x, y], [0, z]] the block that
            # couples rows j, j + 1 to rows j - 2, j - 1
            x, y, z = b2[j - 2], b1[j - 1], b2[j - 1]
            det = p * r - q * q
            if p > 0 and det > 0:
                smallest = 0.5 * (p + r) - math.hypot(0.5 * (p - r), q)
                if margin[j] - sigma > (x * x + y * y + z * z) / smallest:
                    return negative
            pj -= (x * x * r - 2.0 * x * y * q + y * y * p) / det
            qj -= z * (y * p - x * q) / det
            rj -= z * z * p / det
        p, q, r = pj, qj, rj
        det = p * r - q * q
        if not abs(det) > 8.0 * _EPS * (abs(p * r) + q * q):
            return None
        negative += 1 if det < 0 else 2 if p < 0 else 0
    return negative


def _index_radii(w: np.ndarray, r: np.ndarray, owner: np.ndarray,
                 below: Callable) -> Optional[np.ndarray]:
    """Radii that bound |w_k - lambda_k| for the k-th eigenvalue of a
    block-diagonal matrix of which the w are Ritz values, given the block
    that owns each and the count below(sigma) of eigenvalues <= sigma; None
    when the counts do not prove the index.

    Each interval [w_k - r_k, w_k + r_k] holds an eigenvalue of its own
    block, and lambda_k <= w_k (interlacing).  Overlapping intervals merge
    into clusters.  A cluster whose values all come from different blocks
    holds as many eigenvalues as values; one with two values of a block
    needs one count at its left edge a being its first index i (then its
    lambda_k lie in (a, w_k]).  The count at the top edge being len(w) then
    leaves to each cluster its own number of eigenvalues and none between
    them, so a cluster's lambda_k lie in (a, w_k]; failing that, the count
    at the last cluster's left edge being its first index does the same
    below that edge and for the last cluster.
    """
    clusters = []  # (first index, left edge, right edge)
    for k in range(len(w)):
        first, lo, hi = k, w[k] - r[k], w[k] + r[k]
        while clusters and lo <= clusters[-1][2]:
            first, lo0, hi0 = clusters.pop()
            lo, hi = min(lo, lo0), max(hi, hi0)
        clusters.append((first, lo, hi))
    radii = np.array(r, dtype=float)
    ends = [c[0] for c in clusters[1:]] + [len(w)]
    for (first, lo, _), end in zip(clusters, ends):
        if end - first > 1:
            if len(set(owner[first:end].tolist())) < end - first and below(lo) != first:
                return None
            radii[first:end] = w[first:end] - lo
    first, lo, hi = clusters[-1]
    if below(hi) != len(w) and below(lo) != first:
        return None
    return radii


def _sections(N: int, count: int) -> list:
    """Leading-section sizes: doublings from the smallest power of two (at
    least 16) that holds ``count`` levels while they stay within N/2, then N.
    Together the sections below N hold fewer than N levels, and each one
    that fails costs only the bisection for its count-th eigenvalue."""
    M, sizes = max(16, 1 << (count - 1).bit_length()), []
    while M <= N // 2:
        sizes.append(M)
        M *= 2
    return sizes + [N]


def _solve(model: str, params, sectors: Callable, N: int, count: int,
           threshold: float) -> SpectrumResult:
    """Certify the lowest ``count`` eigenvalues of the N truncation on the
    smallest leading section that converges, and wrap the result.

    The 2N truncation is built once; each section's blocks are cut from it.
    A section below N is screened by its highest wanted value alone, one
    bisection and one vector.  One that passes takes all its values from a
    single QR pass (``qr`` in ``_chain_pairs`` and ``_band_pairs``) when it
    has at most ``_QR_ROWS`` rows per wanted value, else from bisection.
    The whole truncation always bisects: on the biased band its values are
    the bits of the ``_lowest`` reference.  Vectors, residuals and index
    proofs are the same on either route."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > 2 * N:
        raise ValueError(f"count must not exceed {2 * N}, the size of the truncation")
    deep = sectors(params, 2 * N)
    # identical sectors share their eigenpairs: solve one copy of each
    copies = _copies(deep)
    deep = deep[::copies]
    distinct = -(-count // copies)
    deep_band = np.concatenate(deep, axis=1)
    if not np.isfinite(deep_band).all():
        raise ValueError("array must not contain infs or NaNs")
    below = lambda sigma: _count_below(deep_band, sigma)
    # every truncation's k-th eigenvalue from M levels up lies in [lower_k, w_k]
    lower = _pair_bounds(model, params, np.arange(count) // 2)[0][0]
    for M in _sections(N, count):
        widths = _section_widths(model, params, M)[::copies]
        band = np.concatenate([_cut(full, size) for size, full in zip(widths, deep)], axis=1)
        ext, spans = _extend(widths, deep)
        pairs = _chain_pairs if band.shape[0] == 2 else _band_pairs
        scale = _norm_bound(band)
        rounding_of = lambda w: 8.0 * _EPS * (scale + np.abs(w))  # of a residual at w
        if M < N:
            # the highest vector reaches furthest: try it alone first
            w, _, vectors = pairs(band, distinct, distinct)
            if _residuals(ext, spans, w, vectors(np.arange(1)))[0] > rounding_of(w[0]):
                continue
        qr = M < N and band.shape[1] <= _QR_ROWS * distinct
        w, firsts, vectors = pairs(band, 1, distinct, qr)
        order = np.argsort(w, kind="stable")
        if M == N:
            # the highest value's radius is at least the smaller of these
            top = order[-1:]
            radius = _residuals(ext, spans, w, vectors(top))[0] + rounding_of(w[top[0]])
            radius = min(radius, w[top[0]] - lower[-1] + rounding_of(w[top[0]]))
            if radius > threshold:
                raise NotConverged(
                    f"max convergence estimate {radius:.3e} exceeds {threshold:.3e}"
                )
        res = _residuals(ext, spans, w, vectors(np.arange(len(w))))[order]
        w = w[order]
        rounding = rounding_of(w)
        if M < N and np.any(res > rounding):
            continue
        owner = np.searchsorted(np.cumsum(widths), firsts[order], side="right")
        radii = _index_radii(w, res + rounding, owner, below)
        if radii is None and M < N:
            continue
        break
    proved = radii is not None
    w, rounding = np.repeat(w, copies)[:count], np.repeat(rounding, copies)[:count]
    enclosure = np.maximum(w - lower, 0.0) + rounding
    radii = np.minimum(np.repeat(radii, copies)[:count], enclosure) if proved else enclosure
    if radii.max() > threshold:
        raise NotConverged(
            f"max convergence estimate {radii.max():.3e} exceeds {threshold:.3e}"
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
    seed: int = 0,
) -> QuadratureResult:
    """Partition function from the nested-integral series truncated at shell
    lam_max:

    Z(t) = 2 e^{t g^2} / (1 - e^{-t}) [ 1 + e^{-2 g^2 coth(t/2)}
           sum_{l=1}^{lam_max} (t Delta)^{2l} I_{2l}(t) ],

    with I_d the ordered-simplex integral estimated by sorting uniform
    samples (the trace normalization 2 comes from the two-level structure).
    The shell budgets are split proportionally to (t Delta)^{2l}.
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
        return QuadratureResult(pref, 0.0, 0, "MONTE_CARLO", seed=seed)

    damp = math.exp(-2.0 * g * g / math.tanh(0.5 * t))
    weights = [(t * delta) ** (2 * l) for l in range(1, lam_max + 1)]
    wsum = sum(weights)
    total = 1.0
    err2 = 0.0
    used = 0
    rng = _mc.philox_rng("qrm_partition", (g, delta, float(t), lam_max), seed)
    for l in range(1, lam_max + 1):
        d = 2 * l
        shell_budget = max(1000, int(budget * weights[l - 1] / wsum))
        if g == 0.0:
            # exponent vanishes identically: the integral is 1/d!
            mean, err = 1.0, 0.0
            n_used = 0
        else:

            def f(pts: np.ndarray) -> np.ndarray:
                mu = np.sort(pts, axis=1)
                return np.exp(_qrm_shell_exponent(mu, t, g))

            mean, err, n_used = _mc.mc_mean(f, d, shell_budget, rng)
        factor = weights[l - 1] * damp / math.factorial(d)
        total += factor * mean
        err2 += (factor * err) ** 2
        used += n_used
    return QuadratureResult(
        pref * total, pref * math.sqrt(err2), used, "MONTE_CARLO", seed=seed
    )


# ---------------------------------------------------------------------------
# heat-trace fit, quasi-partition, Mellin zeta
# ---------------------------------------------------------------------------


def _lstsq(A: np.ndarray, y: np.ndarray, limit: float, error: type) -> tuple:
    """Least-squares coefficients of A c ~ y and the RMS of the residual;
    raises ``error`` when the condition number of A exceeds ``limit``."""
    cond = np.linalg.cond(A)
    if cond > limit:
        raise error(f"design matrix condition number {cond:.3e} exceeds {limit:.0e}")
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
    coef, resid = _lstsq(np.stack(cols, axis=1) * w[:, None], z * w, 1e12, IllConditioned)
    odd = [float(c) for c in coef[1 : n_odd_terms + 1]]
    even = [float(c) for c in coef[n_odd_terms + 1 :]] if include_even else None
    return HeatTraceFit(
        c_minus1=float(coef[0]),
        odd_coeffs=odd,
        even_coeffs=even,
        residual=resid,
        t_grid=[float(x) for x in t],
    )


def quasi_partition(values: Sequence, residue: float, t: float) -> float:
    """sum_{k<=K} (-1)^k zeta_H(-k) t^k / k! + residue / t, with the
    caller-provided special values zeta_H(-k), k = 0..K.  The Rabi model's
    small-t model in ``mellin-zeta``, 2 (1/t - RB_1(0) + RB_2(0) t/2), is
    this series with residue 2 and values [-2 RB_1(0), -RB_2(0)]."""
    if t <= 0:
        raise ValueError("t must be positive")
    acc = [residue / t]
    tk = 1.0
    for k, v in enumerate(values):
        acc.append((-1.0) ** k * float(v) * tk / math.factorial(k))
        tk *= t
    return math.fsum(acc)


def qho_quasi_partition_values(K: int) -> list:
    """Exact zeta(-k, 1/2) inputs, k = 0..K."""
    if K < 0:
        raise ValueError("K must be non-negative")
    return [hurwitz_zeta_nonpos(k, Fraction(1, 2)) for k in range(K + 1)]


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
        return mult * gap**-s * float(hurwitz_zeta_num(s, (first + tau) / gap))

    value, half = _tail_bracket(spec, head, zeta_tail)
    return value, half + error


# ---------------------------------------------------------------------------
# Rabi-Bernoulli polynomials
# ---------------------------------------------------------------------------


@dataclass
class RabiBernoulli:
    """Polynomial in tau with coefficients polynomial in g^2 and Delta^2.

    ``terms`` maps (i_tau, i_g2, i_d2) -> Fraction.  Exact entries exist for
    k <= 2; higher k come from numeric fits with error bars.
    """

    k: int
    terms: dict

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
    if k > 4:
        raise UnsupportedIndex("numeric route supported for k <= 4")
    deg = k + 4
    t = np.linspace(0.02, 0.45, 24)
    y = np.array([0.5 * x * Z(x) * math.exp(-tau * x) for x in t])
    scale = float(np.max(t))
    A = np.stack([(t / scale) ** j for j in range(deg + 1)], axis=1)
    coef, resid = _lstsq(A, y, 1e10, FitUnstable)
    ck = coef[k] / scale**k
    est = (-1.0) ** k * math.factorial(k) * float(ck)
    # crude sensitivity: redo the fit dropping the last grid point
    coef2, _, _, _ = np.linalg.lstsq(A[:-1], y[:-1], rcond=None)
    est2 = (-1.0) ** k * math.factorial(k) * float(coef2[k] / scale**k)
    return est, abs(est - est2) + resid


def derivative_relation_check(
    zeta_fn: Callable[[float, float], float],
    s: float,
    n: int,
    tau: float,
    h: float = 1e-2,
) -> dict:
    """Central-difference d^n/dtau^n zeta(s; tau) against the analytic
    (-1)^n (s)_n zeta(s+n; tau); zeta_fn(s, tau) supplies the values."""
    if n == 0:
        lhs = zeta_fn(s, tau)
        rhs = lhs
    elif n == 1:
        lhs = (zeta_fn(s, tau + h) - zeta_fn(s, tau - h)) / (2 * h)
        rhs = -s * zeta_fn(s + 1, tau)
    elif n == 2:
        lhs = (
            zeta_fn(s, tau + h) - 2 * zeta_fn(s, tau) + zeta_fn(s, tau - h)
        ) / (h * h)
        rhs = s * (s + 1) * zeta_fn(s + 2, tau)
    else:
        raise ValueError("finite differences implemented for n <= 2")
    return {
        "s": s,
        "n": n,
        "tau": tau,
        "finite_difference": lhs,
        "analytic": rhs,
        "abs_error": abs(lhs - rhs),
    }
