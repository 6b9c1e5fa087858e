"""The certified eigensolver behind ``spectra``, whose docstring gives the
method: it takes band blocks, section widths and lower eigenvalue bounds,
and knows no model.

The LAPACK routines come from scipy's f2py wrappers, the module behind
``scipy.linalg.lapack``, loaded from its file when this module is imported,
so that no process pays for importing ``scipy.linalg``: bisection and
inverse iteration (``dstebz``, ``dstein``) for the chains, and banded
bisection (``dsbevx``) with banded LU (``dgbtrf``, ``dgbtrs``) for the
biased band.  A section below N that is small against ``count`` takes all
its values from one root-free QR pass instead (``dsterf`` on each chain
block, ``dsbev`` on the band).  ``spectra`` imports this module inside its
solve path only, so numpy and LAPACK load at the first solve.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Callable, Optional

from ._np import np, quiet_blas
from .spectra import NotConverged


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
_SAFE_MIN = sys.float_info.min  # LAPACK's dlamch("s")
_EPS = sys.float_info.epsilon
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
        raise NotConverged(f"{name} did not converge (LAPACK info={info})")
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


def certify(deep: list, section_widths: Callable[[int], list], lower: np.ndarray,
            N: int, count: int, threshold: float) -> tuple:
    """(values, radii, section size, index proved) of the lowest ``count``
    eigenvalues of the N truncation, certified on the smallest leading
    section that converges, from the 2N truncation's blocks ``deep``, the
    rows ``section_widths(M)`` of each that the levels n < M fill, and a
    lower bound ``lower`` on each wanted eigenvalue of every truncation.
    A section below N is screened by its highest wanted value alone, one
    bisection and one vector.  One that passes takes all its values from a
    single QR pass (``qr`` in ``_chain_pairs`` and ``_band_pairs``) when it
    has at most ``_QR_ROWS`` rows per wanted value, else from bisection.
    The whole truncation always bisects: on the biased band its values are
    the bits of the ``_lowest`` reference.  Vectors, residuals and index
    proofs are the same on either route.  The radii are checked against
    ``threshold`` once, at the end, where NotConverged is raised: each is at
    least the smaller of its residual and its enclosure above ``lower``, so
    no earlier check on the whole truncation could fail where that one
    passes."""
    # identical sectors share their eigenpairs: solve one copy of each
    copies = _copies(deep)
    deep = deep[::copies]
    distinct = -(-count // copies)
    deep_band = np.concatenate(deep, axis=1)
    if not np.isfinite(deep_band).all():
        raise ValueError("array must not contain infs or NaNs")
    below = lambda sigma: _count_below(deep_band, sigma)
    for M in _sections(N, count):
        widths = section_widths(M)[::copies]
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
    return w, radii, M, proved
