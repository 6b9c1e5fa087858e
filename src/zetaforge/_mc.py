"""Reproducible Monte Carlo plumbing.

Counter-based Philox streams keyed by (operation, parameters, seed), so a
given job is bit-reproducible regardless of evaluation order.  Integrands
see cache-sized chunks of at most ``_CHUNK`` points whose columns are
contiguous, taken in stream order, so chunking changes no sample and no
result.  Monte Carlo batch statistics are merged in a fixed order;
quadrature partials use math.fsum.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Tuple

import numpy as np

_BATCH = 1 << 18
# points per integrand call: a (_CHUNK, 4) block and the integrand's
# temporaries fit in cache, and an 8 MB batch of 2^18 rows does not
_CHUNK = 1 << 13


def philox_rng(op: str, params: tuple, seed: int) -> np.random.Generator:
    """Deterministic generator keyed by (op, params, seed)."""
    msg = f"{op}|{params!r}|{seed}".encode()
    key = int.from_bytes(hashlib.sha256(msg).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def mc_mean(
    f: Callable[[np.ndarray], np.ndarray],
    dim: int,
    samples: int,
    rng: np.random.Generator,
) -> Tuple[float, float, int]:
    """Mean and standard error of f over the unit cube [0,1]^dim.

    ``f`` maps an (m, dim) array to an (m,) array; it is called on chunks
    of at most ``_CHUNK`` rows whose columns ``x[:, i]`` are contiguous.
    The chunks are drawn in stream order, so the samples are those of one
    (m, dim) draw per batch.  Returns (mean, std_error, n_used).  Each batch
    of up to ``_BATCH`` samples contributes its count, mean and sum of
    squared deviations M2, merged in batch order with the pairwise update of
    Chan, Golub and LeVeque, so a large mean does not cancel the variance
    away.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n_done, mean, m2 = 0, 0.0, 0.0
    buf = np.empty(min(_BATCH, samples))
    while n_done < samples:
        m = min(_BATCH, samples - n_done)
        vals = buf[:m]
        for j in range(0, m, _CHUNK):
            draw = rng.random((min(_CHUNK, m - j), dim))
            vals[j : j + _CHUNK] = f(np.ascontiguousarray(draw.T).T)
        b_mean = float(np.mean(vals))
        b_m2 = float(np.sum((vals - b_mean) ** 2))
        n_new = n_done + m
        delta = b_mean - mean
        mean += delta * m / n_new
        m2 += b_m2 + delta * delta * n_done * m / n_new
        n_done = n_new
    std_err = math.sqrt(m2 / n_done / n_done)
    return mean, std_err, n_done


def gauss_legendre_unit(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def tensor_gauss(
    f: Callable[[np.ndarray], np.ndarray], dim: int, nodes_per_axis: int
) -> Tuple[float, int]:
    """Tensor-product Gauss-Legendre integral of f over [0,1]^dim.

    One slab per node of the last axis holds the grid of the leading axes
    as the rows of a (dim, n^(dim-1)) array; ``f`` sees it in chunks of at
    most ``_CHUNK`` points with contiguous columns.  Each slab is weighted
    with one dot product and the slabs are summed with math.fsum.  Needs
    dim >= 2.
    """
    x, w = gauss_legendre_unit(nodes_per_axis)
    wflat = np.ones(nodes_per_axis ** (dim - 1))
    for g in np.meshgrid(*([w] * (dim - 1)), indexing="ij"):
        wflat = wflat * g.ravel()
    cols = np.empty((dim, wflat.size))
    for row, g in zip(cols, np.meshgrid(*([x] * (dim - 1)), indexing="ij")):
        row[:] = g.ravel()
    vals = np.empty(wflat.size)
    acc = []
    for i, xi in enumerate(x):
        cols[-1] = xi
        for j in range(0, wflat.size, _CHUNK):
            vals[j : j + _CHUNK] = f(cols[:, j : j + _CHUNK].T)
        acc.append(float(np.dot(wflat, vals) * w[i]))
    return math.fsum(acc), nodes_per_axis**dim
