"""Reproducible Monte Carlo plumbing and the tensor Gauss-Legendre cube rule.

Counter-based Philox streams keyed by (operation, parameters, seed), so a
given job is bit-reproducible regardless of evaluation order.  Integrands
see cache-sized chunks of at most ``_CHUNK`` points whose columns are
contiguous, taken in stream order, so chunking changes no sample and no
result.  Monte Carlo batch statistics are merged in a fixed order;
quadrature partials use math.fsum.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

_BATCH = 1 << 18
# points per integrand call: a (_CHUNK, 4) block and the integrand's
# temporaries fit in cache, and an 8 MB batch of 2^18 rows does not
_CHUNK = 1 << 13


def philox_rng(op: str, params: tuple, seed: int) -> np.random.Generator:
    """Deterministic generator keyed by (op, params, seed)."""
    import hashlib  # here, not at the top: verify-all draws no random numbers

    from ._np import np

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
    from ._np import np

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


def _newton_legendre(n: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Newton step P_n(x) / P_n'(x) and Gauss weight 2 / ((1 - x^2) P_n'(x)^2).

    P_n comes from the three-term recurrence j P_j = (2j-1) x P_{j-1} -
    (j-1) P_{j-2}, and P_n' = n (P_{n-1} - x P_n) / (1 - x^2), where
    1 - x^2 = (1 - x)(1 + x) keeps its precision near x = 1.
    """
    p0, p1 = 1.0, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    dp = n * (p0 - x * p1) / one_minus_x2
    return p1 / dp, 2.0 / (one_minus_x2 * dp * dp)


def gauss_legendre_unit(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights mapped to [0, 1].

    The roots of P_n in [0, 1) come from Newton's method started at
    Tricomi's estimate.  Newton converges quadratically, so once a step is
    below 1e-11 the next is below rounding, and three steps suffice for
    n <= 3000.  The negative half is the mirror image.  This needs no
    eigensolver, so it never waits on the first dense eigensolve of numpy's
    BLAS.
    """
    from ._np import np

    if n < 1:
        raise ValueError("need at least one node")
    k = np.arange(1, (n + 1) // 2 + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n**3))
    for _ in range(100):
        step, _w = _newton_legendre(n, x)
        x = x - step
        if np.max(np.abs(step)) < 1e-11:
            break
    _, w = _newton_legendre(n, x)
    # x descends to the middle root (0 when n is odd), kept once
    x = np.concatenate([-x, x[::-1][n % 2 :]])
    w = np.concatenate([w, w[::-1][n % 2 :]])
    return 0.5 * (x + 1.0), 0.5 * w


def tensor_gauss(
    f: Callable[[np.ndarray], np.ndarray], dim: int, nodes_per_axis: int
) -> Tuple[float, int]:
    """Tensor-product Gauss-Legendre integral of f over [0,1]^dim.

    One slab per node of the last axis holds the grid of the leading axes
    as the rows of a (dim, n^(dim-1)) array; ``f`` sees it in chunks of at
    most ``_CHUNK`` points with contiguous columns.  When a slab is smaller
    than ``_CHUNK``, one call covers as many whole slabs as fit.  Each slab
    is weighted with its own dot product and the slabs are summed with
    math.fsum, so the grouping changes no result.  Needs dim >= 2.
    """
    from ._np import np

    x, w = gauss_legendre_unit(nodes_per_axis)
    wflat = np.ones(nodes_per_axis ** (dim - 1))
    for g in np.meshgrid(*([w] * (dim - 1)), indexing="ij"):
        wflat = wflat * g.ravel()
    m = wflat.size
    group = max(1, _CHUNK // m)  # slabs per integrand call
    cols = np.empty((dim, group * m))
    for row, g in zip(cols, np.meshgrid(*([x] * (dim - 1)), indexing="ij")):
        row[:] = np.tile(g.ravel(), group)
    vals = np.empty(group * m)
    acc = []
    for i in range(0, nodes_per_axis, group):
        xs = x[i : i + group]
        size = xs.size * m
        cols[-1, :size] = np.repeat(xs, m)
        for j in range(0, size, _CHUNK):
            end = min(j + _CHUNK, size)
            vals[j:end] = f(cols[:, j:end].T)
        for s, ws in enumerate(w[i : i + group]):
            acc.append(float(np.dot(wflat, vals[s * m : (s + 1) * m]) * ws))
    return math.fsum(acc), nodes_per_axis**dim
