"""Monte Carlo plumbing and the tensor Gauss rule: merged batch statistics,
reproducibility, the Gauss-Legendre nodes, and the chunked evaluation that
must leave every result bit-identical."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zetaforge
from zetaforge import _mc, specval


def test_standard_error_survives_a_large_mean():
    # f = 1e8 + 1e-3 U has standard deviation 1e-3/sqrt(12); a one-pass
    # E[x^2] - E[x]^2 variance loses it to cancellation
    n = 1_000_000
    rng = _mc.philox_rng("large-mean", (), 0)
    mean, err, used = _mc.mc_mean(lambda x: 1e8 + 1e-3 * x[:, 0], 1, n, rng)
    assert used == n
    assert abs(mean - (1e8 + 5e-4)) < 5 * err
    assert abs(err - 1e-3 / math.sqrt(12 * n)) < 0.01 * err


def test_batches_merge_to_the_single_pass_statistics():
    # uneven batches (4 x 2^18 + remainder) agree with one numpy pass
    n = 1_100_000
    f = lambda x: np.exp(x[:, 0] * x[:, 1])
    mean, err, _ = _mc.mc_mean(f, 2, n, _mc.philox_rng("merge", (), 3))
    vals = f(_mc.philox_rng("merge", (), 3).random((n, 2)))
    assert abs(mean - vals.mean()) < 1e-14
    assert abs(err - vals.std() / math.sqrt(n)) < 1e-12 * err


def test_bit_reproducible():
    runs = [
        _mc.mc_mean(lambda x: np.sin(x).sum(axis=1), 3, 600_000, _mc.philox_rng("rep", (1,), 7))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def _mc_mean_one_draw(f, dim, samples, rng):
    """The unchunked algorithm: one (m, dim) draw and one call of f per batch."""
    n_done, mean, m2 = 0, 0.0, 0.0
    while n_done < samples:
        m = min(_mc._BATCH, samples - n_done)
        vals = f(rng.random((m, dim)))
        b_mean = float(np.mean(vals))
        b_m2 = float(np.sum((vals - b_mean) ** 2))
        n_new = n_done + m
        delta = b_mean - mean
        mean += delta * m / n_new
        m2 += b_m2 + delta * delta * n_done * m / n_new
        n_done = n_new
    return mean, math.sqrt(m2 / n_done / n_done), n_done


# two full batches, then a remainder of three full chunks and a partial one
CHUNKED_SAMPLES = 2 * _mc._BATCH + 3 * _mc._CHUNK + 5


def test_chunks_are_bit_identical_to_one_draw_per_batch():
    f = specval._rkj_integrand(4, 2, 0.3)
    got = _mc.mc_mean(f, 4, CHUNKED_SAMPLES, _mc.philox_rng("chunks", (), 11))
    want = _mc_mean_one_draw(f, 4, CHUNKED_SAMPLES, _mc.philox_rng("chunks", (), 11))
    assert got == want


def test_integrand_sees_small_chunks_with_contiguous_columns():
    calls = []

    def f(x):
        calls.append((x.shape, all(x[:, i].flags.c_contiguous for i in range(x.shape[1]))))
        return x.sum(axis=1)

    _mc.mc_mean(f, 3, CHUNKED_SAMPLES, _mc.philox_rng("layout", (), 0))
    assert sum(shape[0] for shape, _ in calls) == CHUNKED_SAMPLES
    assert all(shape[0] <= _mc._CHUNK and shape[1] == 3 for shape, _ in calls)
    assert all(contiguous for _, contiguous in calls)


RULE_SIZES = [1, 2, 5, 16, 64, 256, 1000]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_nodes_and_weights_agree_with_leggauss(n):
    x, w = _mc.gauss_legendre_unit(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - 0.5 * (xr + 1.0))) <= 1e-14
    # at n = 1000 leggauss's own end weights are about 3e-14 off on [0, 1]
    # (against a 50-digit Newton solve); the monomial test below pins ours
    assert np.max(np.abs(w - 0.5 * wr)) <= (1e-14 if n < 1000 else 1e-13)


@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_integrates_monomials_exactly(n):
    # x^j for j <= 2n - 1 is exact up to rounding, about n ulps
    x, w = _mc.gauss_legendre_unit(n)
    eps = np.finfo(float).eps
    for j in range(2 * n):
        got = math.fsum(w * x**j)
        assert abs(got - 1.0 / (j + 1)) * (j + 1) <= 4 * n * eps, j


def _tensor_gauss_slabs(f, dim, nodes_per_axis):
    """The unchunked algorithm: one (n^(dim-1), dim) slab per last-axis node."""
    x, w = _mc.gauss_legendre_unit(nodes_per_axis)
    grids = np.meshgrid(*([x] * (dim - 1)), indexing="ij")
    wgrid = np.ones_like(grids[0])
    for g in np.meshgrid(*([w] * (dim - 1)), indexing="ij"):
        wgrid = wgrid * g
    flat = np.stack([g.ravel() for g in grids], axis=1)
    wflat = wgrid.ravel()
    acc = []
    for i, xi in enumerate(x):
        pts = np.concatenate([flat, np.full((flat.shape[0], 1), xi)], axis=1)
        acc.append(float(np.dot(wflat, f(pts)) * w[i]))
    return math.fsum(acc), nodes_per_axis**dim


# (k, j, nodes per axis); 24^3 and 100^2 points per slab exceed _CHUNK, and
# the slabs of 50 and 256 nodes in 2-D and of 8^3 in 4-D share calls
@pytest.mark.parametrize(
    "k, j, n",
    [(2, 1, 50), (2, 1, 256), (3, 1, 30), (3, 1, 100), (4, 2, 24), (4, 2, 8), (4, 1, 12)],
)
def test_tensor_gauss_is_bit_identical_to_whole_slabs(k, j, n):
    f = specval._rkj_integrand(k, j, 0.6)
    assert _mc.tensor_gauss(f, k, n) == _tensor_gauss_slabs(f, k, n)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_integral_peak_memory_does_not_grow_with_the_batch():
    # one 2^18 x 4 batch and its integrand temporaries grew the peak by about
    # 53 MB; chunked evaluation keeps it near the 2 MB result buffer.  The
    # peak is VmHWM, not ru_maxrss: a child's ru_maxrss starts at the RSS of
    # the process that spawned it, so under pytest it hides the growth.
    # specval and _mc load numpy only when a float kernel runs; load it
    # first by a call so the peak measures the integral, not the import.
    code = (
        "from zetaforge import _mc, specval\n"
        "_mc.gauss_legendre_unit(4)\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
        "before = peak_kb()\n"
        "specval.appendixB_integral('A', 1, 1, budget=2_000_000)\n"
        "print(peak_kb() - before)\n"
    )
    src = os.path.dirname(os.path.dirname(zetaforge.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert int(out.stdout) < 24 * 1024
