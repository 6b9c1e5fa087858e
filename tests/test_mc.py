"""Monte Carlo plumbing: merged batch statistics and reproducibility."""

import math

import numpy as np

from zetaforge import _mc


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
