"""Spectral solvers, partition functions, heat-trace fits, quasi-partition
functions and the Rabi-Bernoulli family.

Truncation sizes stay modest here (the acceptance suite runs the full-size
configurations).  Every spectrum is solved afresh from its parity sectors;
the dense truncation matrices are the small-N reference.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eig_banded, eigh

from zetaforge import _eig, spectra, specval
from zetaforge.exact import bernoulli_poly
from zetaforge.spectra import (
    IllConditioned,
    NchoParams,
    NonIntegrable,
    NotConverged,
    QrmParams,
    TailDominates,
    UnsupportedIndex,
    heat_trace_fit,
    ncho_eigen_bounds_ok,
    ncho_eigs,
    ncho_truncated_matrix,
    partition_callable,
    partition_from_spectrum,
    qho_spectrum,
    qho_quasi_partition_values,
    qrm_eigs,
    qrm_partition_series,
    qrm_truncated_matrix,
    quasi_partition,
    rabi_bernoulli_exact,
    rabi_bernoulli_numeric,
    spectral_zeta_direct,
    spectral_zeta_mellin,
)

F = Fraction
SQRT2 = math.sqrt(2.0)


def qho_partition(t: float) -> float:
    return math.exp(-t / 2) / -math.expm1(-t)


class TestMatrices:
    def test_ncho_matrix_symmetric_banded(self):
        H = ncho_truncated_matrix(NchoParams(2.0, 1.0), 32)
        assert np.array_equal(H, H.T)
        # couplings only at Hermite offsets {0, +-2}: interleaved index
        # distance <= 5
        n = H.shape[0]
        for i in range(n):
            for j in range(n):
                if abs(i - j) > 5:
                    assert H[i, j] == 0.0

    def test_qrm_matrix_symmetric(self):
        H = qrm_truncated_matrix(QrmParams(0.4, 0.3, 0.1), 32)
        assert np.array_equal(H, H.T)

    def test_diagonal_blocks(self):
        H = ncho_truncated_matrix(NchoParams(3.0, 2.0), 8)
        assert H[0, 0] == 3.0 * 0.5 and H[1, 1] == 2.0 * 0.5
        assert H[2, 2] == 3.0 * 1.5 and H[3, 3] == 2.0 * 1.5


SECTOR_CASES = [
    ("ncho", NchoParams(SQRT2, SQRT2)),
    ("ncho", NchoParams(2.0, 1.0)),
    ("ncho", NchoParams(1.2, 1.0)),
    ("qrm", QrmParams(0.0, 0.5)),
    ("qrm", QrmParams(0.5, 0.0)),
    ("qrm", QrmParams(0.4, 0.7)),
    ("qrm", QrmParams(0.4, 0.7, eps=0.3)),
]


class TestSectorSolver:
    # count = N is as many as the solvers may return; the smaller counts
    # take part of the union, and 7 and 45 fall unevenly across the chains
    @pytest.mark.parametrize(
        "N,count",
        [
            pytest.param(16, 16, id="16"),
            pytest.param(64, 64, id="64"),
            pytest.param(127, 127, id="127"),
            pytest.param(16, 1, id="16-count1"),
            pytest.param(64, 7, id="64-count7"),
            pytest.param(127, 45, id="127-count45"),
        ],
    )
    @pytest.mark.parametrize("model,params", SECTOR_CASES)
    def test_matches_dense_reference(self, model, params, N, count):
        if model == "ncho":
            sectors, dense = spectra._ncho_sectors(params, N), ncho_truncated_matrix(params, N)
        else:
            sectors, dense = spectra._qrm_sectors(params, N), qrm_truncated_matrix(params, N)
        assert sum(b.shape[1] for b in sectors) == dense.shape[0]
        ref = eigh(dense, eigvals_only=True, subset_by_index=(0, count - 1))
        vals = _eig._lowest(sectors, count)
        assert vals.shape == (count,) and np.all(np.diff(vals) >= 0)
        assert np.max(np.abs(vals - ref)) <= 1e-12

    def test_sector_shapes(self):
        ncho = spectra._ncho_sectors(NchoParams(2.0, 1.0), 9)
        qrm = spectra._qrm_sectors(QrmParams(0.4, 0.7), 9)
        biased = spectra._qrm_sectors(QrmParams(0.4, 0.7, 0.3), 9)
        assert [b.shape for b in ncho] == [(2, 5)] * 2 + [(2, 4)] * 2
        assert [b.shape for b in qrm] == [(2, 9)] * 2
        assert [b.shape for b in biased] == [(3, 18)]
        # _lowest lays the sectors side by side as one band; the unused
        # trailing slots of each sub-diagonal row make every seam zero
        for band in ncho + qrm + biased:
            for i in range(1, band.shape[0]):
                assert np.all(band[i, -i:] == 0.0)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: ncho_eigs(NchoParams(2.0, 1.0), N=128, count=10, threshold=1e-6),
            lambda: qrm_eigs(QrmParams(0.3, 0.5), N=128, count=10),
        ],
        ids=["ncho", "qrm"],
    )
    def test_mutating_a_result_does_not_leak(self, solve):
        first = solve()
        ground = first.eigenvalues[0]
        first.eigenvalues[0] = 999.0
        first.convergence[0] = 999.0
        again = solve()
        assert again.eigenvalues[0] == ground and again.convergence[0] < 1e-6


class TestLapackCall:
    """_lowest calls LAPACK's dsbevx without scipy.linalg; it must return
    what scipy.linalg.eig_banded returns for the same band, bit for bit."""

    @pytest.mark.parametrize(
        "N,count",
        [(16, 1), (16, 16), (127, 1), (127, 45), (127, 254), (256, 40), (256, 512)],
    )
    @pytest.mark.parametrize("model,params", SECTOR_CASES)
    def test_bit_identical_to_eig_banded(self, model, params, N, count):
        sectors = (spectra._ncho_sectors if model == "ncho" else spectra._qrm_sectors)(params, N)
        band = np.concatenate(sectors, axis=1)
        m = min(count, band.shape[1])
        ref = eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(0, m - 1))
        assert np.array_equal(_eig._lowest(sectors, count), ref)

    @pytest.mark.parametrize("spectra_first", [True, False], ids=["spectra-first", "scipy-first"])
    def test_either_import_order(self, run_python, spectra_first):
        imports = ["import zetaforge._eig as eig, zetaforge.spectra as sp", "import scipy.linalg"]
        code = "\n".join((imports if spectra_first else imports[::-1]) + [
            "import numpy as np",
            "blocks = sp._qrm_sectors(sp.QrmParams(0.4, 0.7, 0.3), 64)",
            "ref = scipy.linalg.eig_banded(np.concatenate(blocks, axis=1), lower=True,",
            "    eigvals_only=True, select='i', select_range=(0, 9))",
            "print(np.array_equal(eig._lowest(blocks, 10), ref))",
        ])
        assert run_python(code) == "True"

    @pytest.mark.parametrize("timeout", [None, "8"], ids=["unset", "user-set"])
    def test_import_leaves_environment_unchanged(self, run_python, timeout):
        # the value OpenBLAS reads is set (or unset) before anything links it
        code = ["import os", "os.environ.pop('OPENBLAS_THREAD_TIMEOUT', None)"]
        if timeout is not None:
            code.append(f"os.environ['OPENBLAS_THREAD_TIMEOUT'] = {timeout!r}")
        code += [
            "before = dict(os.environ)",
            "import zetaforge._eig",
            "print(dict(os.environ) == before, os.environ.get('OPENBLAS_THREAD_TIMEOUT'))",
        ]
        assert run_python("\n".join(code)) == f"True {timeout}"


class TestDeepBounds:
    """Proved eigenvalue bounds (at N = 4096) and the certified radii (at
    32 N) checked against deep truncations."""

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("delta,eps", [(0.3, 0.0), (1.2, 0.0), (0.7, 0.4)])
    def test_qrm_pair_bracket(self, g, delta, eps):
        # pair m of a+a + g (a + a+) sx sits at m - g^2; the remaining terms
        # have norm at most d = delta + |eps|
        spec = qrm_eigs(QrmParams(g, delta, eps), N=4096, count=40)
        d = delta + abs(eps)
        for i, lam in enumerate(spec.eigenvalues):
            m = i // 2
            assert m - g * g - d - 1e-9 <= lam <= m - g * g + d + 1e-9, (i, lam)

    @pytest.mark.parametrize("alpha,beta", [(1.2, 1.0), (1.1, 1.1), (2.0, 0.6), (3.0, 1.5)])
    def test_ncho_pair_bounds(self, alpha, beta):
        spec = ncho_eigs(NchoParams(alpha, beta), N=4096, count=40, threshold=1e-8)
        assert ncho_eigen_bounds_ok(spec, slack=1e-9)

    @pytest.mark.parametrize(
        "model,params",
        [("ncho", NchoParams(a, b)) for a, b in [(1.02, 1.0), (1.1, 0.95), (1.2, 1.0), (3.0, 1.5)]]
        + [("qrm", QrmParams(g, 0.7)) for g in (0.5, 1.5, 3.0)]
        + [("qrm", QrmParams(3.0, 0.7, 0.4))],
    )
    def test_convergence_estimate_bounds_deep_error(self, model, params):
        # the certified radius must cover the distance to the truncation at
        # 32 N, up to rounding; on this grid the small N are far from
        # converged (errors up to 8 at N = 32)
        sectors = spectra._ncho_sectors if model == "ncho" else spectra._qrm_sectors
        count = 32
        for N in (32, 64, 128, 256):
            spec = spectra._solve(model, params, sectors, N, count, math.inf)
            lam, radius = np.array(spec.eigenvalues), np.array(spec.convergence)
            norm = _eig._norm_bound(np.concatenate(sectors(params, N), axis=1))  # Gershgorin
            error = np.abs(lam - _eig._lowest(sectors(params, 32 * N), count))
            slack = 64.0 * np.finfo(float).eps * norm
            assert np.all(error <= radius + slack), (N, np.max(error - radius))


AGREEMENT_MODELS = [
    ("ncho", NchoParams(SQRT2, SQRT2)),
    ("ncho", NchoParams(2.0, 1.0)),
    ("ncho", NchoParams(1.2, 1.0)),
    ("ncho", NchoParams(3.0, 1.5)),
    ("ncho", NchoParams(2.5, 0.6)),
    ("qrm", QrmParams(0.0, 0.5)),
    ("qrm", QrmParams(0.5, 0.0)),
    ("qrm", QrmParams(0.4, 0.7)),
    ("qrm", QrmParams(1.5, 0.3)),
    ("qrm", QrmParams(0.4, 0.7, eps=0.3)),
    ("qrm", QrmParams(0.5, 0.0, eps=0.3)),
    ("qrm", QrmParams(1.0, 1.2, eps=0.5)),
]


class TestPairBoundsCheck:
    """``ncho_eigen_bounds_ok`` reads ``_pair_bounds``: pair j (eigenvalues
    2j and 2j + 1, from 0) lies in [(j + 1/2) a_min, (j + 1/2) a_max]."""

    PARAMS = NchoParams(2.2, 1.3)
    SLACK = 1e-6

    @pytest.mark.parametrize("index", [0, 1, 6, 9])
    @pytest.mark.parametrize("past", [0.5, 2.0])
    def test_flips_past_the_slack(self, index, past):
        p = self.PARAMS
        f = math.sqrt(1.0 - 1.0 / (p.alpha * p.beta))
        a_min, a_max = min(p.alpha, p.beta) * f, max(p.alpha, p.beta) * f
        eigs = [(j + 0.5) * 0.5 * (a_min + a_max) for j in range(5) for _ in (0, 1)]
        j = index // 2
        # the first of a pair moves below its lower edge, the second above its upper
        eigs[index] = (j + 0.5) * a_min - past * self.SLACK if index % 2 == 0 else (
            (j + 0.5) * a_max + past * self.SLACK
        )
        spec = spectra.SpectrumResult(eigs, "ncho", p, 5, [0.0] * 10, 5, True)
        assert ncho_eigen_bounds_ok(spec, slack=self.SLACK) == (past < 1.0)


class TestCertifiedSolve:
    """The solvers certify a leading section; their values must be the N
    truncation's own lowest eigenvalues, each within its radius."""

    # an odd N, counts from 1 to 200, sections that converge early and ones
    # that only converge at N
    @pytest.mark.parametrize("N,count", [(32, 1), (64, 7), (127, 45), (256, 40), (512, 200)])
    @pytest.mark.parametrize("model,params", AGREEMENT_MODELS)
    def test_matches_full_truncation(self, model, params, N, count):
        solve, sectors = (
            (ncho_eigs, spectra._ncho_sectors) if model == "ncho" else (qrm_eigs, spectra._qrm_sectors)
        )
        spec = solve(params, N=N, count=count, threshold=math.inf)
        full = _eig._lowest(sectors(params, N), count)
        slack = 64.0 * np.finfo(float).eps * _eig._norm_bound(np.concatenate(sectors(params, N), axis=1))
        deviation = np.abs(np.array(spec.eigenvalues) - full)
        assert len(spec.eigenvalues) == count and spec.index_proved
        assert spec.section_N <= N and spec.truncation_N == N
        assert np.max(deviation) <= slack
        assert np.all(deviation <= np.array(spec.convergence) + slack)

    def test_small_sections_certify_converged_values(self):
        # the lowest 40 converge long before N = 1024: one small section
        # holds them, at the rounding floor
        spec = qrm_eigs(QrmParams(0.5, 0.7), N=1024, count=40)
        assert spec.section_N < 1024 and max(spec.convergence) < 1e-11

    def test_unproved_index_is_labelled_an_enclosure(self):
        # at g = 0 the biased levels are n -/+ sqrt(Delta^2 + eps^2) exactly;
        # the whole truncation at N = 33 ends with 32.58, while the 2N
        # truncation's 66th eigenvalue is 32.42, so no count can prove the
        # index there: the radii fall back to the pair bounds, which do hold
        params = QrmParams(0.0, 0.5, 0.3)
        spec = qrm_eigs(params, N=33, count=66, threshold=math.inf)
        assert not spec.index_proved
        lam, radius = np.array(spec.eigenvalues), np.array(spec.convergence)
        assert np.array_equal(lam, _eig._lowest(spectra._qrm_sectors(params, 33), 66))
        deep = _eig._lowest(spectra._qrm_sectors(params, 66), 66)
        assert np.all(np.abs(lam - deep) <= radius) and radius.max() > 1.0
        with pytest.raises(NotConverged):
            qrm_eigs(params, N=33, count=66)

    @pytest.mark.parametrize("solve", [ncho_eigs, qrm_eigs], ids=["ncho", "qrm"])
    def test_count_above_the_truncation_is_a_typed_error(self, solve):
        params = NchoParams(2.0, 1.0) if solve is ncho_eigs else QrmParams(0.5, 0.7)
        assert len(solve(params, N=9, count=18, threshold=math.inf).eigenvalues) == 18
        with pytest.raises(ValueError, match="size of the truncation"):
            solve(params, N=9, count=19)


class _Spy:
    """Stands in for ``_eig._flapack`` and records each routine fetched."""

    def __init__(self, module):
        self.module, self.calls = module, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.module, name)


SECTION_MODELS = [
    ("ncho", NchoParams(2.0, 1.4)),
    ("ncho", NchoParams(SQRT2, SQRT2)),
    ("qrm", QrmParams(0.0, 0.5)),
    ("qrm", QrmParams(0.6, 0.9)),
    ("qrm", QrmParams(0.6, 0.9, 0.35)),
]


class TestSectionsAndRoutes:
    """Each section is cut from the one 2N build, and a section below N that
    is small against ``count`` takes its values from one QR pass."""

    @pytest.mark.parametrize("M", [16, 64, 127, 256])
    @pytest.mark.parametrize("model,params", SECTION_MODELS)
    def test_cut_blocks_are_the_sections_own(self, model, params, M):
        sectors = spectra._ncho_sectors if model == "ncho" else spectra._qrm_sectors
        deep = sectors(params, 512)
        kept = [block.copy() for block in deep]
        cut = [_eig._cut(full, w) for w, full in zip(spectra._section_widths(model, params, M), deep)]
        own = sectors(params, M)
        assert len(cut) == len(own)
        for a, b in zip(cut, own):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert all(np.array_equal(a, b) for a, b in zip(deep, kept))

    @pytest.mark.parametrize(
        "solve,params,routine",
        [(ncho_eigs, NchoParams(2.0, 1.4), "dsterf"), (qrm_eigs, QrmParams(0.6, 0.9, 0.35), "dsbev")],
        ids=["ncho", "biased"],
    )
    def test_accepted_section_takes_one_qr_pass(self, monkeypatch, solve, params, routine):
        spy = _Spy(_eig._flapack)
        monkeypatch.setattr(_eig, "_flapack", spy)
        spec = solve(params, N=1024, count=40)
        assert spec.section_N < 1024 and spec.index_proved
        assert routine in spy.calls
        if routine == "dsbev":
            # every other banded bisection is a single-index screen
            assert spy.calls.count("dsbev") == 1
            assert spy.calls.count("dsbevx") == int(math.log2(spec.section_N // 64)) + 1

    def test_whole_truncation_bisects(self, monkeypatch):
        spy = _Spy(_eig._flapack)
        monkeypatch.setattr(_eig, "_flapack", spy)
        params = QrmParams(0.0, 0.5, 0.3)
        spec = qrm_eigs(params, N=33, count=66, threshold=math.inf)
        assert spec.section_N == 33 and "dsbevx" in spy.calls
        assert "dsbev" not in spy.calls and "dsterf" not in spy.calls
        lam = np.array(spec.eigenvalues)
        assert np.array_equal(lam, _eig._lowest(spectra._qrm_sectors(params, 33), 66))

    def test_qr_values_on_split_rungs(self):
        # at g = 0 every rung is a block of one row
        blocks = spectra._qrm_sectors(QrmParams(0.0, 0.7), 64)
        band = np.concatenate(blocks, axis=1)
        kept = band.copy()
        w, firsts, vectors = _eig._chain_pairs(band, 1, 40, qr=True)
        order = np.argsort(w, kind="stable")
        slack = 64.0 * np.finfo(float).eps * _eig._norm_bound(band)
        assert np.max(np.abs(w[order] - _eig._lowest(blocks, 40))) <= slack
        assert np.array_equal(band[0, firsts], w)  # each value is its own row's
        for part, z in vectors(np.arange(40)):
            assert np.array_equal(np.abs(z), np.eye(128)[firsts[part]])
        assert np.array_equal(band, kept)

    @pytest.mark.parametrize("model,params", SECTION_MODELS)
    def test_routes_agree(self, model, params):
        sectors = spectra._ncho_sectors if model == "ncho" else spectra._qrm_sectors
        band = np.concatenate(sectors(params, 64), axis=1)
        kept = band.copy()
        pairs = _eig._chain_pairs if band.shape[0] == 2 else _eig._band_pairs
        w, firsts, vectors = pairs(band, 1, 40, qr=True)
        w0, firsts0, _ = pairs(band, 1, 40)
        slack = 64.0 * np.finfo(float).eps * _eig._norm_bound(band)
        assert np.max(np.abs(np.sort(w) - np.sort(w0))) <= slack
        # the same blocks, up to which of a tie at the top is taken (at g = 0,
        # Delta = 1/2, level n + 1/2 of one rung is n + 1 - 1/2 of the next)
        below = lambda values, rows: sorted(rows[values < w0.max() - slack].tolist())
        assert below(w, firsts) == below(w0, firsts0)
        # dstein takes the QR route's grouping, and its vectors are the values'
        dense = np.diag(band[0])
        for i in range(1, band.shape[0]):
            dense += np.diag(band[i, :-i], -i) + np.diag(band[i, :-i], i)
        for part, z in vectors(np.arange(len(w))):
            r = dense @ z.T - z.T * w[part]
            assert np.all(np.linalg.norm(r, axis=0) <= slack * np.linalg.norm(z, axis=1))
        assert np.array_equal(band, kept)


class TestNchoEigs:
    def test_equal_parameters_exact_spectrum(self):
        spec = ncho_eigs(NchoParams(SQRT2, SQRT2), N=256, count=20, threshold=1e-8)
        exact = sorted([n + 0.5 for n in range(12)] * 2)[:20]
        assert max(abs(a - b) for a, b in zip(spec.eigenvalues, exact)) < 1e-8

    def test_lower_bound_lemma(self):
        spec = ncho_eigs(NchoParams(2.0, 1.0), N=256, count=20, threshold=1e-6)
        assert spec.eigenvalues[0] >= 0.5 * math.sqrt(0.5) - 1e-9
        assert ncho_eigen_bounds_ok(spec)

    def test_pair_multiplicity_clusters(self):
        spec = ncho_eigs(NchoParams(2.0, 1.0), N=256, count=30, threshold=1e-6)
        ev = spec.eigenvalues
        # no three consecutive eigenvalues coincide
        for i in range(len(ev) - 2):
            assert not (
                abs(ev[i] - ev[i + 1]) < 1e-9 and abs(ev[i + 1] - ev[i + 2]) < 1e-9
            )

    def test_variational_monotonicity(self):
        p = NchoParams(2.5, 0.6)
        lowN = _eig._lowest(spectra._ncho_sectors(p, 64), 20)
        highN = _eig._lowest(spectra._ncho_sectors(p, 128), 20)
        assert np.all(highN <= lowN + 1e-12)

    def test_weyl_slope(self):
        p = NchoParams(2.0, 1.0)
        spec = ncho_eigs(p, N=512, count=120, threshold=1e-6)
        ev = spec.eigenvalues
        js = np.arange(1, len(ev) // 2 + 1)
        pairs = np.array([ev[2 * j - 1] for j in js])
        slope = np.polyfit(js, pairs, 1)[0]
        f = math.sqrt(1 - 1 / (2.0 * 1.0))
        lo, hi = 1.0 * f, 2.0 * f
        assert lo * 0.95 <= slope <= hi * 1.05

    def test_not_converged_raises(self):
        with pytest.raises(NotConverged):
            ncho_eigs(NchoParams(2.0, 1.0), N=64, count=60, threshold=1e-12)


class TestQrmEigs:
    def test_decoupled(self):
        spec = qrm_eigs(QrmParams(0.0, 0.0), N=64, count=10)
        assert np.allclose(spec.eigenvalues, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4], atol=1e-10)

    def test_split_only(self):
        spec = qrm_eigs(QrmParams(0.0, 0.5), N=64, count=9)
        target = sorted(n + s * 0.5 for n in range(6) for s in (-1, 1))[:9]
        assert np.allclose(spec.eigenvalues, target, atol=1e-10)

    def test_displaced_only(self):
        spec = qrm_eigs(QrmParams(0.7, 0.0), N=128, count=10)
        target = sorted([n - 0.49 for n in range(5)] * 2)
        assert np.allclose(spec.eigenvalues, target, atol=1e-9)

    def test_ground_state_bound(self):
        q = QrmParams(0.7, 0.5)
        spec = qrm_eigs(q, N=128, count=4)
        assert spec.eigenvalues[0] >= -(0.7**2) - 0.5 - 1e-9

    def test_biased_model(self):
        spec = qrm_eigs(QrmParams(0.3, 0.5, eps=0.2), N=128, count=6)
        sym = qrm_eigs(QrmParams(0.3, 0.5), N=128, count=6)
        assert spec.eigenvalues[0] < sym.eigenvalues[0] + 1e-12


class TestPartition:
    def test_qho_closed_form(self):
        spec = qho_spectrum(40)
        z, h = partition_from_spectrum(spec, 1.0, tail="QHO_BOUND")
        assert h == 0.0
        assert abs(z - qho_partition(1.0)) < 1e-14

    def test_ncho_equal_parameters(self):
        spec = ncho_eigs(NchoParams(SQRT2, SQRT2), N=256, count=40, threshold=1e-7)
        z, h = partition_from_spectrum(spec, 0.5, tail="QHO_BOUND")
        target = 2 * math.exp(-0.25) / -math.expm1(-0.5)
        assert abs(z - target) < max(h, 1e-9) + 1e-9

    def test_strictly_decreasing_in_t(self):
        spec = qho_spectrum(60)
        zs = [partition_from_spectrum(spec, t)[0] for t in (0.3, 0.6, 1.0, 2.0)]
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_two_sided_global_bracket(self):
        # the tail-completed value stays inside the global oscillator bound
        p = NchoParams(2.0, 1.0)
        spec = ncho_eigs(p, N=512, count=120, threshold=1e-6)
        f = math.sqrt(1 - 1 / 2.0)
        lo_w, hi_w = 2.0 * f, 1.0 * f  # max gives lower bound
        for t in (0.1, 0.5, 1.0, 2.0):
            z, h = partition_from_spectrum(spec, t, tail="QHO_BOUND")
            lower = 2 * math.exp(-t / 2 * lo_w) / -math.expm1(-t * lo_w)
            upper = 2 * math.exp(-t / 2 * hi_w) / -math.expm1(-t * hi_w)
            assert lower - 1e-12 <= z - h and z + h <= upper + 1e-12

    def test_tail_dominates_raises(self):
        spec = ncho_eigs(NchoParams(2.0, 1.0), N=128, count=10, threshold=1e-6)
        with pytest.raises(TailDominates):
            partition_from_spectrum(spec, 0.05, tail="QHO_BOUND")


# spectra in closed form, as (first, gap, multiplicity) progressions: the
# oscillator at alpha = beta = a has levels (n + 1/2) sqrt(a^2 - 1), twice;
# the Rabi model has n -/+ Delta at g = 0 and n - g^2, twice, at Delta = 0
CLOSED_FORM_SPECTRA = [
    (lambda: ncho_eigs(NchoParams(SQRT2, SQRT2), N=256, count=40), [(0.5, 1.0, 2)]),
    (lambda: ncho_eigs(NchoParams(2.0, 2.0), N=256, count=40),
     [(0.5 * math.sqrt(3.0), math.sqrt(3.0), 2)]),
    (lambda: qrm_eigs(QrmParams(0.0, 0.3), N=256, count=40), [(-0.3, 1.0, 1), (0.3, 1.0, 1)]),
    (lambda: qrm_eigs(QrmParams(0.7, 0.0), N=256, count=40), [(-0.49, 1.0, 2)]),
]


class TestHeadErrorInHalfWidth:
    """The half-widths hold the error the eigenvalues' radii put into the
    partial sums, so closed forms stay inside with no further slack."""

    @pytest.mark.parametrize("solve,progressions", CLOSED_FORM_SPECTRA,
                             ids=["ncho-sqrt2", "ncho-2-2", "qrm-g0", "qrm-delta0"])
    def test_closed_forms_inside(self, solve, progressions):
        spec = solve()
        for t in (0.3, 1.0, 2.5):
            exact = math.fsum(m * math.exp(-t * a) / -math.expm1(-t * d) for a, d, m in progressions)
            value, half = partition_from_spectrum(spec, t, tail="QHO_BOUND")
            assert abs(value - exact) <= half, t
        for s in (2.0, 3.0):
            exact = math.fsum(
                m * d**-s * float(specval.hurwitz_zeta_num(s, (a + 1.0) / d)) for a, d, m in progressions
            )
            value, half = spectral_zeta_direct(spec, s, 1.0)
            assert abs(value - exact) <= half, s

    def test_head_error_terms(self):
        spec = qho_spectrum(4)
        spec.convergence = [1e-3, 0.0, 2e-3, 0.0]
        _, half = partition_from_spectrum(spec, 2.0)
        largest_slopes = 2.0 * (math.exp(-2.0 * (0.5 - 1e-3)) * 1e-3 + math.exp(-2.0 * (2.5 - 2e-3)) * 2e-3)
        assert largest_slopes <= half <= largest_slopes * math.exp(2.0 * 2e-3)
        exact_tail = spectral_zeta_direct(qho_spectrum(4), 2.0, 1.0)[1]
        _, half = spectral_zeta_direct(spec, 2.0, 1.0)
        assert half - exact_tail == pytest.approx(2.0 * ((1.5 - 1e-3) ** -3 * 1e-3 + (3.5 - 2e-3) ** -3 * 2e-3))


class TestShiftBelowGroundState:
    """The zeta sum, like the Mellin integral, needs every lambda - r + tau > 0."""

    def test_direct_sum_refuses(self):
        spec = qrm_eigs(QrmParams(0.7, 1.2), N=128, count=40)
        edge = spec.eigenvalues[0] - spec.convergence[0]  # about -1.361
        # (2.5, 0.5) raised an untyped TypeError on a complex sum; (2, 1)
        # returned a real value although lambda_0 + tau < 0
        for s, tau in ((2.5, 0.5), (2.0, 1.0), (2.0, -edge)):
            with pytest.raises(NonIntegrable):
                spectral_zeta_direct(spec, s, tau)
        value, half = spectral_zeta_direct(spec, 2.0, 0.1 - edge)
        assert math.isfinite(value) and math.isfinite(half)

    def test_weyl_sum_refuses(self):
        spec = ncho_eigs(NchoParams(2.0, 1.0), N=256, count=40)
        edge = spec.eigenvalues[0] - spec.convergence[0]  # about 0.367
        # (2.5, -1) raised an untyped TypeError on a complex sum; (2, -1)
        # returned 55.5 although lambda_0 + tau < 0
        for s, tau in ((2.5, -1.0), (2.0, -1.0), (2.0, -edge)):
            with pytest.raises(NonIntegrable):
                spectra.spectral_zeta_weyl(spec, s, tau)
        assert math.isfinite(spectra.spectral_zeta_weyl(spec, 2.0, 0.1 - edge))


def _sorted_sample_series(q, t, lam_max, samples, seed):
    """The stochastic oracle of qrm_partition_series: each shell's simplex
    integral is the mean of the integrand at sorted uniform samples over d!;
    returns (Z, standard error)."""
    rng = np.random.default_rng(seed)
    g, delta = q.g, q.delta
    pref = 2.0 * math.exp(t * g * g) / -math.expm1(-t)
    damp = math.exp(-2.0 * g * g / math.tanh(0.5 * t))
    total, var = 1.0, 0.0
    for l in range(1, lam_max + 1):
        d = 2 * l
        vals = np.exp(spectra._qrm_shell_exponent(np.sort(rng.random((samples, d)), axis=1), t, g))
        factor = (t * delta) ** d * damp / math.factorial(d)
        total += factor * vals.mean()
        var += (factor * vals.std() / math.sqrt(samples)) ** 2
    return pref * total, pref * math.sqrt(var)


class TestQrmPartitionSeries:
    def test_delta_zero_exact(self):
        q = QrmParams(0.3, 0.0)
        res = qrm_partition_series(q, 1.0, lam_max=2, budget=1000)
        spec = qrm_eigs(q, N=256, count=40, threshold=1e-9)
        z, _ = partition_from_spectrum(spec, 1.0, tail="QHO_BOUND")
        assert abs(res.value - z) < 1e-8

    def test_g_zero_closed_form(self):
        q = QrmParams(0.0, 0.5)
        res = qrm_partition_series(q, 1.0, lam_max=2, budget=1000)
        closed = 2 * math.cosh(0.5) / -math.expm1(-1.0)
        # truncation error is the (t Delta)^6/6! shell
        assert abs(res.value - closed) < 2 * (0.5**6) / 720 * closed
        spec = qrm_eigs(q, N=256, count=40, threshold=1e-9)
        z, _ = partition_from_spectrum(spec, 1.0, tail="QHO_BOUND")
        assert abs(z - closed) < 1e-8

    def test_against_spectral_oracle(self):
        q = QrmParams(0.3, 0.5)
        res = qrm_partition_series(q, 1.0, lam_max=2, budget=400_000)
        spec = qrm_eigs(q, N=256, count=60, threshold=1e-9)
        z, h = partition_from_spectrum(spec, 1.0, tail="QHO_BOUND")
        assert abs(res.value - z) <= max(1e-3, 3 * res.std_error + h)

    @pytest.mark.parametrize("g, delta", [(0.3, 0.5), (1.0, 1.0)])
    def test_against_sorted_sample_monte_carlo(self, g, delta):
        q = QrmParams(g, delta)
        res = qrm_partition_series(q, 1.0, lam_max=2)
        assert res.method == "TENSOR_GAUSS"
        mc, sigma = _sorted_sample_series(q, 1.0, 2, 200_000, seed=11)
        assert abs(res.value - mc) <= 5 * sigma + res.std_error

    def test_found_case_pinned(self):
        # g = 0.3, Delta = 1, t = 1: the Monte Carlo series sat 149 sigma from
        # the spectral Z = 5.2331260; the rule resolves the two shells to
        # 1e-9, so the whole gap is the truncated shells l >= 3
        res = qrm_partition_series(QrmParams(0.3, 1.0), 1.0, lam_max=2)
        assert abs(res.value - 5.228590957) <= 1e-9
        assert res.std_error <= 1e-9

    def test_deterministic(self):
        q = QrmParams(0.3, 0.5)
        a = qrm_partition_series(q, 1.0, lam_max=1, budget=20_000)
        b = qrm_partition_series(q, 1.0, lam_max=1, budget=20_000)
        assert a.value == b.value


class TestHeatTraceFit:
    def test_qho_laurent_oracle(self):
        # exact expansion: 1/t - t/24 + 7 t^3/5760 - ...
        fit = heat_trace_fit(qho_partition, np.linspace(0.05, 1.0, 24), n_odd_terms=4)
        assert abs(fit.c_minus1 - 1.0) < 1e-8
        assert abs(fit.odd_coeffs[0] - (-1.0 / 24.0)) < 1e-6
        assert abs(fit.odd_coeffs[1] - 7.0 / 5760.0) < 1e-4
        assert fit.residual < 1e-9

    def test_even_power_diagnostic_consistent_with_zero(self):
        fit = heat_trace_fit(
            qho_partition, np.linspace(0.05, 1.0, 30), n_odd_terms=4, include_even=True
        )
        assert all(abs(c) < 1e-6 for c in fit.even_coeffs)

    def test_rank_deficient_grid_is_ill_conditioned(self):
        with pytest.raises(IllConditioned, match="exceeds 1e\\+12"):
            heat_trace_fit(qho_partition, [0.5] * 10)

    def test_ncho_residue_sqrt2(self):
        spec = ncho_eigs(NchoParams(SQRT2, SQRT2), N=512, count=120, threshold=1e-6)
        fit = heat_trace_fit(partition_callable(spec), np.linspace(0.15, 1.0, 20))
        assert abs(fit.c_minus1 - 2.0) < 0.02 * 2.0

    def test_ncho_residue_asymmetric(self):
        a, b = 2.5, 0.6
        residue = (a + b) / math.sqrt(a * b * (a * b - 1))
        spec = ncho_eigs(NchoParams(a, b), N=512, count=120, threshold=1e-6)
        fit = heat_trace_fit(partition_callable(spec), np.linspace(0.15, 1.0, 20))
        assert abs(fit.c_minus1 - residue) < 0.02 * residue


class TestQuasiPartition:
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_qho_identity(self, t):
        vals = qho_quasi_partition_values(30)
        assert abs(quasi_partition(vals, 1.0, t) - qho_partition(t)) < 1e-10

    def test_single_term(self):
        assert quasi_partition([F(3, 4)], 2.0, 0.5) == 0.75 + 4.0

    def test_truncation_error_bounded_by_next_term(self):
        vals = qho_quasi_partition_values(16)
        t = 0.5
        approx = quasi_partition(vals, 1.0, t)
        nxt = abs(float(qho_quasi_partition_values(17)[17])) * t**17 / math.factorial(17)
        assert abs(approx - qho_partition(t)) < 2 * nxt + 1e-15


class TestMellinZeta:
    def test_qho_value(self):
        val = spectral_zeta_mellin(qho_partition, 2.0, 0.0)
        assert abs(val - math.pi**2 / 2) < 1e-8

    @pytest.mark.parametrize("s", [1.01, 1.05, 1.2, 1.5, 2.5])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_qho_hurwitz_near_the_pole(self, s, tau):
        # sum_n (n + 1/2 + tau)^{-s}; t^{s-2} at t = 0 is steepest as s -> 1
        val = spectral_zeta_mellin(qho_partition, s, tau)
        exact = float(specval.hurwitz_zeta_num(s, 0.5 + tau))
        assert abs(val - exact) <= 1e-10 * exact

    def test_qrm_vs_direct(self):
        q = QrmParams(0.3, 0.5)
        spec = qrm_eigs(q, N=768, count=380, threshold=1e-3)
        Z = partition_callable(spec)
        rb1, rb2 = rabi_bernoulli_exact(1), rabi_bernoulli_exact(2)

        def small_t(t):
            return 2.0 * (
                1.0 / t
                - rb1.evaluate_float(0.0, 0.09, 0.25)
                + rb2.evaluate_float(0.0, 0.09, 0.25) * t / 2.0
            )

        val = spectral_zeta_mellin(Z, 3.0, 2.0, small_t_model=small_t, t_cut=0.1)
        ref, half = spectral_zeta_direct(spec, 3.0, 2.0)
        assert abs(val - ref) < max(1e-6, 3 * half)

    def test_ncho_vs_closed_form(self):
        p = NchoParams(2.0, 1.0)
        spec = ncho_eigs(p, N=512, count=120, threshold=1e-6)
        Z = partition_callable(spec)
        fit = heat_trace_fit(Z, np.linspace(0.15, 1.0, 20))
        model = lambda t: fit.c_minus1 / t + fit.odd_coeffs[0] * t
        val = spectral_zeta_mellin(Z, 2.0, 0.0, small_t_model=model, t_cut=0.1)
        closed = specval.zetaQ2_closed(p)
        assert abs(val - closed) < 0.01 * closed


class TestRabiBernoulli:
    def test_exact_table(self):
        assert rabi_bernoulli_exact(0).evaluate(5, 1, 1) == 1
        rb1 = rabi_bernoulli_exact(1)
        assert rb1.evaluate(F(2), F(9, 100), 0) == F(2) - F(1, 2) - F(9, 100)
        rb2 = rabi_bernoulli_exact(2)
        g2, d2 = F(9, 100), F(1, 4)
        assert rb2.evaluate(F(3), g2, d2) == (
            F(9) - (1 + 2 * g2) * 3 + F(1, 6) + g2 + g2 * g2 + d2
        )

    def test_reduces_to_bernoulli_polynomial(self):
        for k in (0, 1, 2):
            rb = rabi_bernoulli_exact(k)
            for tau in (F(0), F(1, 2), F(3)):
                assert rb.evaluate(tau, 0, 0) == bernoulli_poly(k, tau)

    def test_monic_in_tau(self):
        for k in (1, 2):
            rb = rabi_bernoulli_exact(k)
            assert rb.terms[(k, 0, 0)] == 1

    def test_difference_differential_relation(self):
        # d/dtau RB_{k+1} = -(k+1) RB_k ... with the sign convention of the
        # generating expansion: RB_2' (tau) = 2 tau - (1+2g^2) = 2 RB_1
        rb1 = rabi_bernoulli_exact(1)
        rb2 = rabi_bernoulli_exact(2)
        h = F(1, 1000)
        for tau in (F(0), F(1), F(5, 2)):
            d = (rb2.evaluate(tau + h, F(1, 10), F(2, 10)) - rb2.evaluate(tau - h, F(1, 10), F(2, 10))) / (2 * h)
            assert d == 2 * rb1.evaluate(tau, F(1, 10), F(2, 10))

    def test_unsupported_exact_index(self):
        with pytest.raises(UnsupportedIndex):
            rabi_bernoulli_exact(3)

    def test_numeric_matches_exact(self):
        q = QrmParams(0.3, 0.5)
        spec = qrm_eigs(q, N=512, count=200, threshold=1e-4)
        Z = partition_callable(spec)
        est0, _ = rabi_bernoulli_numeric(0, 2.0, Z)
        assert abs(est0 - 1.0) < 1e-3
        est1, _ = rabi_bernoulli_numeric(1, 2.0, Z)
        assert abs(est1 - rabi_bernoulli_exact(1).evaluate_float(2.0, 0.09, 0.25)) < 1e-2

    def test_numeric_delta_zero_reduction(self):
        q = QrmParams(0.3, 0.0)
        spec = qrm_eigs(q, N=512, count=200, threshold=1e-4)
        Z = partition_callable(spec)
        for k in (1, 2):
            est, _ = rabi_bernoulli_numeric(k, 2.0, Z)
            exact = float(bernoulli_poly(k, F(2) - F(9, 100)))
            assert abs(est - exact) < 2e-2, k


class TestDerivativeRelation:
    """d/dtau zeta(s; tau) = -s zeta(s+1; tau), by a central difference."""

    def test_qho_first_order(self):
        zf = lambda s, tau: specval.hurwitz_zeta_num(s, 0.5 + tau)
        h = 1e-4
        difference = (zf(2.0, 1.0 + h) - zf(2.0, 1.0 - h)) / (2 * h)
        assert abs(difference + 2 * zf(3.0, 1.0)) < 1e-6  # -2 zeta(3, 3/2)

    def test_qrm_first_order(self):
        q = QrmParams(0.3, 0.5)
        spec = qrm_eigs(q, N=768, count=380, threshold=1e-3)
        zf = lambda s, tau: spectral_zeta_direct(spec, s, tau)[0]
        h = 5e-3
        difference = (zf(3.0, 2.0 + h) - zf(3.0, 2.0 - h)) / (2 * h)
        assert abs(difference + 3 * zf(4.0, 2.0)) < 1e-4
