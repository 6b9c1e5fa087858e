"""Import-graph guards: importing zetaforge loads no heavy scipy subpackage,
importing any module but the numpy helper and the eigensolver loads
neither numpy nor scipy's LAPACK, nor ``dataclasses``, ``inspect``, ``csv``
or ``datetime``, and a CLI job that is exact arithmetic, or float
arithmetic on scalars, loads neither numpy nor scipy.  ``quasi-partition``
loads neither ``spectra`` nor ``specval``.

The records are plain classes on ``zetaforge.Record``: ``dataclasses``
imports ``inspect`` (with ``ast``, ``dis`` and ``tokenize``), about 9-11 ms,
and compiled the generated methods of each record class, about 1 ms a class.
``cli`` imports ``csv`` and ``datetime`` where it writes CSV or the meta
timestamp.  The quasi-partition series lives in ``exact`` beside the exact
values it sums, so its job costs what ``bernoulli`` costs.

scipy.integrate pulls in scipy.special, scipy.optimize and
scipy.sparse.linalg, which cost about half a second per process, and
scipy.linalg alone costs about 0.3 s, most of it scipy._lib cloning numpy.
The package needs LAPACK routines only, which the eigensolver ``_eig``
loads from scipy's wrapper module by file, so no scipy package is ever
imported.  numpy alone costs about 0.1-0.15 s per process, which dominates
a small job.  Every module but ``_eig`` imports numpy inside the functions
that use it, and ``spectra`` imports ``_eig`` inside its solve path, so
numpy and LAPACK load at the first float kernel: the scalar routines
(Hurwitz zeta, the closed form of zeta_Q(2), the R_{k,1} series), the
Borel sums and formal power series built on them, and the quasi-partition
values stay free of both.  verify-all draws no random numbers, so it never
loads numpy.random or hashlib.

Every module takes numpy from ``zetaforge._np``, which imports it with
OPENBLAS_THREAD_TIMEOUT set, so OpenBLAS's worker thread does not spin
beside the main thread after the link; ``_eig`` links scipy's LAPACK the
same way.  The variable is set only during the link, a value the user set
is kept, and a process that imported numpy first is left alone.  The
tests of the link load numpy by a call, since an import no longer does."""

import ast
import os
import pathlib
import pkgutil

import pytest

import zetaforge

HEAVY = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.linalg", "scipy._lib")


def test_no_heavy_scipy_subpackages(run_python):
    names = sorted(m.name for m in pkgutil.iter_modules(zetaforge.__path__))
    assert {"cli", "resum", "spectra", "specval"} <= set(names)
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module('zetaforge.' + name)\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    assert run_python(code) == "[]"


def test_imports_load_neither_numpy_nor_lapack(run_python):
    # only the numpy helper and the eigensolver load them at import
    names = sorted(m.name for m in pkgutil.iter_modules(zetaforge.__path__))
    assert {"_np", "_eig", "_mc", "spectra"} <= set(names)
    code = (
        "import importlib, sys\n"
        f"for name in {sorted(set(names) - {'_np', '_eig'})!r}:\n"
        "    importlib.import_module('zetaforge.' + name)\n"
        "print(sorted(m for m in ('numpy', 'scipy.linalg._flapack') if m in sys.modules))\n"
    )
    assert run_python(code) == "[]"


def test_imports_load_no_dataclasses_inspect_csv_or_datetime(run_python):
    # the records are plain classes on zetaforge.Record, and cli imports csv
    # and datetime where it writes CSV or the meta timestamp: dataclasses
    # (with inspect, ast, dis and tokenize) and building its classes cost
    # about 22 ms of every start-up
    names = sorted(m.name for m in pkgutil.iter_modules(zetaforge.__path__))
    code = (
        "import importlib, sys\n"
        f"for name in {sorted(set(names) - {'_np', '_eig'})!r}:\n"
        "    importlib.import_module('zetaforge.' + name)\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'csv', 'datetime') if m in sys.modules))\n"
    )
    assert run_python(code) == "[]"


def _run_at_import(node):
    """The nodes under ``node`` outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_at_import(child)


def test_only_the_solver_imports_the_numpy_helper_at_import():
    # every other module imports _np inside the functions that use numpy
    package = pathlib.Path(zetaforge.__file__).parent
    top = []
    for path in sorted(package.rglob("*.py")):
        for node in _run_at_import(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("_np" in name.split(".") for name in names):
                top.append(path.relative_to(package).as_posix())
    assert top == ["_eig.py"]


def test_solver_jobs_import_no_scipy_package(run_python):
    jobs = [
        ["ncho-spectrum", "--alpha", "2", "--beta", "1"],
        ["qrm-spectrum", "--g", "0.3", "--delta", "0.5", "--eps", "0.3"],
        ["verify-all", "--budget", "quick"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from zetaforge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.run(argv) for argv in {jobs!r}]\n"
        "print(codes, sorted(m for m in ('scipy.linalg', 'scipy._lib') if m in sys.modules))\n"
    )
    assert run_python(code) == "[0, 0, 0] []"


EXACT_JOBS = {
    "bernoulli": ["bernoulli", "--k", "12", "--poly-x", "1/3"],
    "apery": ["apery", "--kind", "A3", "--n", "10", "--closed"],
    "aperylike": ["aperylike", "--family", "J", "--k", "3", "--n", "4"],
    "congruence": ["congruence", "--check", "super", "--kind", "A2", "--p", "5"],
    "qseries-verify": ["qseries-verify", "--max-q", "4"],
    "padic-zeta": ["padic-zeta", "--p", "5", "--s", "2", "--tau", "1/5"],
    "divergence-padic": ["divergence", "--n", "2", "--tau", "1/5", "--K", "14", "--padic-p", "5"],
    "quasi-partition": ["quasi-partition", "--t", "0.5", "--K", "6"],
}


FLOAT_JOBS = {
    "hurwitz": ["hurwitz", "--s", "3", "--tau", "0.5"],
    "zetaQ2-closed": ["special-values", "--op", "zetaQ2-closed", "--alpha", "2", "--beta", "1"],
    "r-series": ["special-values", "--op", "r-series", "--k", "3", "--kappa", "0.3", "--n-max", "20"],
    "borel": ["borel", "--n", "2", "--z", "0.3"],
    "divergence": ["divergence", "--n", "2", "--tau", "1/3", "--K", "8"],
}


def _loaded_heavy(run_python, argv) -> str:
    """Exit code and which of numpy and scipy are loaded after ``argv`` runs."""
    code = (
        "import contextlib, io, sys\n"
        "from zetaforge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.run({argv!r})\n"
        "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    return run_python(code)


@pytest.mark.parametrize("argv", EXACT_JOBS.values(), ids=EXACT_JOBS.keys())
def test_exact_job_loads_no_numpy(run_python, argv):
    assert _loaded_heavy(run_python, argv) == "0 []"


@pytest.mark.parametrize("argv", FLOAT_JOBS.values(), ids=FLOAT_JOBS.keys())
def test_float_job_loads_no_numpy(run_python, argv):
    assert _loaded_heavy(run_python, argv) == "0 []"


def test_quasi_partition_loads_no_float_module(run_python):
    # its series and exact values live in zetaforge.exact, so the job costs
    # what bernoulli costs
    code = (
        "import contextlib, io, sys\n"
        "from zetaforge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.run({EXACT_JOBS['quasi-partition']!r})\n"
        "print(code, sorted(m for m in ('zetaforge.spectra', 'zetaforge.specval') if m in sys.modules))\n"
    )
    assert run_python(code) == "0 []"


@pytest.mark.parametrize("budget", ["quick", "full"])
def test_verify_all_draws_no_random_numbers(run_python, budget):
    # its cube checks run the deterministic tensor Gauss rule
    if run_python("import sys, numpy; print('numpy.random' in sys.modules)") == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    code = (
        "import contextlib, io, sys\n"
        "from zetaforge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.run(['verify-all', '--budget', {budget!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    assert run_python(code) == "0 False"


def test_verify_all_leaves_hashlib_unloaded(run_python):
    # hashlib keys the Monte Carlo streams, which verify-all never opens
    if run_python("import sys; print('hashlib' in sys.modules)") == "True":
        pytest.skip("this interpreter loads hashlib at start-up")
    code = (
        "import contextlib, io, sys\n"
        "from zetaforge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['verify-all', '--budget', 'quick'])\n"
        "print(code, 'hashlib' in sys.modules)\n"
    )
    assert run_python(code) == "0 False"


_UNSET = "import os\nos.environ.pop('OPENBLAS_THREAD_TIMEOUT', None)\n"
_CUBE = (
    "from zetaforge import specval\n"
    "specval.r_kj_quadrature(2, 1, 0.3, method='TENSOR_GAUSS', budget=4096)\n"
)
# importing _mc or spectra loads neither library: a call does
BLAS_LOADS = {
    "mc": "from zetaforge import _mc\n_mc.gauss_legendre_unit(4)\n",
    "spectra": "from zetaforge import spectra\nspectra.qrm_eigs(spectra.QrmParams(0.0, 0.5), N=32, count=4)\n",
    "specval-cube": _CUBE,
}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize("load", BLAS_LOADS.values(), ids=BLAS_LOADS.keys())
def test_openblas_workers_do_not_spin_after_the_link(run_python, load):
    # an OpenBLAS worker spins for about 0.1 s after the link: 5-6 clock
    # ticks of CPU time when numpy's library was linked unquieted
    code = _UNSET + load + (
        "import time\n"
        "time.sleep(0.3)\n"
        "ticks = 0\n"
        "for tid in os.listdir('/proc/self/task'):\n"
        "    if tid != str(os.getpid()):\n"
        "        with open(f'/proc/self/task/{tid}/stat') as f:\n"
        "            stat = f.read().rsplit(')', 1)[1].split()\n"
        "        ticks += int(stat[11]) + int(stat[12])  # utime + stime\n"
        "print(ticks)\n"
    )
    assert int(run_python(code)) <= 1


@pytest.mark.parametrize("user_value", [None, "7"], ids=["unset", "user-set"])
def test_imports_leave_the_environment_unchanged(run_python, user_value):
    set_by_user = f"os.environ['OPENBLAS_THREAD_TIMEOUT'] = {user_value!r}\n" if user_value else ""
    code = _UNSET + set_by_user + (
        "before = dict(os.environ)\n"
        "import zetaforge.cli, zetaforge.spectra\n"
    ) + _CUBE + "print(dict(os.environ) == before, os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
    assert run_python(code) == f"True {user_value}"


@pytest.mark.parametrize("numpy_first", [False, True], ids=["zetaforge-first", "numpy-first"])
def test_numpy_imported_first_is_left_alone(run_python, numpy_first):
    code = _UNSET + ("import numpy\n" if numpy_first else "") + (
        "writes = []\n"
        "environ = type(os.environ)\n"
        "setitem = environ.__setitem__\n"
        "environ.__setitem__ = lambda self, k, v: (writes.append(k), setitem(self, k, v))[1]\n"
        "from zetaforge import _mc\n"
        "_mc.gauss_legendre_unit(4)\n"
        "print(writes)\n"
    )
    assert run_python(code) == ("[]" if numpy_first else "['OPENBLAS_THREAD_TIMEOUT']")


def test_only_the_helper_imports_numpy():
    package = pathlib.Path(zetaforge.__file__).parent
    direct = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                direct.append(path.relative_to(package).as_posix())
    assert direct == ["_np.py"]


def test_only_the_cube_quadrature_draws_monte_carlo_samples():
    # the Rabi partition series and the R_{4,2} contact run the tensor Gauss
    # rule; Monte Carlo is left only behind the cube integrals' method switch
    package = pathlib.Path(zetaforge.__file__).parent
    stochastic = ("mc_mean", "philox_rng")
    callers = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                    if name in stochastic:
                        callers.add((path.relative_to(package).as_posix(), func.name))
    assert callers == {("specval.py", "_cube_quadrature")}

    spectra_imports = []
    for node in ast.walk(ast.parse((package / "spectra.py").read_text())):
        if isinstance(node, ast.Import):
            spectra_imports += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            spectra_imports += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert not [name for name in spectra_imports if "_mc" in name.split(".")]
