"""Import-graph guard: importing zetaforge loads no heavy scipy subpackage.

scipy.integrate pulls in scipy.special, scipy.optimize and
scipy.sparse.linalg, which cost about half a second per process; the
package needs only scipy.linalg (for eig_banded)."""

import os
import pkgutil
import subprocess
import sys

import zetaforge

HEAVY = ("scipy.integrate", "scipy.special", "scipy.optimize")


def test_no_heavy_scipy_subpackages():
    names = sorted(m.name for m in pkgutil.iter_modules(zetaforge.__path__))
    assert {"cli", "resum", "spectra", "specval"} <= set(names)
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module('zetaforge.' + name)\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(zetaforge.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert out.stdout.strip() == "[]"
