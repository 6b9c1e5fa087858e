import os
import subprocess
import sys

import pytest

import zetaforge


@pytest.fixture
def run_python():
    """Runs code in a fresh interpreter that imports this zetaforge and
    returns its stripped stdout."""

    def run(code: str) -> str:
        src = os.path.dirname(os.path.dirname(zetaforge.__file__))
        path = src + os.pathsep + os.environ.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True,
        )
        return out.stdout.strip()

    return run
