"""The package loads scipy's LAPACK extension without `scipy.linalg`.

The sys.modules checks run in a fresh interpreter: this suite imports
`scipy.linalg` itself (test_pde compares gtsv with `solve_banded`)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from riccati_hjb._lapack import find_flapack

SRC = Path(__file__).resolve().parents[1] / "src"

SAME_OBJECTS = """
import sys
import scipy.linalg.lapack as lapack
from riccati_hjb import _lapack, analysis, pde
assert sys.modules["scipy.linalg._flapack"] is _lapack._flapack
assert pde.dgtsv is _lapack.dgtsv is lapack.dgtsv
assert analysis.dpttrf is _lapack.dpttrf is lapack.dpttrf
assert analysis.dpttrs is _lapack.dpttrs is lapack.dpttrs
"""


def run_python(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("module", ["riccati_hjb", "riccati_hjb.cli"])
def test_import_leaves_scipy_linalg_unloaded(module):
    out = run_python(f"import sys, {module}\n"
                     "print('scipy.linalg' in sys.modules)")
    assert out == "False\n"


@pytest.mark.parametrize("first", ["", "import scipy.linalg\n"],
                         ids=["package_first", "scipy_linalg_first"])
def test_routines_are_scipys_own(first):
    # the guard against a change of scipy's layout: a later (or earlier)
    # import of scipy.linalg finds the very objects the solver calls
    run_python(first + SAME_OBJECTS)


def test_missing_extension_names_the_directory(tmp_path):
    with pytest.raises(ImportError, match="_flapack") as err:
        find_flapack(tmp_path)
    assert str(tmp_path) in str(err.value)
