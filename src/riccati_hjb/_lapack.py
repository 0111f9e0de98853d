"""The three LAPACK routines of the package, dgtsv, dpttrf and dpttrs,
loaded from scipy's f2py extension `scipy.linalg._flapack` without running
the package init of `scipy.linalg`, which takes about half of the import
time of `riccati_hjb.cli`.

The extension is loaded under its own name and registered in
`sys.modules`, so a later `import scipy.linalg` reuses the same module
object and `scipy.linalg.lapack.dgtsv is dgtsv`. When `scipy.linalg` was
imported first, its module is reused. One difference remains after the
early load: the attribute `scipy.linalg._flapack` is not bound on the
package, because the import system binds a submodule on its parent only
when it creates it. scipy reaches `_flapack` through imports only, so
nothing of it is affected.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import scipy

_NAME = "scipy.linalg._flapack"


def find_flapack(linalg_dir) -> Path:
    """The `_flapack` extension file in `linalg_dir`, the first of the
    interpreter's extension suffixes that exists."""
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for suffix in suffixes:
        path = Path(linalg_dir) / f"_flapack{suffix}"
        if path.is_file():
            return path
    raise ImportError(f"no _flapack extension in {linalg_dir} with any of "
                      f"the suffixes {suffixes}")


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    path = find_flapack(Path(scipy.__file__).parent / "linalg")
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load()
dgtsv = _flapack.dgtsv
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
