import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))


@pytest.fixture(scope="session")
def api():
    import workloads
    return workloads.import_package()
