import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]


@pytest.fixture(scope="session")
def balg():
    import workloads

    return workloads.Balg(ROOT / "src")


@pytest.fixture(scope="session")
def root():
    return ROOT
