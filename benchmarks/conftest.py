"""Shared fixtures for the benchmark harness.

The benchmarks reproduce the paper's tables and figures at benchmark scale
(the ``standard_workloads`` sizes).  The platform and the expensive
campaign results are session scoped so that each figure pays only for the
work it adds on top of the previous ones, exactly like the real
measurement flow where bitstreams and profiles are cached.

Setting ``REPRO_BENCH_SMOKE=1`` swaps in the scaled-down test workloads:
the CI smoke job uses this to exercise the measurement hot path end to
end in seconds; benchmarks guard assertions that only hold at benchmark
scale behind the ``SMOKE`` flag.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

from repro.analysis import runtime_optimization
from repro.platform import LiquidPlatform
from repro.workloads import small_workloads, standard_workloads

#: True when the reduced-scale CI smoke mode is active.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

# the per-configuration reference oracles (``reference_timing``) live with
# the test suite; appended, so this directory's ``conftest`` still wins
sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(scope="session")
def platform():
    return LiquidPlatform()


@pytest.fixture(scope="session")
def workloads():
    return small_workloads() if SMOKE else standard_workloads()


@pytest.fixture(scope="session")
def figure5(platform, workloads):
    """The runtime-optimisation study, reused by Figures 5/6/7 and the ablations."""
    return runtime_optimization(platform, workloads)


def emit(result) -> None:
    """Print an experiment's tables (visible with ``pytest -s`` or on failure)."""
    print()
    print(result.render())
