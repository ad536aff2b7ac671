"""Benchmark workloads of the paper (BLASTN, CommBench DRR, CommBench FRAG, BYTE Arith)."""

from typing import Dict, List

from repro.workloads.base import Workload
from repro.workloads.arith import ArithWorkload
from repro.workloads.blastn import BlastnWorkload
from repro.workloads.drr import DrrWorkload
from repro.workloads.frag import FragWorkload
from repro.workloads import data

__all__ = [
    "Workload",
    "ArithWorkload",
    "BlastnWorkload",
    "DrrWorkload",
    "FragWorkload",
    "data",
    "standard_workloads",
    "small_workloads",
    "WORKLOAD_ORDER",
]

#: Presentation order used throughout the paper's tables.
WORKLOAD_ORDER: List[str] = ["blastn", "drr", "frag", "arith"]


def standard_workloads() -> Dict[str, Workload]:
    """The four benchmarks at their benchmark-scale default sizes.

    These are the sizes used by the experiment harness in ``benchmarks/``;
    they are scaled-down versions of the paper's inputs (see DESIGN.md)
    but large enough to exhibit the cache behaviour the paper relies on.
    """
    return {
        "blastn": BlastnWorkload(),
        "drr": DrrWorkload(),
        "frag": FragWorkload(),
        "arith": ArithWorkload(),
    }


def small_workloads() -> Dict[str, Workload]:
    """Reduced-size variants used by the test suite (fast to simulate)."""
    return {
        "blastn": BlastnWorkload(database_length=1500, query_length=64, query_count=1),
        "drr": DrrWorkload(packet_count=200),
        "frag": FragWorkload(packet_count=6),
        "arith": ArithWorkload(iterations=300),
    }
