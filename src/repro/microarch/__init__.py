"""Cycle-level microarchitecture simulation: caches, pipeline timing, traces."""

from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.microarch.cachekernel import ColumnarTrace, decode_trace, simulate_many
from repro.microarch.functional import FunctionalSimulator, SimulationResult
from repro.microarch.memory import Memory
from repro.microarch.statistics import (
    DEFAULT_CLOCK_MHZ,
    ExecutionStatistics,
    cycles_to_seconds,
)
from repro.microarch.timing import TimingParameters, count_window_traps, evaluate_many
from repro.microarch.trace import ExecutionTrace

__all__ = [
    "CacheConfig",
    "CacheStatistics",
    "ColumnarTrace",
    "decode_trace",
    "simulate_many",
    "FunctionalSimulator",
    "SimulationResult",
    "Memory",
    "DEFAULT_CLOCK_MHZ",
    "ExecutionStatistics",
    "cycles_to_seconds",
    "TimingParameters",
    "count_window_traps",
    "evaluate_many",
    "ExecutionTrace",
]
