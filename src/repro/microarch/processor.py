"""Processor model: caches + pipeline timing for one configuration.

:class:`ProcessorModel` is the simulation-side equivalent of one
synthesised LEON bitstream: instantiate it with a
:class:`~repro.config.Configuration` and it can evaluate execution traces
(trace-driven, fast) or run whole programs (functional simulation plus
timing, convenient for tests and examples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.configuration import Configuration
from repro.isa.program import Program
from repro.microarch.cache import Cache, CacheConfig, CacheStatistics
from repro.microarch.functional import FunctionalSimulator, SimulationResult
from repro.microarch.statistics import ExecutionStatistics
from repro.microarch.timing import TimingParameters, evaluate_many
from repro.microarch.trace import ExecutionTrace

__all__ = ["ProcessorModel", "ProgramRun"]


@dataclass(frozen=True)
class ProgramRun:
    """Functional result plus cycle-accurate statistics of one program run."""

    functional: SimulationResult
    statistics: ExecutionStatistics


class ProcessorModel:
    """A LEON-like processor instantiated with one configuration."""

    def __init__(
        self,
        config: Configuration,
        timing_parameters: Optional[TimingParameters] = None,
    ):
        self.config = config
        self.timing_parameters = timing_parameters or TimingParameters()

    # -- cache construction -------------------------------------------------------------

    def instruction_cache(self) -> Cache:
        """A fresh instruction cache matching this configuration."""
        return Cache(CacheConfig.icache_from(self.config))

    def data_cache(self) -> Cache:
        """A fresh data cache matching this configuration."""
        return Cache(CacheConfig.dcache_from(self.config))

    # -- evaluation -----------------------------------------------------------------------

    def simulate_caches(self, trace: ExecutionTrace) -> tuple[CacheStatistics, CacheStatistics]:
        """Run the instruction and data caches over a trace."""
        icache_stats = self.instruction_cache().simulate(trace.pcs)
        dcache_stats = self.data_cache().simulate(trace.data_addresses, trace.data_is_write)
        return icache_stats, dcache_stats

    def evaluate(
        self,
        trace: ExecutionTrace,
        cache_stats: Optional[tuple[CacheStatistics, CacheStatistics]] = None,
    ) -> ExecutionStatistics:
        """Cycle count of ``trace`` on this configuration.

        ``cache_stats`` allows callers (the measurement platform) to reuse
        memoised cache simulations, since many configurations share the
        same cache geometry.
        """
        pair = cache_stats or self.simulate_caches(trace)
        return evaluate_many(trace, [self.config], [pair], self.timing_parameters)[0]

    def run_program(self, program: Program) -> ProgramRun:
        """Functionally execute ``program`` and profile it on this configuration."""
        functional = FunctionalSimulator(program).run()
        statistics = self.evaluate(functional.trace)
        return ProgramRun(functional=functional, statistics=statistics)
