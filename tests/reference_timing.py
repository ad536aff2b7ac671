"""Per-configuration timing oracle: the reference for ``evaluate_many``.

:func:`evaluate_reference` is the scalar statement of the cycle model:
it recomputes every trace reduction from the raw trace arrays on each
call -- the op-class histogram, the two hazard counts and the per-event
window-trap walk of :func:`count_window_traps_reference` -- and assembles
one configuration's :class:`~repro.microarch.statistics.ExecutionStatistics`.
The production model, :func:`repro.microarch.timing.evaluate_many`,
broadcasts the same terms over a configuration grid from memoised trace
features; the property suite (``test_timing_batched.py``) holds the two
equal bit for bit.

:func:`reference_measurements` builds whole
:class:`~repro.platform.Measurement` records one configuration at a time
from these oracles (the scalar synthesis of ``reference_synthesis.py``,
one cache replay per geometry, scalar timing), so engine and platform
tests compare against an assembly that shares nothing with the batched
path but the cache replay.  The sweep
benchmarks use it as their per-configuration baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from reference_synthesis import synthesize_reference
from repro.config.configuration import Configuration
from repro.fpga.synthesis import SynthesisModel
from repro.isa.instructions import OpClass
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.microarch.cachekernel import simulate_many
from repro.microarch.statistics import ExecutionStatistics
from repro.microarch.timing import TimingParameters
from repro.microarch.trace import ExecutionTrace
from repro.platform.measurement import Measurement

__all__ = [
    "cache_statistics",
    "count_window_traps_reference",
    "evaluate_reference",
    "reference_measurements",
    "replay_geometry",
]


def count_window_traps_reference(
    window_events: np.ndarray, windows: int
) -> Tuple[int, int]:
    """Scalar per-event reference of :func:`~repro.microarch.timing.count_window_traps`."""
    usable = max(1, windows - 1)
    overflows = 0
    underflows = 0
    depth = 0
    resident_base = 0
    for event in window_events:
        if event > 0:
            depth += 1
            if depth - resident_base >= usable:
                overflows += 1
                resident_base += 1
        else:
            depth -= 1
            if depth < resident_base:
                underflows += 1
                resident_base -= 1
    return overflows, underflows


def evaluate_reference(
    trace: ExecutionTrace,
    config: Configuration,
    icache_stats: CacheStatistics,
    dcache_stats: CacheStatistics,
    params: Optional[TimingParameters] = None,
) -> ExecutionStatistics:
    """Unmemoised cycle count of ``trace`` on one configuration."""
    p = params or TimingParameters()
    counts = np.bincount(trace.op_classes, minlength=len(OpClass))
    n_instr = trace.instruction_count

    breakdown: Dict[str, int] = {}
    breakdown["base"] = n_instr
    breakdown["icache_misses"] = (
        icache_stats.read_misses * p.line_fill_penalty(config.icache_linesize_words))
    breakdown["dcache_misses"] = (
        dcache_stats.read_misses * p.line_fill_penalty(config.dcache_linesize_words))
    loads = int(counts[OpClass.LOAD.value])
    stores = int(counts[OpClass.STORE.value])
    breakdown["load_access"] = 0 if config.dcache_fast_read else loads * p.slow_read_extra
    breakdown["store_access"] = 0 if config.dcache_fast_write else stores * p.slow_write_extra
    load_use = int(np.count_nonzero(trace.load_use_hazard))
    breakdown["load_use_stalls"] = load_use * (config.load_delay - 1)
    breakdown["multiply"] = (
        int(counts[OpClass.MUL.value]) * dict(p.multiplier_extra)[config.multiplier])
    breakdown["divide"] = (
        int(counts[OpClass.DIV.value]) * dict(p.divider_extra)[config.divider])
    taken = int(counts[OpClass.BRANCH_TAKEN.value]
                + counts[OpClass.CALL.value] + counts[OpClass.JUMP.value])
    penalty = p.taken_penalty_fast if config.fast_jump else p.taken_penalty_slow
    breakdown["control_transfer"] = taken * penalty
    cc_hazards = int(np.count_nonzero(trace.cc_branch_hazard))
    breakdown["icc_stalls"] = 0 if config.icc_hold else cc_hazards * p.icc_stall
    complex_instrs = int(
        counts[OpClass.SETHI.value] + counts[OpClass.SAVE.value]
        + counts[OpClass.RESTORE.value] + counts[OpClass.CALL.value]
        + counts[OpClass.JUMP.value] + counts[OpClass.BRANCH_TAKEN.value]
        + counts[OpClass.BRANCH_UNTAKEN.value])
    breakdown["decode"] = 0 if config.fast_decode else complex_instrs * p.slow_decode_extra
    overflows, underflows = count_window_traps_reference(
        trace.window_events, config.register_windows)
    breakdown["window_traps"] = (
        overflows * p.window_overflow_cost + underflows * p.window_underflow_cost)

    return ExecutionStatistics(
        workload=trace.name,
        configuration=config,
        instruction_count=n_instr,
        cycles=int(sum(breakdown.values())),
        cycle_breakdown=breakdown,
        icache=icache_stats,
        dcache=dcache_stats,
        window_overflows=overflows,
        window_underflows=underflows,
    )


def replay_geometry(workload, kind: str, geometry: CacheConfig) -> CacheStatistics:
    """One cold cache replay of the workload's decoded ``kind`` view."""
    return simulate_many(workload.columnar_view(kind, geometry.linesize_bytes), [geometry])[0]


def cache_statistics(workload, config: Configuration) -> Tuple[CacheStatistics, CacheStatistics]:
    """``(icache, dcache)`` statistics of one configuration, replayed alone."""
    return (replay_geometry(workload, "icache", CacheConfig.icache_from(config)),
            replay_geometry(workload, "dcache", CacheConfig.dcache_from(config)))


def reference_measurements(
    workload,
    configs: Sequence[Configuration],
    *,
    synthesis: Optional[SynthesisModel] = None,
    params: Optional[TimingParameters] = None,
    replay: Callable[..., CacheStatistics] = replay_geometry,
) -> List[Measurement]:
    """Measure ``configs`` one at a time through the oracles above.

    Each distinct cache geometry replays once through ``replay``
    (``replay(workload, kind, geometry)``, :func:`replay_geometry` by
    default; the cache's PRNG is seeded from its own geometry, so
    sharing a replay never changes a result) and every configuration is
    synthesised and timed on its own.  Fit is not enforced.
    """
    synthesis = synthesis or SynthesisModel()
    trace = workload.trace()
    replays: Dict[Tuple[str, CacheConfig], CacheStatistics] = {}

    def statistics(kind: str, geometry: CacheConfig) -> CacheStatistics:
        key = (kind, geometry)
        if key not in replays:
            replays[key] = replay(workload, kind, geometry)
        return replays[key]

    return [
        Measurement(
            workload=workload.name,
            configuration=config,
            resources=synthesize_reference(config, synthesis),
            statistics=evaluate_reference(
                trace, config,
                statistics("icache", CacheConfig.icache_from(config)),
                statistics("dcache", CacheConfig.dcache_from(config)),
                params),
        )
        for config in configs
    ]
