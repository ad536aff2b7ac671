"""Cycle-level timing model of the LEON-like integer pipeline.

The timing model evaluates the summary of a configuration-independent
:class:`~repro.microarch.trace.ExecutionTrace` (its
:class:`~repro.microarch.trace.TraceSummary`) plus per-configuration
cache statistics against a grid of :class:`~repro.config.Configuration`
objects (:func:`evaluate_many`) and produces the cycle count the paper's
profiler would report for each.  Every reconfigurable parameter of the
paper's Figure 1 that affects runtime has a term here:

===========================  =====================================================
Parameter                    Timing effect
===========================  =====================================================
icache geometry/replacement  instruction-fetch miss penalty per icache miss
dcache geometry/replacement  load miss penalty per dcache read miss
dcache fast read             load hit costs 1 cycle instead of 2
dcache fast write            store costs 1 cycle instead of 2
fast jump                    taken-branch/call/jump penalty of 1 instead of 2
icc hold                     removes the 1-cycle stall of a branch that
                             immediately follows a condition-code update
fast decode                  removes the 1-cycle decode bubble of control
                             transfer, SETHI and window instructions
load delay                   1-cycle load-use interlock when set to 2
register windows             window overflow/underflow trap costs
multiplier                   latency of UMUL/SMUL
divider                      latency of UDIV/SDIV (software emulation when absent)
infer mult/div               synthesis-only option: no runtime effect
===========================  =====================================================

The absolute constants are documented class attributes of
:class:`TimingParameters`; they are chosen to give the base configuration
a CPI in the 1.3-2.5 range LEON2 exhibits on memory-bound codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.config.configuration import Configuration, configuration_columns
from repro.config.leon_space import Divider, Multiplier
from repro.isa.instructions import OpClass
from repro.microarch.trace import TraceSummary

__all__ = [
    "BREAKDOWN_CATEGORIES",
    "TIMING_COLUMNS",
    "TimingParameters",
    "count_window_traps",
    "window_trap_table",
    "evaluate_many",
]


@dataclass(frozen=True)
class TimingParameters:
    """Calibration constants of the cycle model."""

    #: Cycles from a cache miss to the first word arriving from memory.
    memory_latency: int = 6
    #: Additional cycles per word of a cache line fill.
    word_transfer: int = 1
    #: Extra cycles of a data-cache load hit without the fast-read option.
    slow_read_extra: int = 1
    #: Extra cycles of a store without the fast-write option (write buffer).
    slow_write_extra: int = 1
    #: Taken branch / call / jump penalty with and without fast jump.
    taken_penalty_fast: int = 1
    taken_penalty_slow: int = 2
    #: Decode bubble per "complex" instruction when fast decode is disabled.
    slow_decode_extra: int = 1
    #: Stall when a branch immediately follows a condition-code update and
    #: the ICC hold/forwarding hardware is absent.
    icc_stall: int = 1
    #: Register-window overflow (spill) and underflow (fill) trap costs.
    window_overflow_cost: int = 24
    window_underflow_cost: int = 26
    #: Extra multiply latency (cycles beyond the 1-cycle base) per implementation.
    multiplier_extra: Tuple[Tuple[str, int], ...] = (
        (Multiplier.NONE, 37),        # software emulation trap
        (Multiplier.ITERATIVE, 33),
        (Multiplier.M16X16, 3),
        (Multiplier.M16X16_PIPE, 2),
        (Multiplier.M32X8, 2),
        (Multiplier.M32X16, 1),
        (Multiplier.M32X32, 0),
    )
    #: Extra divide latency per implementation.
    divider_extra: Tuple[Tuple[str, int], ...] = (
        (Divider.RADIX2, 34),
        (Divider.NONE, 129),          # software emulation
    )

    # The latency columns are built once per TimingParameters instance (the
    # tables are frozen tuples); cached_property writes straight to
    # __dict__, which a frozen dataclass permits.
    @cached_property
    def multiplier_latency_codes(self) -> np.ndarray:
        """Multiplier latencies indexed by a configuration column's value code."""
        return np.array([self.multiplier_latency(m) for m in Multiplier.ALL], dtype=np.int64)

    @cached_property
    def divider_latency_codes(self) -> np.ndarray:
        """Divider latencies indexed by a configuration column's value code."""
        return np.array([self.divider_latency(d) for d in Divider.ALL], dtype=np.int64)

    def multiplier_latency(self, multiplier: str) -> int:
        return dict(self.multiplier_extra)[multiplier]

    def divider_latency(self, divider: str) -> int:
        return dict(self.divider_extra)[divider]

    def line_fill_penalty(self, linesize_words: int) -> int:
        """Cache miss penalty for a line of the given size."""
        return self.memory_latency + self.word_transfer * linesize_words


def count_window_traps(window_events: np.ndarray, windows: int) -> Tuple[int, int]:
    """Count register-window overflow and underflow traps.

    ``window_events`` is the +1/-1 SAVE/RESTORE sequence recorded by the
    functional simulator; ``windows`` is the configured window count.  One
    window is reserved (the SPARC WIM convention), so ``windows - 1``
    nested activations fit before the first spill.  This is one row of
    :func:`window_trap_table`.
    """
    _, overflows, underflows = window_trap_table(window_events, (windows,))[0]
    return overflows, underflows


def window_trap_table(window_events: np.ndarray,
                      window_counts: Sequence[int]) -> Tuple[Tuple[int, int, int], ...]:
    """``(windows, overflows, underflows)`` for each window count, in order.

    The count is a saturating walk of the resident-window gap
    ``g = depth - resident_base`` over ``[0, usable - 1]``: a SAVE that
    would push ``g`` past the top spills (overflow), a RESTORE that would
    pull it below zero fills (underflow).  One pass over the events
    serves every window count: the depth's cumulative sum and its
    extremes are computed once, and a window count whose band the depth
    never leaves has no traps.  With a single usable window every event
    traps.  The other window counts walk *runs* of consecutive
    same-direction events, split once, with closed-form per-run trap
    counts, so the Python-level loop runs once per direction change
    instead of once per event.
    """
    events = np.asarray(window_events, dtype=np.int64)
    if events.size == 0:
        return tuple((windows, 0, 0) for windows in window_counts)
    depth = np.cumsum(events)
    low, high = int(depth.min()), int(depth.max())
    saves_mask = events > 0
    runs = None
    table = []
    for windows in window_counts:
        top = max(1, windows - 1) - 1  # largest gap that fits without spilling
        if low >= 0 and high <= top:
            overflows = underflows = 0  # the clamp never binds
        elif top == 0:
            overflows = int(np.count_nonzero(saves_mask))
            underflows = int(events.size) - overflows
        else:
            if runs is None:
                boundaries = np.flatnonzero(saves_mask[1:] != saves_mask[:-1]) + 1
                run_starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
                run_lengths = np.diff(np.append(run_starts, events.size))
                runs = list(zip(saves_mask[run_starts].tolist(), run_lengths.tolist()))
            overflows = underflows = gap = 0
            for is_save, length in runs:
                if is_save:
                    overflows += max(0, gap + length - top)
                    gap = min(gap + length, top)
                else:
                    underflows += max(0, length - gap)
                    gap = max(gap - length, 0)
        table.append((windows, overflows, underflows))
    return tuple(table)


def _taken_transfers(f) -> int:
    """Taken control transfers: taken branches, calls and jumps."""
    return f.count(OpClass.BRANCH_TAKEN) + f.count(OpClass.CALL) + f.count(OpClass.JUMP)


def _complex_instructions(f) -> int:
    """Instructions paying the slow-decode bubble when fast decode is off."""
    return (
        f.count(OpClass.SETHI) + f.count(OpClass.SAVE) + f.count(OpClass.RESTORE)
        + f.count(OpClass.CALL) + f.count(OpClass.JUMP)
        + f.count(OpClass.BRANCH_TAKEN) + f.count(OpClass.BRANCH_UNTAKEN))


#: Cycle-breakdown category order: the first columns of an
#: :func:`evaluate_many` table, and the key order of every breakdown dict.
BREAKDOWN_CATEGORIES: Tuple[str, ...] = (
    "base", "icache_misses", "dcache_misses", "load_access", "store_access",
    "load_use_stalls", "multiply", "divide", "control_transfer", "icc_stalls",
    "decode", "window_traps")

#: The columns of an :func:`evaluate_many` table: the cycle breakdown,
#: then the two window-trap counts.
TIMING_COLUMNS: Tuple[str, ...] = BREAKDOWN_CATEGORIES + (
    "window_overflows", "window_underflows")


def evaluate_many(
    summary: TraceSummary,
    configs: Sequence[Configuration],
    icache_read_misses: Sequence[int],
    dcache_read_misses: Sequence[int],
    parameters: Optional[TimingParameters] = None,
) -> np.ndarray:
    """Broadcast-batched timing evaluation of one trace over a config grid.

    ``summary`` is the trace's :class:`~repro.microarch.trace.TraceSummary`
    (:meth:`ExecutionTrace.summary
    <repro.microarch.trace.ExecutionTrace.summary>`, or the row a result
    store kept of it); ``configs`` is the grid (read once into
    :class:`~repro.config.configuration.ConfigurationColumns` unless it
    already is one) and the two read-miss columns are each cache's read
    misses aligned with it.  Every cycle-breakdown term is one integer
    array operation over the columns, and the window-trap counts are one
    lookup in the summary's trap table.

    Returns the ``int64`` term table: one row per configuration and one
    column per :data:`TIMING_COLUMNS` entry.  A row's cycle count is the
    sum of its :data:`BREAKDOWN_CATEGORIES` columns.  This is the only
    production timing model: a single configuration is a grid of one.
    Every entry is bit-identical to the unmemoised per-configuration
    oracle the test suite keeps.
    """
    p = parameters or TimingParameters()
    columns = configuration_columns(configs)
    column = columns.column
    n = len(columns)
    icache_misses = np.asarray(icache_read_misses, dtype=np.int64)
    dcache_misses = np.asarray(dcache_read_misses, dtype=np.int64)
    if icache_misses.shape != (n,) or dcache_misses.shape != (n,):
        raise ValueError("the read-miss columns must align with configs")
    f = summary.features

    # window traps: looked up in the summary's table (ascending window counts)
    windows = column("register_windows")
    traps = summary.window_trap_table
    slots = np.minimum(np.searchsorted(traps[:, 0], windows), len(traps) - 1)
    if not np.array_equal(traps[slots, 0], windows):
        raise KeyError("no window-trap count for some configured window count")
    overflows, underflows = traps[slots, 1], traps[slots, 2]

    table = np.empty((n, len(TIMING_COLUMNS)), dtype=np.int64)
    table[:, 0] = f.instruction_count
    # line_fill_penalty is pure arithmetic, so it broadcasts over the columns
    table[:, 1] = icache_misses * p.line_fill_penalty(column("icache_linesize_words"))
    table[:, 2] = dcache_misses * p.line_fill_penalty(column("dcache_linesize_words"))
    table[:, 3] = (1 - column("dcache_fast_read")) * (f.count(OpClass.LOAD) * p.slow_read_extra)
    table[:, 4] = (1 - column("dcache_fast_write")) * (
        f.count(OpClass.STORE) * p.slow_write_extra)
    table[:, 5] = f.load_use_hazards * (column("load_delay") - 1)
    table[:, 6] = f.count(OpClass.MUL) * p.multiplier_latency_codes[column("multiplier")]
    table[:, 7] = f.count(OpClass.DIV) * p.divider_latency_codes[column("divider")]
    table[:, 8] = _taken_transfers(f) * np.where(
        column("fast_jump"), p.taken_penalty_fast, p.taken_penalty_slow)
    table[:, 9] = (1 - column("icc_hold")) * (f.cc_branch_hazards * p.icc_stall)
    table[:, 10] = (1 - column("fast_decode")) * (
        _complex_instructions(f) * p.slow_decode_extra)
    table[:, 11] = overflows * p.window_overflow_cost + underflows * p.window_underflow_cost
    table[:, 12] = overflows
    table[:, 13] = underflows
    return table
