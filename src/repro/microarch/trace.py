"""Execution traces produced by the functional simulator.

The key property that makes the reproduction fast enough to run hundreds
of configuration evaluations is that the *functional* behaviour of a
program is independent of the microarchitecture configuration: caches,
multiplier implementations and pipeline options change *when* things
happen, never *what* happens.  The functional simulator therefore runs a
workload once and records an :class:`ExecutionTrace`; the timing model
then replays the trace against any number of configurations
(trace-driven simulation).

Traces are stored as NumPy arrays so the timing model can compute most of
its cycle terms with vectorised reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config.leon_space import REGISTER_WINDOW_COUNTS
from repro.isa.instructions import OpClass

__all__ = ["ExecutionTrace", "TraceFeatures", "TraceSummary"]


@dataclass(frozen=True)
class TraceFeatures:
    """Configuration-independent summary of a trace (one feature vector).

    These are exactly the reductions the timing model consumes: the
    per-class instruction histogram and the hazard counts.  They depend
    only on the trace, never on a configuration, so a sweep computes
    them once and broadcasts them over the whole configuration grid
    (:func:`~repro.microarch.timing.evaluate_many`).
    """

    #: Number of dynamically executed instructions.
    instruction_count: int
    #: Instruction histogram indexed by :class:`~repro.isa.instructions.OpClass` value.
    class_counts: np.ndarray
    #: Loads whose immediately following instruction reads the loaded register.
    load_use_hazards: int
    #: Branches immediately preceded by a condition-code update.
    cc_branch_hazards: int

    def count(self, op_class: OpClass) -> int:
        """Executed instructions of one timing class."""
        return int(self.class_counts[op_class.value])


@dataclass(frozen=True)
class TraceSummary:
    """Everything the timing model reads from a trace, and nothing else.

    The trace's name (the workload every statistic reports), its
    :class:`TraceFeatures` and the register-window trap table: the
    ``(windows, overflows, underflows)`` walk for every window count of
    the parameter space.  It is a few hundred bytes where the trace is
    megabytes, so a result store persists it and a warm run times any
    configuration without simulating
    (:func:`~repro.microarch.timing.evaluate_many` consumes only this).
    """

    name: str
    features: TraceFeatures
    #: ``(windows, overflows, underflows)`` per window count, ascending.
    window_traps: Tuple[Tuple[int, int, int], ...]

    @cached_property
    def window_trap_table(self) -> np.ndarray:
        """:attr:`window_traps` as an ``int64`` array, one row per window count."""
        return np.array(self.window_traps, dtype=np.int64).reshape(-1, 3)


@dataclass(frozen=True)
class ExecutionTrace:
    """Config-independent record of one program execution.

    Six columns describe the executed instructions, and the data-cache
    access stream (:attr:`data_addresses`, :attr:`data_is_write`) lists
    the loads and stores among them.  The functional simulator's loop
    writes all of them as it runs, and counts the instruction classes
    and hazards as well (:attr:`counted_features`).  A trace built from
    the six columns alone derives its access stream from them here, and
    its feature vector on first use.
    """

    #: Program counter of every executed instruction.
    pcs: np.ndarray
    #: Timing class (:class:`~repro.isa.instructions.OpClass`) of every instruction.
    op_classes: np.ndarray
    #: Effective address of loads/stores (0 elsewhere).
    mem_addrs: np.ndarray
    #: True at loads whose immediately following instruction reads the loaded register.
    load_use_hazard: np.ndarray
    #: True at branches immediately preceded by a condition-code-setting instruction.
    cc_branch_hazard: np.ndarray
    #: +1 for every SAVE, -1 for every RESTORE/RET, in program order.
    window_events: np.ndarray
    #: Name of the workload/program that produced the trace (for reports).
    name: str = "trace"
    #: Addresses of all data accesses (loads and stores), in program order.
    data_addresses: Optional[np.ndarray] = field(default=None, repr=False)
    #: Write flags aligned with :attr:`data_addresses`.
    data_is_write: Optional[np.ndarray] = field(default=None, repr=False)
    #: The feature vector counted while the trace was written, if it was.
    counted_features: Optional[TraceFeatures] = field(default=None, repr=False, compare=False)
    #: Cached columnar cache-kernel views, keyed by ``(kind, linesize_bytes)``.
    _views: Dict[Tuple[str, int], object] = field(
        default_factory=dict, repr=False, compare=False)
    #: Cached derived quantities (feature vector, summary).
    _derived: Dict[object, object] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.data_addresses is None:
            memory = self.memory_mask
            object.__setattr__(self, "data_addresses", self.mem_addrs[memory])
            object.__setattr__(self, "data_is_write",
                               self.op_classes[memory] == OpClass.STORE.value)

    # -- derived quantities ------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.pcs.shape[0])

    @property
    def instruction_count(self) -> int:
        """Number of dynamically executed instructions."""
        return len(self)

    def class_counts(self) -> Dict[OpClass, int]:
        """Executed instructions counted per timing class."""
        counts = self.features().class_counts
        return {op_class: int(counts[op_class.value]) for op_class in OpClass}

    def features(self) -> TraceFeatures:
        """Memoised configuration-independent feature vector of this trace.

        The histogram and hazard reductions are a property of the trace
        alone; caching them here means a configuration sweep pays for
        them once instead of once per evaluated configuration.  A trace
        the simulator wrote answers with the counts its loop kept.
        """
        features = self._derived.get("features")
        if features is None:
            features = self.counted_features or TraceFeatures(
                instruction_count=self.instruction_count,
                class_counts=np.bincount(
                    self.op_classes, minlength=len(OpClass)).astype(np.int64),
                load_use_hazards=int(np.count_nonzero(self.load_use_hazard)),
                cc_branch_hazards=int(np.count_nonzero(self.cc_branch_hazard)),
            )
            self._derived["features"] = features
        return features

    def summary(self) -> TraceSummary:
        """Memoised :class:`TraceSummary`: name, features and trap table."""
        summary = self._derived.get("summary")
        if summary is None:
            from repro.microarch.timing import window_trap_table

            summary = TraceSummary(
                name=self.name, features=self.features(),
                window_traps=window_trap_table(self.window_events, REGISTER_WINDOW_COUNTS))
            self._derived["summary"] = summary
        return summary

    def has_columnar_view(self, kind: str, linesize_bytes: int) -> bool:
        """True when :meth:`columnar_view` would be answered from the cache."""
        return (kind, linesize_bytes) in self._views

    def count(self, op_class: OpClass) -> int:
        """Number of executed instructions of one timing class."""
        return int(np.count_nonzero(self.op_classes == op_class.value))

    @property
    def load_mask(self) -> np.ndarray:
        return self.op_classes == OpClass.LOAD.value

    @property
    def store_mask(self) -> np.ndarray:
        return self.op_classes == OpClass.STORE.value

    @property
    def memory_mask(self) -> np.ndarray:
        return self.load_mask | self.store_mask

    @property
    def load_addresses(self) -> np.ndarray:
        """Effective addresses of load instructions, in program order."""
        return self.mem_addrs[self.load_mask]

    @property
    def store_addresses(self) -> np.ndarray:
        """Effective addresses of store instructions, in program order."""
        return self.mem_addrs[self.store_mask]

    def columnar_view(self, kind: str, linesize_bytes: int):
        """Shared :class:`~repro.microarch.cachekernel.ColumnarTrace` of this trace.

        ``kind`` is ``"icache"`` (instruction fetches, read-only) or
        ``"dcache"`` (data accesses with the write mask).  The decode
        depends only on the line size, so every cache geometry and
        replacement policy with that line size replays one cached view;
        this is what lets a configuration sweep decode the trace a
        handful of times instead of once per configuration.
        """
        from repro.microarch.cachekernel import decode_trace

        key = (kind, linesize_bytes)
        view = self._views.get(key)
        if view is None:
            if kind == "icache":
                view = decode_trace(self.pcs, linesize_bytes=linesize_bytes,
                                    workload=self.name)
            elif kind == "dcache":
                view = decode_trace(
                    self.data_addresses, self.data_is_write,
                    linesize_bytes=linesize_bytes, workload=self.name)
            else:
                raise ValueError(f"unknown cache kind {kind!r}")
            self._views[key] = view
        return view

    def mix_summary(self) -> Dict[str, float]:
        """Instruction-mix fractions used in workload characterisation reports."""
        total = max(1, self.instruction_count)
        counts = self.class_counts()
        loads = counts[OpClass.LOAD]
        stores = counts[OpClass.STORE]
        branches = counts[OpClass.BRANCH_TAKEN] + counts[OpClass.BRANCH_UNTAKEN]
        muldiv = counts[OpClass.MUL] + counts[OpClass.DIV]
        return {
            "instructions": float(total),
            "load_fraction": loads / total,
            "store_fraction": stores / total,
            "memory_fraction": (loads + stores) / total,
            "branch_fraction": branches / total,
            "muldiv_fraction": muldiv / total,
        }
