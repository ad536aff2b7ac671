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
from typing import Dict, Tuple

import numpy as np

from repro.isa.instructions import OpClass

__all__ = [
    "ExecutionTrace",
    "TraceFeatures",
    "concatenate_traces",
    "slice_trace",
]


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
class ExecutionTrace:
    """Config-independent record of one program execution."""

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
    #: Cached columnar cache-kernel views, keyed by ``(kind, linesize_bytes)``.
    _views: Dict[Tuple[str, int], object] = field(
        default_factory=dict, repr=False, compare=False)
    #: Cached derived quantities (feature vector, per-window trap counts).
    _derived: Dict[object, object] = field(
        default_factory=dict, repr=False, compare=False)

    # -- derived quantities ------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.pcs.shape[0])

    @property
    def instruction_count(self) -> int:
        """Number of dynamically executed instructions."""
        return len(self)

    def class_counts(self) -> Dict[OpClass, int]:
        """Histogram of executed instructions per timing class."""
        counts = self.features().class_counts
        return {op_class: int(counts[op_class.value]) for op_class in OpClass}

    def features(self) -> TraceFeatures:
        """Memoised configuration-independent feature vector of this trace.

        The histogram and hazard reductions are a property of the trace
        alone; caching them here means a configuration sweep pays for
        them once instead of once per evaluated configuration.
        """
        features = self._derived.get("features")
        if features is None:
            features = TraceFeatures(
                instruction_count=self.instruction_count,
                class_counts=np.bincount(
                    self.op_classes, minlength=len(OpClass)).astype(np.int64),
                load_use_hazards=int(np.count_nonzero(self.load_use_hazard)),
                cc_branch_hazards=int(np.count_nonzero(self.cc_branch_hazard)),
            )
            self._derived["features"] = features
        return features

    def window_trap_counts(self, windows: int) -> Tuple[int, int]:
        """Memoised ``(overflows, underflows)`` for one window count.

        The SAVE/RESTORE event stream is configuration independent, so
        the trap walk depends only on ``windows``; the cache makes every
        configuration sharing a window count reuse one count.
        """
        key = ("window_traps", int(windows))
        counts = self._derived.get(key)
        if counts is None:
            from repro.microarch.timing import count_window_traps

            counts = count_window_traps(self.window_events, windows)
            self._derived[key] = counts
        return counts

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

    @property
    def data_addresses(self) -> np.ndarray:
        """Addresses of all data accesses (loads and stores), in program order."""
        return self.mem_addrs[self.memory_mask]

    @property
    def data_is_write(self) -> np.ndarray:
        """Write flags aligned with :attr:`data_addresses`."""
        return self.store_mask[self.memory_mask]

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
                view = decode_trace(self.pcs, linesize_bytes=linesize_bytes)
            elif kind == "dcache":
                view = decode_trace(
                    self.data_addresses, self.data_is_write,
                    linesize_bytes=linesize_bytes)
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


def concatenate_traces(traces, name: str = "trace") -> ExecutionTrace:
    """Concatenate execution traces back to back (a phase-structured program).

    The result behaves exactly like a single program that ran the traced
    programs in sequence: instruction, address and hazard streams are
    joined in order, and the window-event streams append (each traced
    program enters and leaves at its own base window depth, so the
    concatenated SAVE/RESTORE sequence stays balanced).
    """
    traces = list(traces)
    if not traces:
        raise ValueError("cannot concatenate zero traces")
    if len(traces) == 1:
        return traces[0]
    return ExecutionTrace(
        pcs=np.concatenate([t.pcs for t in traces]),
        op_classes=np.concatenate([t.op_classes for t in traces]),
        mem_addrs=np.concatenate([t.mem_addrs for t in traces]),
        load_use_hazard=np.concatenate([t.load_use_hazard for t in traces]),
        cc_branch_hazard=np.concatenate([t.cc_branch_hazard for t in traces]),
        window_events=np.concatenate([t.window_events for t in traces]),
        name=name,
    )


def slice_trace(trace: ExecutionTrace, start: int, stop: int, name: str) -> ExecutionTrace:
    """One phase of a trace: the instructions in ``[start, stop)``.

    The slice carries everything the cache and mix views need (per-phase
    instruction, address and hazard streams).  The window-event stream is
    not positionally aligned with instructions, so phase slices carry an
    empty one -- window-trap accounting always runs on the full trace.
    """
    return ExecutionTrace(
        pcs=trace.pcs[start:stop],
        op_classes=trace.op_classes[start:stop],
        mem_addrs=trace.mem_addrs[start:stop],
        load_use_hazard=trace.load_use_hazard[start:stop],
        cc_branch_hazard=trace.cc_branch_hazard[start:stop],
        window_events=np.empty(0, dtype=np.int8),
        name=name,
    )
