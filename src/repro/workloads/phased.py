"""Phase-structured workloads for warm-cache chained replay.

The paper's design-space exploration measures every workload from a cold
cache, but deployed programs are phase structured: BLASTN builds its
seed table and then scans the database, DRR alternates enqueue and
service stages, and a line card context-switches between applications.
Across such phase boundaries cache state *carries over*, which the
cold-start engine cannot express.

A :class:`PhasedWorkload` names the phases of a program and exposes
per-phase traces and columnar cache-kernel views, so the measurement
stack can replay the phases against one continuously-warm cache
(:func:`~repro.microarch.cachekernel.replay_chain`) and report per-phase
statistics.  Two construction modes cover the scenario space:

* **splits** cut one workload's trace at program-counter markers (the
  first execution of a label) or at instruction fractions -- the phases
  concatenate back to exactly the original trace, so overall
  measurements of the phased workload are bit-identical to the plain
  workload and only the per-phase view is new;
* **compositions** chain several workloads back to back (context-switch
  scenarios) -- the combined trace behaves like one program that ran
  them in sequence.

:func:`phase_scenarios` packages the standard multi-phase scenarios used
by ``scripts/run_experiments.py --phases`` and
``benchmarks/bench_phase_transitions.py``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.microarch.trace import ExecutionTrace, concatenate_traces, slice_trace
from repro.workloads.base import Workload
from repro.workloads.blastn import BlastnWorkload
from repro.workloads.drr import DrrWorkload
from repro.workloads.frag import FragWorkload

__all__ = [
    "PhasedWorkload",
    "blastn_seed_extend",
    "drr_enqueue_service",
    "frag_per_packet",
    "phase_scenarios",
]


class PhasedWorkload(Workload):
    """A workload whose execution decomposes into named program phases.

    Instances behave like any other :class:`~repro.workloads.Workload`
    towards the measurement stack (``trace``/``fingerprint``/
    ``columnar_view`` describe the concatenated execution), and
    additionally expose the phase structure: :meth:`phase_bounds`,
    :meth:`phase_traces` and the per-phase cache-kernel views of
    :meth:`phase_views`.
    """

    def __init__(
        self,
        name: str,
        phase_names: Sequence[str],
        *,
        components: Optional[Sequence[Workload]] = None,
        base: Optional[Workload] = None,
        boundaries: Optional[Sequence[int]] = None,
    ):
        super().__init__()
        if (components is None) == (base is None):
            raise ConfigurationError(
                "a phased workload wraps either component workloads or a split base")
        if components is not None and len(components) != len(phase_names):
            raise ConfigurationError("one component workload per phase name")
        if base is not None and len(list(boundaries or ())) != len(phase_names) - 1:
            raise ConfigurationError(
                "a split into N phases needs exactly N-1 boundaries")
        self.name = name
        self.description = f"{len(phase_names)}-phase scenario: {', '.join(phase_names)}"
        self.phase_names: Tuple[str, ...] = tuple(phase_names)
        self._components = list(components) if components is not None else None
        self._base = base
        self._boundaries = [int(b) for b in boundaries] if boundaries is not None else None
        self._trace: Optional[ExecutionTrace] = None
        self._phase_traces: Optional[List[ExecutionTrace]] = None
        self._phase_view_cache: Dict[Tuple[str, int], list] = {}

    # -- constructors ----------------------------------------------------------------------

    @classmethod
    def from_workloads(
        cls, name: str, phases: Sequence[Tuple[str, Workload]]
    ) -> "PhasedWorkload":
        """Chain several workloads back to back (a context-switch scenario).

        The same workload instance may appear in several phases (resume
        after a context switch); its functional simulation still runs
        once.
        """
        if not phases:
            raise ConfigurationError("a phased workload needs at least one phase")
        return cls(name, [p for p, _ in phases], components=[w for _, w in phases])

    @classmethod
    def from_split(
        cls,
        workload: Workload,
        phase_names: Sequence[str],
        boundaries: Sequence[int],
        *,
        name: Optional[str] = None,
    ) -> "PhasedWorkload":
        """Split one workload's trace at explicit instruction indices."""
        n = workload.trace().instruction_count
        bounds = [int(b) for b in boundaries]
        if any(not 0 < b < n for b in bounds) or sorted(set(bounds)) != bounds:
            raise ConfigurationError(
                f"boundaries must be strictly increasing within (0, {n}): {bounds}")
        return cls(
            name or f"{workload.name}-phased", phase_names,
            base=workload, boundaries=bounds)

    @classmethod
    def split_at_labels(
        cls,
        workload: Workload,
        phase_names: Sequence[str],
        labels: Sequence[str],
        *,
        name: Optional[str] = None,
    ) -> "PhasedWorkload":
        """Split at the first execution of each program label, in order.

        ``labels[i]`` marks where phase ``i+1`` begins: the boundary is
        the first trace position (after the previous boundary) whose
        program counter equals the label's address.
        """
        if len(labels) != len(phase_names) - 1:
            raise ConfigurationError("a split into N phases needs exactly N-1 labels")
        trace = workload.trace()
        pcs = trace.pcs
        boundaries: List[int] = []
        search_from = 0
        for label in labels:
            address = workload.program.address_of(label)
            hits = np.flatnonzero(pcs[search_from:] == address)
            if not len(hits):
                raise ConfigurationError(
                    f"label {label!r} (pc={address:#x}) never executes after "
                    f"position {search_from} of {workload.name}")
            boundary = search_from + int(hits[0])
            boundaries.append(boundary)
            search_from = boundary
        return cls.from_split(workload, phase_names, boundaries, name=name)

    @classmethod
    def split_at_calls(
        cls,
        workload: Workload,
        label: str,
        *,
        phase_prefix: str = "phase",
        name: Optional[str] = None,
    ) -> "PhasedWorkload":
        """One phase per execution of ``label`` (e.g. per packet, per query).

        The instructions before the first execution of the label join the
        first phase.
        """
        trace = workload.trace()
        address = workload.program.address_of(label)
        hits = np.flatnonzero(trace.pcs == address)
        if not len(hits):
            raise ConfigurationError(
                f"label {label!r} (pc={address:#x}) never executes in {workload.name}")
        boundaries = [int(h) for h in hits[1:]]
        phase_names = [f"{phase_prefix}{i}" for i in range(len(boundaries) + 1)]
        return cls.from_split(workload, phase_names, boundaries, name=name)

    @classmethod
    def split_at_fractions(
        cls,
        workload: Workload,
        phase_names: Sequence[str],
        fractions: Optional[Sequence[float]] = None,
        *,
        name: Optional[str] = None,
    ) -> "PhasedWorkload":
        """Split at instruction-count fractions (equal phases by default)."""
        n = workload.trace().instruction_count
        count = len(phase_names)
        if fractions is None:
            fractions = [i / count for i in range(1, count)]
        boundaries = [max(1, min(n - 1, int(n * f))) for f in fractions]
        return cls.from_split(workload, phase_names, boundaries, name=name)

    # -- phase structure ----------------------------------------------------------------------

    @property
    def phase_count(self) -> int:
        return len(self.phase_names)

    def trace(self) -> ExecutionTrace:
        """The concatenated execution trace of all phases."""
        if self._trace is None:
            if self._base is not None:
                self._trace = self._base.trace()
            else:
                self._trace = concatenate_traces(
                    [component.trace() for component in self._components],
                    name=self.name)
        return self._trace

    def phase_bounds(self) -> List[int]:
        """Instruction-index phase boundaries: ``[0, b_1, ..., n]``."""
        if self._base is not None:
            return [0, *self._boundaries, self.trace().instruction_count]
        bounds = [0]
        for component in self._components:
            bounds.append(bounds[-1] + component.trace().instruction_count)
        return bounds

    def data_bounds(self) -> List[int]:
        """Phase boundaries within the data-access (load/store) stream."""
        memory_counts = np.cumsum(self.trace().memory_mask)
        return [0] + [int(memory_counts[b - 1]) if b else 0
                      for b in self.phase_bounds()[1:]]

    def phase_traces(self) -> List[ExecutionTrace]:
        """Per-phase execution traces, in phase order.

        Composition phases are the component workloads' own traces;
        split phases are slices of the base trace (with empty
        window-event streams -- see
        :func:`~repro.microarch.trace.slice_trace`).
        """
        if self._phase_traces is None:
            if self._base is not None:
                bounds = self.phase_bounds()
                self._phase_traces = [
                    slice_trace(self.trace(), lo, hi, f"{self.name}:{phase}")
                    for phase, lo, hi in zip(self.phase_names, bounds, bounds[1:])]
            else:
                self._phase_traces = [c.trace() for c in self._components]
        return self._phase_traces

    def phase_views(self, kind: str, linesize_bytes: int) -> list:
        """Per-phase columnar cache-kernel views (cached per line size).

        These are the views :func:`~repro.microarch.cachekernel.replay_chain`
        consumes: every cache geometry and replacement policy at this
        line size replays the same once-decoded phase views.
        """
        key = (kind, linesize_bytes)
        views = self._phase_view_cache.get(key)
        if views is None:
            views = [trace.columnar_view(kind, linesize_bytes)
                     for trace in self.phase_traces()]
            self._phase_view_cache[key] = views
        return views

    def has_phase_views(self, kind: str, linesize_bytes: int) -> bool:
        """True when :meth:`phase_views` would be answered from the cache."""
        return (kind, linesize_bytes) in self._phase_view_cache

    def phase_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-phase instruction-mix characterisation (phase name -> mix)."""
        return {phase: trace.mix_summary()
                for phase, trace in zip(self.phase_names, self.phase_traces())}

    def fingerprint(self) -> str:
        """Trace fingerprint extended with the phase structure.

        Two phased workloads over the same trace but with different cuts
        must never alias each other's per-phase results, so the digest
        covers the boundaries and phase names on top of the base trace
        fingerprint.
        """
        if self._fingerprint is None:
            structure = hashlib.sha1(
                ("|".join(self.phase_names)
                 + ":" + ",".join(map(str, self.phase_bounds()))).encode())
            self._fingerprint = (f"{self._trace_fingerprint(self.trace())}"
                                 f":ph{structure.hexdigest()[:8]}")
        return self._fingerprint

    def recipe(self) -> None:
        """Phased workloads have no recipe: their trace always simulates."""
        return None

    def has_trace(self) -> bool:
        return self._trace is not None

    # -- Workload interface -----------------------------------------------------------------

    def build_program(self):
        if self._base is not None:
            return self._base.build_program()
        raise NotImplementedError(
            "a composed phased workload chains separately built programs; "
            "use the component workloads' programs")

    @property
    def program(self):
        if self._base is not None:
            return self._base.program
        raise NotImplementedError(
            "a composed phased workload has no single program image")

    def run_functional(self, *, force: bool = False):
        if self._base is not None:
            return self._base.run_functional(force=force)
        raise NotImplementedError(
            "a composed phased workload has no single functional run; "
            "its trace() concatenates the components' runs")

    def reference(self):
        if self._base is not None:
            return self._base.reference()
        merged: Dict[str, int] = {}
        for phase, component in zip(self.phase_names, self._components):
            for key, value in component.reference().items():
                merged[f"{phase}:{key}"] = value
        return merged

    def extract_results(self, result):
        if self._base is not None:
            return self._base.extract_results(result)
        raise NotImplementedError(
            "composed phases verify through their component workloads")

    def verify(self, result=None) -> Dict[str, int]:
        """Verify the underlying execution(s) against the Python references."""
        if self._base is not None:
            return self._base.verify(result)
        merged: Dict[str, int] = {}
        for phase, component in zip(self.phase_names, self._components):
            for key, value in component.verify().items():
                merged[f"{phase}:{key}"] = value
        return merged


# -- standard multi-phase scenarios ----------------------------------------------------------


def blastn_seed_extend(**kwargs) -> PhasedWorkload:
    """BLASTN split at its seed-table/scan boundary.

    Phase ``seed`` clears and builds the query word table; phase
    ``extend`` scans the database and extends seed hits.  The split is
    exact for a single query (the default here); with more queries the
    later build stages fold into the ``extend`` phase.
    """
    kwargs.setdefault("query_count", 1)
    workload = BlastnWorkload(**kwargs)
    return PhasedWorkload.split_at_labels(
        workload, ("seed", "extend"), ("prime_db",),
        name="blastn-seed-extend")


def drr_enqueue_service(**kwargs) -> PhasedWorkload:
    """DRR split at its enqueue/service alternation boundary.

    Phase ``enqueue`` classifies packets through the flow table; phase
    ``service`` runs the deficit-round-robin dequeue loop over the flow
    state the enqueue phase left warm in the cache.
    """
    workload = DrrWorkload(**kwargs)
    return PhasedWorkload.split_at_labels(
        workload, ("enqueue", "service"), ("service_phase",),
        name="drr-enqueue-service")


def frag_per_packet(**kwargs) -> PhasedWorkload:
    """FRAG with one phase per processed packet (arrival-driven phases)."""
    workload = FragWorkload(**kwargs)
    return PhasedWorkload.split_at_calls(
        workload, "process_packet", phase_prefix="packet",
        name="frag-per-packet")


def phase_scenarios(*, small: bool = False) -> Dict[str, PhasedWorkload]:
    """The standard multi-phase scenarios of the phase-transition study.

    ``small=True`` selects scaled-down inputs (test/CI scale).  The
    scenarios cover the three phase-structure classes: an in-program
    split whose phases share a working set (BLASTN seed/extend), one
    whose phases stream different structures (DRR enqueue/service), and
    a context switch between applications (BLASTN interrupted by DRR,
    then resumed).
    """
    if small:
        blastn_kwargs = dict(database_length=1500, query_length=64)
        drr_kwargs = dict(packet_count=200)
    else:
        blastn_kwargs = {}
        drr_kwargs = {}
    blastn = BlastnWorkload(query_count=1, **blastn_kwargs)
    drr = DrrWorkload(**drr_kwargs)
    return {
        "blastn-seed-extend": blastn_seed_extend(**blastn_kwargs),
        "drr-enqueue-service": drr_enqueue_service(**drr_kwargs),
        "blastn-drr-switch": PhasedWorkload.from_workloads(
            "blastn-drr-switch",
            [("blastn", blastn), ("drr-interrupt", drr), ("blastn-resume", blastn)]),
    }
