"""The abstract evaluation-backend protocol and engine accounting.

:class:`EvaluationBackend` is the seam between measurement consumers
(campaign, tuner, experiment drivers) and measurement providers.  It is a
structural :class:`~typing.Protocol`: the bare
:class:`~repro.platform.LiquidPlatform` satisfies it natively, and the
:class:`~repro.engine.parallel.ParallelEvaluator` wraps a platform to add
persistence and engine accounting behind the same methods.  Both measure
through one path -- :meth:`EvaluationBackend.measure_many`, which plans a
batch once and evaluates it in one broadcast; :meth:`measure` is a batch
of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Protocol, Sequence, runtime_checkable

from repro.config.configuration import Configuration
from repro.fpga.report import ResourceReport
from repro.obs.metrics import MetricsRegistry
from repro.platform.measurement import Measurement
from repro.workloads.base import Workload

__all__ = ["EvaluationBackend", "EngineStats"]


@runtime_checkable
class EvaluationBackend(Protocol):
    """Black-box build-and-measure service (the paper's platform role).

    Implementations must be *deterministic*: measuring the same
    (workload, configuration) pair through any backend, in any batch,
    must produce an identical :class:`~repro.platform.Measurement` --
    including the seeded RANDOM-replacement cache simulations.
    """

    def build(self, config: Configuration) -> ResourceReport:
        """Synthesise a configuration (memoised)."""
        ...

    def measure(self, workload: Workload, config: Configuration) -> Measurement:
        """Build ``config`` and run ``workload`` on it (a batch of one)."""
        ...

    def measure_many(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Measure a batch of configurations; results align with ``configs``."""
        ...

    def measure_phases(self, workload, configs: Sequence[Configuration]) -> List:
        """Measure a phased workload's batch with per-phase warm/cold views.

        ``workload`` is a :class:`~repro.workloads.phased.PhasedWorkload`;
        results are :class:`~repro.platform.measurement.PhasedMeasurement`
        instances aligned with ``configs``.  The overall measurements
        must be bit-identical to :meth:`measure_many` on the same batch.
        """
        ...

    def fits(self, config: Configuration) -> bool:
        """True when the configuration can be built on the backend's device."""
        ...

    def effort(self) -> Dict[str, int]:
        """Distinct builds and runs performed so far (scalability accounting)."""
        ...


@dataclass
class EngineStats:
    """Work accounting of one :class:`~repro.engine.parallel.ParallelEvaluator`.

    The counters quantify how much simulation the engine *avoided*
    (deduplication and store hits) versus how much it actually ran:
    ``cache_simulations`` counts distinct cache replays and
    ``cache_groups`` the shared decodes they were batched into.

    ``EngineStats`` is a *typed view* over a
    :class:`~repro.obs.metrics.MetricsRegistry`: every scalar field below
    is mirrored into a registry gauge named ``engine.<field>`` on
    assignment, stage timings feed ``stage.<name>`` histograms, and the
    registry additionally absorbs the untyped metrics of the run (store
    lock retries, campaign claim shapes).  :meth:`snapshot` reads the
    typed fields back *from the registry*, and its keys are asserted
    equal to the dataclass fields in the test suite -- the two surfaces
    cannot drift.
    """

    #: Total measurements requested through the batch API.
    requested: int = 0
    #: Requests answered by collapsing duplicates within a batch.
    dedup_hits: int = 0
    #: Configurations measured from cache rows read from the persistent
    #: result store (none of their geometries replayed in this engine).
    store_hits: int = 0
    #: Rows -- cache geometries and trace summaries -- written to the store.
    store_writes: int = 0
    #: Workload trace fingerprints resolved from the store's recipe rows
    #: (no functional simulation needed to key the lookups), and recipe
    #: lookups that found no row, so the workload was simulated.
    recipe_hits: int = 0
    recipe_misses: int = 0
    #: Distinct cache simulations executed on behalf of the batches.
    cache_simulations: int = 0
    #: Shared-decode groups -- distinct ``(trace, kind, linesize)`` decodes --
    #: the cache simulations were batched into.
    cache_groups: int = 0
    #: Warm phase-chain replays executed on behalf of phased batches.
    phase_chains: int = 0
    #: Per-phase columnar decodes paid for those chains.  Decodes are a
    #: property of ``(trace, kind, linesize, phase)`` and never scale with
    #: the number of configurations; the phase-transition benchmark
    #: asserts this.
    phase_decodes: int = 0
    #: Configurations evaluated through
    #: :func:`~repro.microarch.timing.evaluate_many` (in-process memo hits
    #: excluded; store hits are timed like any other configuration).
    sweep_evaluations: int = 0
    #: Campaign-grid sharding accounting (see
    #: :class:`~repro.engine.campaign.CampaignWorker`): claim transactions
    #: issued, experiment rows claimed by them, SQLite lock conflicts
    #: retried during claim/write transactions, and rows requeued --
    #: stale claims reclaimed from dead workers plus failed rows reopened
    #: for retry.  Together they bound the sharding overhead a pull-based
    #: campaign pays on top of the evaluation itself.
    claim_batches: int = 0
    claim_rows: int = 0
    claim_conflicts: int = 0
    claim_requeues: int = 0
    #: Batch calls served.
    batches: int = 0
    #: Wall-clock seconds spent inside the batch API.
    wall_seconds: float = 0.0
    #: Per-stage wall-clock, accumulated across batches and disjoint where
    #: the engine can observe the stages directly.  Stages recorded by the
    #: engine itself: ``trace_generation``, ``store_io`` (the batch's
    #: store read and write), ``cache_simulation``, ``sweep_evaluate``,
    #: ``phase_decode`` and ``phase_chain``; the tuner
    #: adds ``solve`` around its solver pass.  Each accumulation also
    #: feeds a ``stage.<name>`` histogram on :attr:`registry`, so
    #: per-batch distributions survive next to these sums.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: The backing metrics registry of this stats view (excluded from
    #: equality/repr: two runs doing the same work compare equal even
    #: though their registries also hold timing histograms).
    registry: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the generated __init__ assigned the scalar fields before the
        # registry existed; mirror their initial values now so view and
        # registry agree from the first moment
        for name in _SCALAR_FIELDS:
            self.registry.gauge(f"engine.{name}").set(getattr(self, name))

    def __setattr__(self, name: str, value: Any) -> None:
        # write-through: the dataclass field is the typed API, the
        # registry gauge is the uniform metrics surface -- one assignment
        # updates both, so they can never disagree
        object.__setattr__(self, name, value)
        registry = self.__dict__.get("registry")
        if registry is not None and name in _SCALAR_FIELD_SET:
            registry.gauge(f"engine.{name}").set(value)

    def add_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock time into one named pipeline stage."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
        self.registry.histogram(f"stage.{stage}").observe(seconds)

    def snapshot(self) -> Dict[str, Any]:
        """Every field's current value, read back from the registry.

        Keys are exactly the dataclass fields (minus the backing
        ``registry`` itself): the scalar fields come from their
        ``engine.<field>`` gauges and ``stage_seconds`` from the
        :meth:`stage_report` sums, so the snapshot doubles as the proof
        that the typed view and the registry agree.
        """
        snap: Dict[str, Any] = {
            name: self.registry.gauge(f"engine.{name}").value
            for name in _SCALAR_FIELDS
        }
        snap["stage_seconds"] = self.stage_report()
        return snap

    def as_dict(self) -> Dict[str, float]:
        """Row-ready mapping used by the experiment tables."""
        snap = self.snapshot()
        del snap["stage_seconds"]
        snap["wall_seconds"] = round(snap["wall_seconds"], 3)
        return snap

    def stage_report(self) -> Dict[str, float]:
        """Stage-name -> seconds mapping (``--profile`` output), rounded."""
        return {stage: round(seconds, 3)
                for stage, seconds in sorted(self.stage_seconds.items())}

    def summary(self) -> str:
        """One-line human readable summary for script output."""
        return (
            f"engine: {self.requested} requests, {self.dedup_hits} dedup hits, "
            f"{self.store_hits} store hits, {self.cache_simulations} cache sims "
            f"in {self.cache_groups} decode groups, {self.wall_seconds:.2f}s"
        )


#: The scalar EngineStats fields mirrored into ``engine.<name>`` registry
#: gauges -- every dataclass field except the stage dict and the backing
#: registry itself.  Module-level so :meth:`EngineStats.__setattr__` pays
#: one frozenset probe per assignment.
_SCALAR_FIELDS = tuple(
    f.name for f in fields(EngineStats)
    if f.name not in ("stage_seconds", "registry"))
_SCALAR_FIELD_SET = frozenset(_SCALAR_FIELDS)
