"""Counters, gauges and histograms behind one mergeable registry.

The registry is the platform's single metrics surface: ad-hoc accounting
(:class:`EngineStats` fields, stage wall-clock, store lock retries,
campaign claim shapes) all lands here, so one
:meth:`MetricsRegistry.snapshot` call answers "what has this platform
done" uniformly for the ``--profile`` dump, the experiment tables and
the campaign heartbeats.

Three metric kinds:

* :class:`Counter` -- monotone event count (``inc``);
* :class:`Gauge` -- last-written value of anything (numbers or strings);
* :class:`Histogram` -- streaming count/total/min/max of observations
  (``observe``), summarised without storing samples.

Library code without a platform reference observes into the process
registry (:func:`get_registry`).  At batch end the platform takes its
typed deltas with :meth:`MetricsRegistry.drain` and folds them into its
own registry with :meth:`MetricsRegistry.merge` -- counters add, gauges
last-write-wins, histograms merge their summaries.
Everything is plain data and cheap: an observation is one dict lookup
and a few float ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, Optional, Tuple, Union

__all__ = [
    "Counter",
    "EngineStats",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]


class Counter:
    """Monotone event counter."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def snapshot_value(self) -> Union[int, float]:
        return self.value


class Gauge:
    """Last-written value (numeric or text)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value

    def snapshot_value(self) -> Any:
        return self.value


class Histogram:
    """Streaming summary of observations: count, total, min, max, mean."""

    kind = "histogram"
    __slots__ = ("count", "total", "vmin", "vmax")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: Union[int, float]) -> None:
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_summary(self, summary: Dict[str, Any]) -> None:
        """Fold another histogram's summary (e.g. a worker's) into this one."""
        if not summary.get("count"):
            return
        self.count += summary["count"]
        self.total += summary["total"]
        for bound, pick in (("min", min), ("max", max)):
            theirs = summary.get(bound)
            if theirs is None:
                continue
            ours = self.vmin if bound == "min" else self.vmax
            merged = theirs if ours is None else pick(ours, theirs)
            if bound == "min":
                self.vmin = merged
            else:
                self.vmax = merged

    def snapshot_value(self) -> Dict[str, Any]:
        return {"count": self.count, "total": self.total,
                "min": self.vmin, "max": self.vmax, "mean": self.mean}


_Metric = Union[Counter, Gauge, Histogram]
_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named metrics with get-or-create access and worker delta merging."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get(self, name: str, cls: type) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Tuple[str, _Metric]]:
        return iter(sorted(self._metrics.items()))

    # -- snapshots and merging -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain ``name -> value`` mapping (histograms as summary dicts)."""
        return {name: metric.snapshot_value() for name, metric in self}

    def drain(self) -> Dict[str, Dict[str, Any]]:
        """Typed deltas since the last drain; counters/histograms reset.

        The worker-side half of cross-process metrics: the returned
        mapping is picklable and feeds :meth:`merge` on the host.
        Gauges report their current value and are not reset (last write
        wins on the host too).
        """
        deltas: Dict[str, Dict[str, Any]] = {}
        for name, metric in self:
            value = metric.snapshot_value()
            if metric.kind == "counter" and not value:
                continue
            if metric.kind == "histogram" and not value["count"]:
                continue
            deltas[name] = {"kind": metric.kind, "value": value}
        for metric in self._metrics.values():
            if metric.kind == "counter":
                metric.value = 0
            elif metric.kind == "histogram":
                metric.count, metric.total = 0, 0.0
                metric.vmin = metric.vmax = None
        return deltas

    def merge(self, deltas: Dict[str, Dict[str, Any]]) -> None:
        """Fold :meth:`drain` output from another registry into this one."""
        for name, entry in deltas.items():
            kind, value = entry["kind"], entry["value"]
            metric = self._get(name, _KINDS[kind])
            if kind == "counter":
                metric.inc(value)
            elif kind == "gauge":
                metric.set(value)
            else:
                metric.merge_summary(value)

    def render_text(self) -> str:
        """Aligned ``name value`` lines (the ``--profile`` text dump)."""
        lines = []
        width = max((len(name) for name, _ in self), default=0)
        for name, metric in self:
            value = metric.snapshot_value()
            if metric.kind == "histogram":
                value = (f"count={value['count']} total={value['total']:.6g} "
                         f"mean={value['mean']:.6g} min={value['min']} "
                         f"max={value['max']}")
            lines.append(f"{name:<{width}}  {value}")
        return "\n".join(lines)


#: The process registry: instrumentation that has no better home (store
#: lock retries) observes here; its deltas are drained at
#: batch end and merged into the measuring platform's
#: :class:`EngineStats` registry.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The current process-level registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process registry (tests)."""
    global _REGISTRY
    _REGISTRY = registry
    return registry


@dataclass
class EngineStats:
    """Work accounting of one :class:`~repro.platform.liquid.LiquidPlatform`.

    The counters quantify how much simulation the platform *avoided*
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
    #: result store (none of their geometries replayed by this platform).
    store_hits: int = 0
    #: Rows -- cache geometries and trace summaries -- written to the store.
    store_writes: int = 0
    #: Workload trace fingerprints resolved from the store's input-key
    #: rows (no program assembled or simulated to key the lookups), and
    #: input-key lookups that found no row, so the workload was simulated.
    input_hits: int = 0
    input_misses: int = 0
    #: Distinct cache simulations executed on behalf of the batches.
    cache_simulations: int = 0
    #: Shared-decode groups -- distinct ``(trace, kind, linesize)`` decodes --
    #: the cache simulations were batched into.
    cache_groups: int = 0
    #: Configurations evaluated through
    #: :func:`~repro.microarch.timing.evaluate_many` (in-process memo hits
    #: excluded; store hits are timed like any other configuration) --
    #: the distinct runs of the platform's ``effort()``.
    sweep_evaluations: int = 0
    #: Campaign-grid sharding accounting (see
    #: :class:`~repro.engine.campaign.CampaignWorker`): claim transactions
    #: issued, replay rows claimed by them, SQLite lock conflicts
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
    #: the platform can observe the stages directly.  Stages recorded by
    #: the platform itself: ``input_key`` (a workload's fingerprint lookup
    #: in the store), ``trace_generation``, ``store_io`` (the batch's
    #: store read and write), ``cache_simulation`` and ``sweep_evaluate``;
    #: the tuner adds ``solve`` around its solver pass.  Each accumulation
    #: also feeds a ``stage.<name>`` histogram on :attr:`registry`, so
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
