"""Counters, gauges and histograms behind one mergeable registry.

The registry is the engine's single metrics surface: ad-hoc accounting
(:class:`~repro.engine.backend.EngineStats` fields, stage wall-clock,
store lock retries, campaign claim shapes) all lands here, so
one :meth:`MetricsRegistry.snapshot` call answers "what has this engine
done" uniformly for the ``--profile`` dump, the experiment tables and
the campaign heartbeats.

Three metric kinds:

* :class:`Counter` -- monotone event count (``inc``);
* :class:`Gauge` -- last-written value of anything (numbers or strings,
  e.g. the resolved kernel lane);
* :class:`Histogram` -- streaming count/total/min/max of observations
  (``observe``), summarised without storing samples.

Library code without an engine reference observes into the process
registry (:func:`get_registry`).  At batch end the engine takes its
typed deltas with :meth:`MetricsRegistry.drain` and folds them into its
own registry with :meth:`MetricsRegistry.merge` -- counters add, gauges
last-write-wins, histograms merge their summaries.
Everything is plain data and cheap: an observation is one dict lookup
and a few float ops.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple, Union

__all__ = [
    "Counter",
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
#: batch end and merged into the owning engine's
#: :class:`~repro.engine.backend.EngineStats` registry.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The current process-level registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process registry (tests)."""
    global _REGISTRY
    _REGISTRY = registry
    return registry
