"""Nested span tracer with Chrome trace-event and JSONL exporters.

One :class:`Tracer` lives per process (see :func:`get_tracer`); code
anywhere in the evaluation stack opens spans through the module-level
:func:`span` helper::

    with span("decode", trace=fingerprint, linesize=32):
        view = decode_trace(...)

A span records wall-clock and CPU time plus arbitrary structured
attributes, and knows its nesting depth, process and thread.  The
default process tracer is *disabled*: :func:`span` then returns a
shared no-op context manager, so always-on instrumentation costs one
attribute check per call site -- cheap enough to leave in every hot path
that runs at batch/group granularity.

Exporters:

* :meth:`Tracer.export_chrome` writes the Chrome trace-event format
  (``{"traceEvents": [...]}`` with ``ph: "X"`` complete events), directly
  loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
  process-name metadata labels each process lane.
* :meth:`Tracer.export_jsonl` writes one raw :class:`SpanRecord` per
  line for ad-hoc analysis.

:func:`validate_chrome_trace` checks an exported file against the
minimal schema the CI observability job (and the Perfetto loader)
relies on.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, IO, List, Optional, Union

__all__ = [
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "span",
    "validate_chrome_trace",
]


@dataclass
class SpanRecord:
    """One completed span: what ran, where, for how long.

    ``ts`` is a shared wall-clock (``time.time``) timestamp so records
    from different processes on one host order correctly; ``wall`` and
    ``cpu`` are high-resolution durations (``perf_counter`` /
    ``process_time`` deltas).
    """

    name: str
    #: Epoch seconds at span entry (comparable across processes on a host).
    ts: float
    #: Wall-clock duration in seconds.
    wall: float
    #: CPU seconds consumed by the process while the span was open.
    cpu: float
    #: Nesting depth at entry within this thread (0 = top level).
    depth: int
    pid: int
    tid: int
    #: Structured attributes given at span entry (plus ``error`` on raise).
    attrs: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """No-op attribute update (parity with :meth:`_ActiveSpan.set`)."""


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """A live span; closing it appends a :class:`SpanRecord` to the tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_ts", "_wall0", "_cpu0", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        self._depth = self._tracer._enter()
        self._ts = time.time()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> None:
        """Add attributes discovered while the span is open."""
        self._attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._tracer._exit(SpanRecord(
            name=self._name,
            ts=self._ts,
            wall=wall,
            cpu=cpu,
            depth=self._depth,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=self._attrs,
        ))
        return False


class Tracer:
    """Collects nested spans for one process.

    ``sink``, when given, is called with every completed
    :class:`SpanRecord` in addition to the in-memory buffer -- the hook
    used to stream records to a JSONL file as they finish.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        sink: Optional[Callable[[SpanRecord], None]] = None,
    ):
        self.enabled = enabled
        self.records: List[SpanRecord] = []
        self._sink = sink
        self._local = threading.local()

    # -- span lifecycle --------------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Union[_ActiveSpan, _NullSpan]:
        """A context manager recording one span (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def _enter(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _exit(self, record: SpanRecord) -> None:
        self._local.depth = max(0, getattr(self._local, "depth", 1) - 1)
        self.records.append(record)
        if self._sink is not None:
            self._sink(record)

    # -- exporters -------------------------------------------------------------------------

    def chrome_events(self) -> List[Dict[str, Any]]:
        """The records as Chrome trace-event dicts with labelled lanes."""
        host_pid = os.getpid()
        events: List[Dict[str, Any]] = []
        for record in self.records:
            events.append({
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "ts": record.ts * 1e6,
                "dur": record.wall * 1e6,
                "pid": record.pid,
                "tid": record.tid,
                "args": {**record.attrs, "cpu_ms": round(record.cpu * 1e3, 3)},
            })
        for pid in sorted({record.pid for record in self.records}):
            label = "host" if pid == host_pid else f"process {pid}"
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
        return events

    def export_chrome(self, target: Union[str, IO[str]]) -> int:
        """Write the Chrome trace-event JSON file; returns the event count."""
        events = self.chrome_events()
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        if hasattr(target, "write"):
            json.dump(payload, target)
        else:
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        return len(events)

    def export_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write one raw span record per line; returns the record count."""
        lines = [json.dumps({
            "name": r.name, "ts": r.ts, "wall": r.wall, "cpu": r.cpu,
            "depth": r.depth, "pid": r.pid, "tid": r.tid, "attrs": r.attrs,
        }) for r in self.records]
        text = "\n".join(lines) + ("\n" if lines else "")
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
        return len(lines)


#: The process tracer.  Disabled by default: instrumentation is always-on
#: at the call sites but records nothing until :func:`enable_tracing`.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The current process tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process tracer (returns it)."""
    global _TRACER
    _TRACER = tracer
    return tracer


def enable_tracing(sink: Optional[Callable[[SpanRecord], None]] = None) -> Tracer:
    """Switch the process to a recording tracer (idempotent)."""
    if _TRACER.enabled and sink is None:
        return _TRACER
    return set_tracer(Tracer(enabled=True, sink=sink))


def disable_tracing() -> None:
    """Install a fresh disabled tracer (records are dropped)."""
    set_tracer(Tracer(enabled=False))


def tracing_enabled() -> bool:
    """True when the process tracer records spans."""
    return _TRACER.enabled


def span(name: str, **attrs: Any):
    """Open a span on the process tracer (no-op while tracing is disabled)."""
    return _TRACER.span(name, **attrs)


def validate_chrome_trace(path: str) -> Dict[str, Any]:
    """Validate an exported Chrome trace against the minimal schema.

    Raises :class:`ValueError` on any shape violation; returns a summary
    (event count, distinct pids, span-name counts) that the CI
    observability job asserts span coverage on.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("chrome trace must be an object with 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    pids = set()
    names: Dict[str, int] = {}
    spans = 0
    for event in events:
        if not isinstance(event, dict):
            raise ValueError("every trace event must be an object")
        for key in ("name", "ph", "pid"):
            if key not in event:
                raise ValueError(f"trace event missing '{key}': {event!r}")
        if event["ph"] == "X":
            for key in ("ts", "dur", "tid"):
                if not isinstance(event.get(key), (int, float)):
                    raise ValueError(f"complete event needs numeric '{key}'")
            if event["dur"] < 0:
                raise ValueError("complete event has negative duration")
            spans += 1
            pids.add(event["pid"])
            names[event["name"]] = names.get(event["name"], 0) + 1
    if spans == 0:
        raise ValueError("trace contains no complete ('X') span events")
    return {"events": len(events), "spans": spans,
            "pids": sorted(pids), "names": names}
