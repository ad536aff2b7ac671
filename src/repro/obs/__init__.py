"""Zero-dependency telemetry: span tracer, run record, dashboard.

The observability layer of the evaluation stack, threaded through the
engine, kernel, store and campaign modules:

* :mod:`repro.obs.tracer` -- nested wall/CPU spans with structured
  attributes, exported as Chrome trace-event JSON (Perfetto-loadable)
  or JSONL;
* :mod:`repro.obs.metrics` -- :class:`~repro.obs.metrics.EngineStats`,
  the platform's run record: every count and stage time of a run, and
  the one flat view of them that ``--profile`` and ``GET /metrics`` read;
* :mod:`repro.obs.dashboard` -- the live ``--status --watch`` view of a
  draining campaign grid, built from grid rows and worker heartbeats in
  the campaign's own SQLite file.

Everything is stdlib-only and safe to leave always-on: with tracing
disabled (the default) a span costs one attribute check, and a count
is one attribute increment.
"""

from repro.obs.metrics import EngineStats
from repro.obs.tracer import (
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    span,
    tracing_enabled,
    validate_chrome_trace,
)

__all__ = [
    "EngineStats",
    "SpanRecord",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "set_tracer",
    "span",
    "tracing_enabled",
    "validate_chrome_trace",
]
