"""Zero-dependency telemetry: span tracer, metrics registry, dashboard.

The observability layer of the evaluation stack, threaded through the
engine, kernel, store and campaign modules:

* :mod:`repro.obs.tracer` -- nested wall/CPU spans with structured
  attributes, exported as Chrome trace-event JSON (Perfetto-loadable)
  or JSONL;
* :mod:`repro.obs.metrics` -- counters/gauges/histograms behind one
  mergeable registry; :class:`~repro.obs.metrics.EngineStats`, the
  platform's work accounting, is a typed view over it;
* :mod:`repro.obs.dashboard` -- the live ``--status --watch`` view of a
  draining campaign grid, built from grid rows and worker heartbeats in
  the campaign's own SQLite file.

Everything is stdlib-only and safe to leave always-on: with tracing
disabled (the default) a span costs one attribute check, and metrics
are plain dict lookups.
"""

from repro.obs.metrics import (
    Counter,
    EngineStats,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
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
    "Counter",
    "EngineStats",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
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
