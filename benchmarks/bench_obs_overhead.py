"""Tracing-overhead benchmark: always-on spans must stay nearly free.

The observability layer's contract is that instrumentation is cheap
enough to leave compiled into every hot path: with tracing *disabled*
(the default) each span call site costs one attribute check, and with
tracing *enabled* a span records two clock reads and one small record
append -- at batch/group granularity, never per cache access.

This benchmark measures the Figure-2 BLASTN dcache sweep on a fresh
:class:`~repro.platform.LiquidPlatform` with
tracing off and with tracing on, in interleaved pairs (both sides of a
pair see the same background load), takes each side's best-of-``REPS``
per pair and the median pair ratio, and asserts the traced sweep stays
within ``OVERHEAD_CEILING`` of the untraced one.

Results land in ``benchmarks/BENCH_obs.json`` (smoke runs write the
sibling ``BENCH_obs.smoke.json``), which ``benchmarks/trajectory.py``
folds into the committed performance trajectory.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import statistics
import time

from conftest import SMOKE

from repro.config import (
    CACHE_SET_COUNTS,
    CACHE_SET_SIZES_KB,
    base_configuration,
)
from repro.obs import disable_tracing, enable_tracing, get_tracer
from repro.platform import LiquidPlatform
from repro.workloads import small_workloads, standard_workloads

#: Committed full-scale result; smoke runs write the sibling file so CI
#: never clobbers the tracked artifact.
RESULT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_obs.json"
SMOKE_RESULT_PATH = RESULT_PATH.with_name("BENCH_obs.smoke.json")
#: The acceptance ceiling on traced/untraced wall-clock (CI gate).
OVERHEAD_CEILING = 1.05
#: Interleaved traced/untraced pairs; the asserted ratio is their median,
#: which shrugs off one-off scheduler hiccups on shared CI runners.
PAIRS = 7 if SMOKE else 5
#: Best-of repetitions inside each side of a pair.
REPS = 3


def fig2_grid(platform):
    base = base_configuration()
    configs = [
        base.replace(dcache_sets=sets, dcache_setsize_kb=size)
        for sets, size in itertools.product(CACHE_SET_COUNTS, CACHE_SET_SIZES_KB)
    ]
    return [config for config in configs if platform.fits(config)]


def sweep_seconds(workload, configs) -> float:
    """Best-of-``REPS`` wall-clock of one cold engine sweep."""
    best = float("inf")
    for _ in range(REPS):
        platform = LiquidPlatform()
        start = time.perf_counter()
        platform.measure_many(workload, configs)
        best = min(best, time.perf_counter() - start)
    return best


def test_tracing_overhead():
    workload = (small_workloads() if SMOKE else standard_workloads())["blastn"]
    platform = LiquidPlatform()
    configs = fig2_grid(platform)
    workload.trace()  # generate once, outside every timed region

    disable_tracing()
    ratios = []
    untraced_best = traced_best = float("inf")
    span_count = 0
    try:
        for _ in range(PAIRS):
            untraced = sweep_seconds(workload, configs)
            enable_tracing()
            traced = sweep_seconds(workload, configs)
            span_count = max(span_count, len(get_tracer().records))
            disable_tracing()
            untraced_best = min(untraced_best, untraced)
            traced_best = min(traced_best, traced)
            ratios.append(traced / untraced)
    finally:
        disable_tracing()
    ratio = statistics.median(ratios)

    print(f"\ntracing overhead: {len(configs)} points, {PAIRS} pairs")
    print(f"  untraced  {untraced_best:8.4f}s  "
          f"{len(configs) / untraced_best:8.1f} configs/sec")
    print(f"  traced    {traced_best:8.4f}s  "
          f"{len(configs) / traced_best:8.1f} configs/sec  "
          f"({span_count} spans)")
    print(f"  median ratio {ratio:.3f} (ceiling {OVERHEAD_CEILING})")

    payload = {
        "smoke": SMOKE,
        "workload": "blastn",
        "points": len(configs),
        "pairs": PAIRS,
        "untraced": {
            "seconds": round(untraced_best, 4),
            "configs_per_sec": round(len(configs) / untraced_best, 1),
        },
        "traced": {
            "seconds": round(traced_best, 4),
            "configs_per_sec": round(len(configs) / traced_best, 1),
        },
        "overhead_ratio": round(ratio, 3),
        "overhead_ceiling": OVERHEAD_CEILING,
        "spans_per_sweep": span_count,
    }
    path = SMOKE_RESULT_PATH if SMOKE else RESULT_PATH
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")

    assert span_count > 0, "traced sweep recorded no spans"
    assert ratio <= OVERHEAD_CEILING, (
        f"tracing made the sweep {ratio:.3f}x slower "
        f"(ceiling {OVERHEAD_CEILING}x): spans are no longer cheap enough "
        "to leave always-on")
