#!/usr/bin/env python3
"""End-to-end benchmark of the tuning pipeline, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 10 --trace 0

The workloads (see ``scenarios.py``):

* ``tune-cold`` -- tune four never-seen applications: every layer runs;
* ``tune-warm`` -- re-tune known applications from a new engine against
  a warm result store: every measurement is a store hit;
* ``campaign``  -- register and drain the Figure-2 grid of the
  standard-size applications in a fresh campaign database: claims,
  cache replay, broadcast timing model and store writes;
* ``service``   -- closed-loop client sessions against the resident HTTP
  tuning service, run as its own process (repeat sweep, new sweep, tune).

Set-up runs three times and reports the median.  Operations then repeat
until ``--seconds`` of wall clock have passed; each one's outputs are
checked against an independent path of the program outside its timed
region.  Every timing is scaled to a reference host speed measured
throughout the run (see :func:`host_pace`).  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``op_p50_ms``,
``configs_per_s``, ``setup_s``); with ``--trace 1`` a layer probe wraps
each pipeline layer and the metrics are the per-layer split, per
operation.  Nothing is written outside ``.perfbench/`` in the working
directory; processes the program starts (engine workers, the
multiprocessing resource tracker, the service and its helpers) are
stopped and waited for before the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy

from layers import LAYERS, LayerProbe

SETUPS = 3

#: Seconds :func:`host_pace` takes on an unloaded host of the kind the
#: bounds were set on (2 vCPUs, CPython 3.11, NumPy 2.x): the fastest of
#: 200 calls there.  Every timing of a run is scaled by
#: ``PACE_REFERENCE_S / pace``, with ``pace`` the median of the paces
#: measured before each of its set-ups and operations.
PACE_REFERENCE_S = 0.011

_PACE_ARRAY = numpy.random.default_rng(0).integers(0, 1 << 30, 300_000)


def host_pace() -> float:
    """Seconds a fixed pure-Python loop plus a NumPy sort take right now.

    The host is shared: its speed drifts by a quarter or more between
    runs minutes apart, and every layer of the program slows with it.
    Timing this probe before each set-up and operation and scaling the
    run's times by its median pace removes much of that drift while
    leaving the program's own speed in the figures -- the probe runs no
    program code.  The program mixes interpreted code with NumPy kernels,
    and so does the probe.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    numpy.sort(_PACE_ARRAY)
    return time.perf_counter() - start


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker process and wait for it.

    The engine's shared-memory probe starts it on first use.  Left alone
    it ends only after this process does, when it reads end-of-file on
    its pipe -- a moment later, and waited for by no one.  Every segment
    has been unlinked by the time this runs, so it has nothing to clean.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(latencies, configs, setups, scale):
    return {
        "op_p50_ms": (statistics.median(latencies) * scale * 1e3, "ms"),
        "configs_per_s": (configs / (sum(latencies) * scale), "1/s"),
        "setup_s": (statistics.median(setups) * scale, "s"),
    }


def per_layer(latencies, scale, probe):
    """Layer self times and counts per operation (layer times unscaled)."""
    ops = len(latencies)
    seconds, counts = probe.seconds, probe.counts
    metrics = {
        "ops": (ops, "count"),
        # the highest latency with ten operations beyond it (the maximum
        # when the run holds fewer than eleven)
        "op_tail_ms": (sorted(latencies)[ops - 11 if ops > 10 else -1]
                       * scale * 1e3, "ms"),
        "op_unscaled_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "host_slowdown": (1 / scale, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}_ms"] = (seconds[layer] * 1e3 / ops, "ms")
    metrics["claims_per_op"] = (counts["claims"] / ops, "count")
    sim = seconds["functional_sim"]
    metrics["functional_sim_minstr_s"] = (
        counts["instructions"] / sim / 1e6 if sim else 0.0, "Minstr/s")
    for name in ("instructions", "decodes", "cache_sims", "timing_evals",
                 "solves", "store_hits", "store_misses", "store_puts"):
        metrics[f"{name}_per_op"] = (counts[name] / ops, "count")
    lookups = counts["store_hits"] + counts["store_misses"]
    metrics["store_hit_ratio"] = (
        counts["store_hits"] / lookups if lookups else 0.0, "ratio")
    jobs = counts["jobs"]
    metrics["job_queue_ms"] = (
        counts["job_queue_us"] / 1e3 / jobs if jobs else 0.0, "ms")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from scenarios import SCENARIOS

    if args.workload not in SCENARIOS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have: {', '.join(SCENARIOS)})", file=sys.stderr)
        return 2
    state = os.path.join(root, ".perfbench")
    os.makedirs(state, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=state)
    # keep SQLite's and Python's temporary files inside the checkout too
    os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = tempfile.tempdir = workdir
    # the engine's default arena threshold is calibrated once per host and
    # cached under ~/.cache; pin it to the reference value instead, so the
    # run writes nothing outside the checkout and every checkout on every
    # host makes the same inline-or-pool choice for a batch
    from repro.engine.arena import ARENA_THRESHOLD_ENV, DEFAULT_PUBLISH_THRESHOLD
    os.environ[ARENA_THRESHOLD_ENV] = str(DEFAULT_PUBLISH_THRESHOLD)
    scenario = None
    try:
        setups, paces = [], []
        for attempt in range(SETUPS):
            if scenario is not None:
                scenario.teardown()
            scenario = SCENARIOS[args.workload](
                random.Random(args.seed), os.path.join(workdir, f"setup-{attempt}"))
            os.makedirs(os.path.join(workdir, f"setup-{attempt}"))
            paces.append(host_pace())
            start = time.perf_counter()
            scenario.setup()
            setups.append(time.perf_counter() - start)

        errors = list(getattr(scenario, "setup_errors", []))
        probe = LayerProbe() if args.trace else None
        scenario.probe = probe
        latencies, configs, attempted, failed = [], 0, 0, 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            inputs = scenario.prepare(attempted)
            attempted += 1
            gc.collect()  # start every operation from the same heap state
            paces.append(host_pace())
            if probe is not None:
                probe.install()  # only the timed operation is instrumented
            start = time.perf_counter()
            try:
                answered, outputs, seconds = scenario.run(inputs)
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                if probe is not None:
                    probe.uninstall()
            latencies.append(time.perf_counter() - start
                             if seconds is None else seconds)
            configs += answered
            errors.extend(scenario.check(inputs, outputs))
    finally:
        if scenario is not None:
            scenario.teardown()
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(state)  # only when no other run is using it

    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    if not latencies:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    scale = PACE_REFERENCE_S / statistics.median(paces)
    metrics = (per_layer(latencies, scale, probe) if args.trace
               else end_to_end(latencies, configs, setups, scale))
    print(f"{args.workload}: {len(latencies)} ops, {failed} failed, "
          f"{len(errors)} mismatches")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
