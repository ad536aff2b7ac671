"""Sweep-measurement throughput of the measurement paths, plus a replay microbench.

Measures configs/sec of the measurement path on two sweep shapes:

* the **Figure-2 exhaustive dcache grid** (geometry-dense: every point is
  a distinct data-cache geometry, so trace-driven cache replay is a
  large share of the cost);
* a **pipeline-parameter sweep** (the dense regime of the one-factor
  campaigns and the BINLP tuner: hundreds of configurations share a
  handful of cache geometries, so the per-configuration timing-model
  loop *is* the cost, and the broadcast path collapses it into a few
  array operations).

The variants:

* ``scalar`` -- the per-configuration baseline: the test suite's
  ``reference_measurements`` oracle, which replays each cache geometry
  once and times every point with the unmemoised scalar timing model
  (the pre-broadcast behaviour);
* ``batched`` -- :meth:`LiquidPlatform.measure_many`, the one
  measurement path (one planning pass, shared-decode replay, one
  broadcast timing evaluation);
* ``engine`` -- ``measure_many`` through a :class:`ParallelEvaluator`
  (store/dedup planning on top of the same path, in process).

All variants must agree bit for bit at every scale, and the engine path
must stay within noise of the bare platform (``ENGINE_FLOOR``): it plans
each batch once and hands that plan to the platform, so its bookkeeping
may never cost more than it saves.
Wall-clock speedup floors only run at benchmark scale
(``REPRO_BENCH_SMOKE=1`` keeps the equality and engine-floor
assertions), except the replay microbench at the bottom, which times
the compiled replay loop against the test suite's per-access oracle
``reference_replay.simulate_accesses`` on the full-size trace at every
scale (``REPLAY_FLOOR``).

Results are written to ``benchmarks/BENCH_sweep.json`` so the perf
trajectory of the sweep path is machine readable across PRs.
"""

import itertools
import json
import pathlib
import statistics
import time

from conftest import SMOKE, emit
from reference_replay import simulate_accesses
from reference_timing import reference_measurements

from repro.analysis import dcache_exhaustive, engine_report
from repro.config import (
    CACHE_SET_COUNTS,
    CACHE_SET_SIZES_KB,
    base_configuration,
)
from repro.config.leon_space import Multiplier
from repro.engine import ParallelEvaluator
from repro.microarch.cache import CacheConfig, Replacement
from repro.microarch.cachekernel import decode_trace, simulate_many
from repro.platform import LiquidPlatform

#: Committed full-scale trajectory; smoke runs write the sibling
#: ``BENCH_sweep.smoke.json`` so CI never clobbers the tracked artifact.
RESULT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_sweep.json"
SMOKE_RESULT_PATH = RESULT_PATH.with_name("BENCH_sweep.smoke.json")
#: The ≥5x configs/sec acceptance floor for the broadcast path on the
#: timing-dominated sweep regime.
SPEEDUP_FLOOR = 5.0
#: The engine path may never fall below this fraction of the bare
#: platform's throughput -- at ANY scale.
ENGINE_FLOOR = 0.95
#: Per-geometry speedup floor of the compiled replay loop over the
#: scalar reference loop (microbench).  Measured 600-920x on a shared
#: 2-vCPU x86-64 host (gcc 12, -O2); the floor leaves ~5x headroom for
#: slower or busier CI runners.  A loop that stopped being compiled
#: would land near 1x.
REPLAY_FLOOR = 100.0
#: Interleaved batched/engine pairs that feed the ``ENGINE_FLOOR`` ratio,
#: per grid: a single pair is one ~100ms sample of a drifting shared
#: host, so even full scale takes the median of several (more at smoke
#: scale, where tiny grids make single runs noisier).  The pipeline
#: grid's ratio sits near the floor (three pairs landed on either side
#: of it), so it takes the median of fifteen.
PAIR_REPS = {"figure2": 5 if SMOKE else 3, "pipeline": 15}
#: Runs of the compiled batch in the replay microbench (median taken).
REPS_COMPILED = 9


def fig2_grid(platform):
    base = base_configuration()
    points = [
        base.replace(dcache_sets=sets, dcache_setsize_kb=size)
        for sets, size in itertools.product(CACHE_SET_COUNTS, CACHE_SET_SIZES_KB)
    ]
    return [config for config in points if platform.fits(config)]


def pipeline_grid(platform):
    """Dense non-cache sweep: hundreds of configs over two cache geometries."""
    base = base_configuration()
    points = [
        base.replace(
            fast_jump=fast_jump, icc_hold=icc_hold, fast_decode=fast_decode,
            load_delay=load_delay, dcache_fast_read=fast_read,
            dcache_fast_write=fast_write, register_windows=windows,
            multiplier=multiplier,
            dcache_setsize_kb=dcache_kb)
        for fast_jump, icc_hold, fast_decode, load_delay, fast_read, fast_write,
            windows, multiplier, dcache_kb in itertools.product(
                (True, False), (True, False), (True, False), (1, 2),
                (True, False), (True, False), (8, 16),
                (Multiplier.M16X16, Multiplier.M32X32), (4, 8))
    ]
    return [config for config in points if platform.fits(config)]


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_engine_variant(workload, configs):
    """One engine sweep: returns (result, seconds, stats dict)."""
    with ParallelEvaluator(LiquidPlatform()) as engine:
        # an off-grid batch first, so a steady-state sweep is what gets timed
        warmup = [base_configuration().replace(
            dcache_sets=sets, dcache_setsize_kb=32 if SMOKE else 16,
            dcache_replacement="lru") for sets in (2, 3)]
        warmup = [c for c in warmup if engine.fits(c)]
        engine.measure_many(workload, warmup)
        result, seconds = timed(lambda: engine.measure_many(workload, configs))
        stats = engine.stats.as_dict()
        emit(engine_report(engine))
    return result, seconds, stats


def run_variants(fresh_workload, configs, pair_reps):
    """Measure the grid through every path; returns (stats, timings, ratio)."""
    # the config-independent trace and its columnar decodes are shared by
    # every variant in the real flow; pre-warm them for the scalar and
    # platform variants so the comparison times the measurement path, not
    # trace generation
    workload = fresh_workload()
    workload.trace()
    linesizes = {("icache", c.icache_linesize_words * 4) for c in configs}
    linesizes |= {("dcache", c.dcache_linesize_words * 4) for c in configs}
    for kind, linesize in sorted(linesizes):
        workload.columnar_view(kind, linesize)

    scalar, scalar_seconds = timed(lambda: reference_measurements(workload, configs))

    # the engine variant gets its own workload instance whose views are NOT
    # pre-decoded: the first timed sweep pays the real cold-sweep decode
    # cost.  The plain batched baseline and the engine reps run as
    # interleaved pairs: the two sides of the ENGINE_FLOOR assertion then
    # sample the host's background load at the
    # same moments, instead of phases seconds apart that a load spike can
    # skew one-sidedly
    engine_workload = fresh_workload()
    engine_workload.trace()
    batched_seconds = engine_seconds = None
    pair_ratios = []
    for rep in range(pair_reps):
        batched, seconds = timed(
            lambda: LiquidPlatform().measure_many(workload, configs))
        assert batched == scalar, "batched sweep diverges from the scalar path"
        batched_seconds = seconds if batched_seconds is None else min(
            batched_seconds, seconds)
        engine_result, engine_rep_seconds, stats = run_engine_variant(
            engine_workload, configs)
        assert engine_result == scalar, "engine sweep diverges from the scalar path"
        engine_seconds = engine_rep_seconds if engine_seconds is None else min(
            engine_seconds, engine_rep_seconds)
        # each rep's plain/engine pair ran back to back, so their ratio is
        # taken under the same background load; the median over the pairs
        # is what the ENGINE_FLOOR asserts (a best-of/best-of quotient
        # would compare two different moments of a drifting host)
        pair_ratios.append(seconds / engine_rep_seconds)
    timings = {"scalar": scalar_seconds, "batched": batched_seconds,
               "engine": engine_seconds}
    return stats, timings, statistics.median(pair_ratios)


def report(name, configs, timings):
    lines = [f"\n{name}: {len(configs)} grid points"]
    for variant, seconds in timings.items():
        lines.append(
            f"  {variant:<14} {seconds:8.3f}s  {len(configs) / seconds:10.1f} configs/sec")
    lines.append(
        f"  speedup batched {timings['scalar'] / timings['batched']:.2f}x, "
        f"engine {timings['scalar'] / timings['engine']:.2f}x vs scalar")
    print("\n".join(lines))


def to_entry(configs, timings, stats, engine_ratio):
    return {
        "points": len(configs),
        "variants": {
            variant: {
                "seconds": round(seconds, 4),
                "configs_per_sec": round(len(configs) / seconds, 1),
            }
            for variant, seconds in timings.items()
        },
        "speedup_batched_vs_scalar": round(timings["scalar"] / timings["batched"], 2),
        "speedup_engine_vs_scalar": round(
            timings["scalar"] / timings["engine"], 2),
        "engine_vs_batched": round(engine_ratio, 2),
        "engine": stats,
    }


def result_path():
    return SMOKE_RESULT_PATH if SMOKE else RESULT_PATH


def merge_payload(section, value):
    """Read-modify-write one section of the trajectory artifact."""
    path = result_path()
    payload = {"smoke": SMOKE}
    if path.exists():
        payload = json.loads(path.read_text())
    payload[section] = value
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {path} [{section}]")


def test_sweep_throughput_trajectory():
    from repro.workloads import small_workloads, standard_workloads

    def fresh_blastn():
        source = small_workloads if SMOKE else standard_workloads
        return source()["blastn"]

    platform = LiquidPlatform()

    fig2 = fig2_grid(platform)
    fig2_stats, fig2_timings, fig2_ratio = run_variants(
        fresh_blastn, fig2, PAIR_REPS["figure2"])
    report("Figure-2 dcache grid (geometry-dense)", fig2, fig2_timings)

    pipeline = pipeline_grid(platform)
    pipe_stats, pipe_timings, pipe_ratio = run_variants(
        fresh_blastn, pipeline, PAIR_REPS["pipeline"])
    report("Pipeline-parameter sweep (timing-dense)", pipeline, pipe_timings)

    payload = {
        "smoke": SMOKE,
        "workload": "blastn",
        "figure2_grid": to_entry(fig2, fig2_timings, fig2_stats, fig2_ratio),
        "pipeline_grid": to_entry(pipeline, pipe_timings, pipe_stats, pipe_ratio),
        "speedup_floor": SPEEDUP_FLOOR,
        "engine_floor": ENGINE_FLOOR,
        "engine_floor_pairs": PAIR_REPS,
    }
    result_path().write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {result_path()}")

    # the engine path may never lose to the bare platform -- at
    # ANY scale.  The asserted ratio is the median over the interleaved
    # per-rep pairs, so both sides of every sample saw the same background
    # load.
    for name, ratio in (("figure2", fig2_ratio), ("pipeline", pipe_ratio)):
        assert ratio >= ENGINE_FLOOR, (
            f"engine path on the {name} grid is {ratio:.2f}x the "
            f"batched path, below the {ENGINE_FLOOR}x floor")

    if SMOKE:
        return  # CI smoke checks equality; wall clock is meaningless
    # the broadcast path must never lose to the per-config loop, even on the
    # geometry-dense grid where cache replay dominates ...
    assert fig2_timings["batched"] < fig2_timings["scalar"], (
        f"batched Figure-2 sweep ({fig2_timings['batched']:.3f}s) not faster "
        f"than the per-config baseline ({fig2_timings['scalar']:.3f}s)")
    # ... and on the timing-dense sweep regime it must clear the 5x floor
    speedup = pipe_timings["scalar"] / pipe_timings["batched"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched pipeline sweep speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor")


def test_replay_microbench():
    """Replay only: the compiled loop against the scalar reference loop.

    Strips the timing model, tracing and planning away: the benchmark-
    scale BLASTN data trace decoded once and replayed over every
    associative Figure-2 dcache geometry under each replacement policy
    (LEON2's LRR is 2-way only), by :func:`simulate_many` and by
    ``reference_replay.simulate_accesses``, the scalar per-access oracle.
    The scalar pass runs once (it is seconds long); the compiled batch
    takes the median of ``REPS_COMPILED`` runs.  Both always use the
    full-size trace, so the ≥``REPLAY_FLOOR``x floor is enforced at
    smoke scale too.
    """
    from repro.workloads import standard_workloads

    linesize_words = base_configuration().dcache_linesize_words
    configs = [
        CacheConfig(ways=ways, setsize_kb=size, linesize_words=linesize_words,
                    replacement=policy)
        for ways, size in itertools.product(CACHE_SET_COUNTS, CACHE_SET_SIZES_KB)
        for policy in Replacement.ALL
        if ways > 1 and (policy != Replacement.LRR or ways == 2)
    ]
    trace = standard_workloads()["blastn"].trace()
    addresses, writes = trace.data_addresses, trace.data_is_write
    view = decode_trace(addresses, writes, linesize_bytes=linesize_words * 4)

    # untimed warm pass: set views are a property of the view and are
    # shared by every geometry with that set count in the real flow
    compiled = simulate_many(view, configs)
    scalar, scalar_seconds = timed(lambda: [
        simulate_accesses(config, addresses, writes) for config in configs])
    assert compiled == scalar, "compiled replay diverges from the scalar loop"
    compiled_seconds = statistics.median(
        timed(lambda: simulate_many(view, configs))[1]
        for _ in range(REPS_COMPILED))
    speedup = scalar_seconds / compiled_seconds

    entry = {
        "geometries": len(configs),
        "accesses": len(addresses),
        "scalar_seconds": round(scalar_seconds, 4),
        "compiled_seconds": round(compiled_seconds, 5),
        "scalar_configs_per_sec": round(len(configs) / scalar_seconds, 1),
        "compiled_configs_per_sec": round(len(configs) / compiled_seconds, 1),
        "speedup": round(speedup, 1),
        "floor": REPLAY_FLOOR,
    }
    print(f"\nreplay microbench: {len(configs)} geometries x {len(addresses)} "
          f"accesses: scalar {scalar_seconds:.3f}s, compiled "
          f"{compiled_seconds * 1e3:.2f}ms ({speedup:.0f}x)")
    merge_payload("replay_microbench", entry)

    assert speedup >= REPLAY_FLOOR, (
        f"compiled replay speedup {speedup:.1f}x below the {REPLAY_FLOOR}x floor")


def test_sweep_path_wired_into_figure2_driver(workloads):
    """The Figure-2 driver measures its grid as one batch, bit-identical to
    the per-configuration oracle."""
    workload = workloads["arith" if SMOKE else "blastn"]
    with ParallelEvaluator(LiquidPlatform()) as engine:
        swept = dcache_exhaustive(engine, workload)
        assert engine.stats.batches == 1
        assert engine.stats.sweep_evaluations == len(swept.data["rows"])
    reference = reference_measurements(workload, fig2_grid(LiquidPlatform()))
    assert [(row["cycles"], row["lut_percent"], row["bram_percent"])
            for row in swept.data["rows"]] == [
        (m.cycles, m.lut_percent, m.bram_percent) for m in reference]
