"""Sweep-measurement throughput across the cache-kernel replay lanes.

Measures configs/sec of the measurement path on two sweep shapes:

* the **Figure-2 exhaustive dcache grid** (geometry-dense: every point is
  a distinct data-cache geometry, so trace-driven cache replay dominates
  and the cross-config rank-synchronous lane shares the replay loop
  itself across the whole grid);
* a **pipeline-parameter sweep** (the dense regime of the one-factor
  campaigns and the BINLP tuner: hundreds of configurations share a
  handful of cache geometries, so the per-configuration timing-model
  loop *is* the cost, and the broadcast path collapses it into a few
  array operations).

The variants, one per kernel lane plus the engine paths:

* ``scalar`` -- the faithful per-configuration baseline: ``measure_many``
  with the unmemoised :meth:`TimingModel.evaluate_reference` per point
  and the per-config ``numpy`` replay lane (the pre-sweep behaviour);
* ``batched`` -- the sequential :meth:`LiquidPlatform.measure_sweep`
  broadcast path, still on the ``numpy`` replay lane;
* ``crossconfig`` -- the same broadcast path on the default
  cross-config lane (one rank-synchronous replay for the whole grid);
* ``jit`` -- the Numba event-loop lane, recorded only when Numba is
  importable on the host;
* ``engine`` -- ``measure_sweep`` through a :class:`ParallelEvaluator`
  (store/dedup planning plus shared-decode replay groups, in process).

All variants must agree bit for bit at every scale, and the engine path
must stay within noise of the sequential batched path
(``ENGINE_FLOOR``): its planning may never cost more than it saves.
Wall-clock speedup floors only run at benchmark scale
(``REPRO_BENCH_SMOKE=1`` keeps the equality and engine-floor
assertions), except the
replay-bound lane microbench at the bottom, whose ≥``REPLAY_FLOOR``x
cross-config floor holds at smoke scale too and is what the CI
perf-smoke job enforces.

Results are written to ``benchmarks/BENCH_sweep.json`` so the perf
trajectory of the sweep path is machine readable across PRs.
"""

import contextlib
import itertools
import json
import os
import pathlib
import time

from conftest import SMOKE, emit

from repro.analysis import dcache_exhaustive, engine_report
from repro.config import (
    CACHE_SET_COUNTS,
    CACHE_SET_SIZES_KB,
    base_configuration,
)
from repro.config.leon_space import Multiplier
from repro.engine import ParallelEvaluator
from repro.microarch.cache import CacheConfig, Replacement
from repro.microarch.cachekernel import (
    KERNEL_LANE_ENV,
    LANE_CROSSCONFIG,
    LANE_JIT,
    LANE_NUMPY,
    decode_trace,
    jit_available,
    simulate_many,
)
from repro.microarch.timing import TimingModel
from repro.platform import LiquidPlatform

#: Committed full-scale trajectory; smoke runs write the sibling
#: ``BENCH_sweep.smoke.json`` so CI never clobbers the tracked artifact.
RESULT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_sweep.json"
SMOKE_RESULT_PATH = RESULT_PATH.with_name("BENCH_sweep.smoke.json")
#: The ≥5x configs/sec acceptance floor for the broadcast path on the
#: timing-dominated sweep regime.
SPEEDUP_FLOOR = 5.0
#: The cross-config lane's end-to-end floor on the geometry-dense
#: Figure-2 grid (full scale; the committed trajectory targets ≥4x).
CROSSCONFIG_GRID_FLOOR = 3.0
#: The engine path may never fall below this fraction of the sequential
#: batched path's throughput -- at ANY scale.
ENGINE_FLOOR = 0.95
#: The cross-config lane's replay-only floor (microbench).  The committed
#: full-scale trajectory holds the 3x bar; the smoke leg keeps a margin
#: below it because the lane's stacked state arrays make it more
#: sensitive to memory-bandwidth contention on shared CI runners (a real
#: regression -- the lane falling back to per-config replay -- shows up
#: as ~1x, far below either floor).
REPLAY_FLOOR = 2.5 if SMOKE else 3.0
#: Best-of repetitions for the cheap sequential variants at smoke scale
#: (tiny grids make single-shot wall clocks noisy, and the first couple
#: of repetitions in a fresh process absorb lazy-import and allocator
#: warmup); full scale stays single-shot, matching the historical
#: methodology.
REPS = 5 if SMOKE else 1
#: Repetitions for the interleaved batched/engine pairs that feed the
#: ``ENGINE_FLOOR`` ratio: a single pair is one ~100ms sample of a
#: drifting shared host, so even full scale takes the median of three.
PAIR_REPS = max(REPS, 3)


@contextlib.contextmanager
def per_config_reference_timing():
    """Run the platform with the pre-sweep per-configuration timing path.

    ``evaluate_reference`` recomputes every trace reduction per call --
    histogram, hazard counts, the scalar window-trap walk, the latency
    dict rebuilds -- exactly like the original ``TimingModel.evaluate``
    did, making the scalar baseline faithful to the pre-batching code.
    """
    original = TimingModel.evaluate
    TimingModel.evaluate = TimingModel.evaluate_reference
    try:
        yield
    finally:
        TimingModel.evaluate = original


@contextlib.contextmanager
def kernel_lane_env(lane):
    """Pin the replay lane via the environment, exactly like a user would."""
    saved = os.environ.get(KERNEL_LANE_ENV)
    os.environ[KERNEL_LANE_ENV] = lane
    try:
        yield
    finally:
        if saved is None:
            del os.environ[KERNEL_LANE_ENV]
        else:
            os.environ[KERNEL_LANE_ENV] = saved


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


def best_of(fn, reps=REPS):
    """Best wall clock over ``reps`` runs (each run a fresh measurement)."""
    result, seconds = timed(fn)
    for _ in range(reps - 1):
        again, again_seconds = timed(fn)
        assert again == result, "repeated run diverged"
        seconds = min(seconds, again_seconds)
    return result, seconds


def run_engine_variant(workload, configs):
    """One engine sweep: returns (result, seconds, stats dict)."""
    with ParallelEvaluator(LiquidPlatform()) as engine:
        # an off-grid batch first, so a steady-state sweep is what gets timed
        warmup = [base_configuration().replace(
            dcache_sets=sets, dcache_setsize_kb=32 if SMOKE else 16,
            dcache_replacement="lru") for sets in (2, 3)]
        warmup = [c for c in warmup if engine.fits(c)]
        engine.measure_sweep(workload, warmup)
        result, seconds = timed(lambda: engine.measure_sweep(workload, configs))
        stats = engine.stats.as_dict()
        emit(engine_report(engine))
    return result, seconds, stats


def run_variants(fresh_workload, configs):
    """Measure the grid through every lane/path; returns (stats, timings)."""
    # the config-independent trace and its columnar decodes are shared by
    # every variant in the real flow; pre-warm them for the sequential
    # variants so the comparison times the measurement path, not trace
    # generation
    workload = fresh_workload()
    workload.trace()
    linesizes = {("icache", c.icache_linesize_words * 4) for c in configs}
    linesizes |= {("dcache", c.dcache_linesize_words * 4) for c in configs}
    for kind, linesize in sorted(linesizes):
        workload.columnar_view(kind, linesize)

    with per_config_reference_timing(), kernel_lane_env(LANE_NUMPY):
        scalar, scalar_seconds = timed(
            lambda: LiquidPlatform().measure_many(workload, configs))
    with kernel_lane_env(LANE_CROSSCONFIG):
        cross, cross_seconds = best_of(
            lambda: LiquidPlatform().measure_sweep(workload, configs))
    timings = {"scalar": scalar_seconds, "crossconfig": cross_seconds}
    results = {"crossconfig": cross}
    if jit_available():
        with kernel_lane_env(LANE_JIT):
            results["jit"], timings["jit"] = best_of(
                lambda: LiquidPlatform().measure_sweep(workload, configs))

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
    for rep in range(PAIR_REPS):
        with kernel_lane_env(LANE_NUMPY):
            batched, seconds = timed(
                lambda: LiquidPlatform().measure_sweep(workload, configs))
        assert batched == scalar, "batched sweep diverges from the scalar path"
        batched_seconds = seconds if batched_seconds is None else min(
            batched_seconds, seconds)
        engine_result, engine_rep_seconds, stats = run_engine_variant(
            engine_workload, configs)
        engine_seconds = engine_rep_seconds if engine_seconds is None else min(
            engine_seconds, engine_rep_seconds)
        # each rep's plain/engine pair ran back to back, so their ratio is
        # taken under the same background load; the median over the pairs
        # is what the ENGINE_FLOOR asserts (a best-of/best-of quotient
        # would compare two different moments of a drifting host)
        pair_ratios.append(seconds / engine_rep_seconds)
    results["batched"] = batched
    timings["batched"] = batched_seconds
    results["engine"] = engine_result
    timings["engine"] = engine_seconds
    engine_ratio = sorted(pair_ratios)[len(pair_ratios) // 2]

    for variant, result in results.items():
        assert result == scalar, f"{variant} sweep diverges from the scalar path"
    return stats, timings, engine_ratio


def report(name, configs, timings):
    lines = [f"\n{name}: {len(configs)} grid points"]
    for variant, seconds in timings.items():
        lines.append(
            f"  {variant:<14} {seconds:8.3f}s  {len(configs) / seconds:10.1f} configs/sec")
    lines.append(
        f"  speedup batched {timings['scalar'] / timings['batched']:.2f}x, "
        f"crossconfig {timings['scalar'] / timings['crossconfig']:.2f}x, "
        f"engine {timings['scalar'] / timings['engine']:.2f}x vs scalar")
    print("\n".join(lines))


def to_entry(configs, timings, stats=None, engine_ratio=None):
    entry = {
        "points": len(configs),
        "variants": {
            variant: {
                "seconds": round(seconds, 4),
                "configs_per_sec": round(len(configs) / seconds, 1),
            }
            for variant, seconds in timings.items()
        },
        "speedup_batched_vs_scalar": round(timings["scalar"] / timings["batched"], 2),
        "speedup_crossconfig_vs_scalar": round(
            timings["scalar"] / timings["crossconfig"], 2),
        "speedup_engine_vs_scalar": round(
            timings["scalar"] / timings["engine"], 2),
        "engine_vs_batched": round(
            engine_ratio if engine_ratio is not None
            else timings["batched"] / timings["engine"], 2),
    }
    if "jit" in timings:
        entry["speedup_jit_vs_scalar"] = round(
            timings["scalar"] / timings["jit"], 2)
    if stats is not None:
        entry["engine"] = stats
    return entry


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
    fig2_stats, fig2_timings, fig2_ratio = run_variants(fresh_blastn, fig2)
    report("Figure-2 dcache grid (geometry-dense)", fig2, fig2_timings)

    pipeline = pipeline_grid(platform)
    pipe_stats, pipe_timings, pipe_ratio = run_variants(fresh_blastn, pipeline)
    report("Pipeline-parameter sweep (timing-dense)", pipeline, pipe_timings)

    payload = {
        "smoke": SMOKE,
        "workload": "blastn",
        "jit_available": jit_available(),
        "figure2_grid": to_entry(fig2, fig2_timings, fig2_stats, fig2_ratio),
        "pipeline_grid": to_entry(pipeline, pipe_timings, pipe_stats, pipe_ratio),
        "speedup_floor": SPEEDUP_FLOOR,
        "crossconfig_grid_floor": CROSSCONFIG_GRID_FLOOR,
        "engine_floor": ENGINE_FLOOR,
    }
    result_path().write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {result_path()}")

    # the engine path may never lose to the sequential batched path -- at
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
    # ... the cross-config lane must clear its floor on that same grid ...
    cross_speedup = fig2_timings["scalar"] / fig2_timings["crossconfig"]
    assert cross_speedup >= CROSSCONFIG_GRID_FLOOR, (
        f"cross-config Figure-2 sweep speedup {cross_speedup:.2f}x below the "
        f"{CROSSCONFIG_GRID_FLOOR}x floor")
    # ... and on the timing-dense sweep regime it must clear the 5x floor
    speedup = pipe_timings["scalar"] / pipe_timings["batched"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched pipeline sweep speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor")


def test_crossconfig_replay_microbench():
    """Replay-only lane comparison on the Figure-2 dcache geometries.

    Strips the timing model, tracing and planning away: the benchmark-
    scale BLASTN data trace decoded once, replayed by
    :func:`simulate_many` under the per-config ``numpy`` lane versus the
    cross-config lane, over every associative Figure-2 dcache geometry
    under each replacement policy (LEON2's LRR is 2-way only).  Real
    traces are what the lane is built for -- their skewed set pressure
    produces many narrow ranks, exactly the fixed-overhead regime the
    merged loop amortises -- so the microbench always runs the full-size
    trace; replay alone is fast enough that the ≥``REPLAY_FLOOR``x floor
    is enforced at smoke scale too, which is what the CI perf-smoke job
    checks.
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
    accesses = len(trace.data_addresses)
    view = decode_trace(trace.data_addresses, trace.data_is_write,
                        linesize_bytes=linesize_words * 4)

    # untimed warm pass per lane: set views are a property of the view and
    # are shared by both lanes in the real flow
    reference = simulate_many(view, configs, lane=LANE_NUMPY)
    assert simulate_many(view, configs, lane=LANE_CROSSCONFIG) == reference

    # interleave the two lanes' repetitions so each speedup sample
    # compares wall clocks taken under the same background load, then
    # take the median ratio: one load spike spoils one pair, not the
    # verdict (same estimator as the ENGINE_FLOOR assertion)
    per_config_seconds = crossconfig_seconds = None
    pair_ratios = []
    for _ in range(PAIR_REPS):
        _, numpy_seconds = timed(
            lambda: simulate_many(view, configs, lane=LANE_NUMPY))
        per_config_seconds = numpy_seconds if per_config_seconds is None else min(
            per_config_seconds, numpy_seconds)
        _, seconds = timed(
            lambda: simulate_many(view, configs, lane=LANE_CROSSCONFIG))
        crossconfig_seconds = seconds if crossconfig_seconds is None else min(
            crossconfig_seconds, seconds)
        pair_ratios.append(numpy_seconds / seconds)
    speedup = sorted(pair_ratios)[len(pair_ratios) // 2]

    entry = {
        "geometries": len(configs),
        "accesses": accesses,
        "per_config_seconds": round(per_config_seconds, 4),
        "crossconfig_seconds": round(crossconfig_seconds, 4),
        "per_config_configs_per_sec": round(len(configs) / per_config_seconds, 1),
        "crossconfig_configs_per_sec": round(len(configs) / crossconfig_seconds, 1),
        "speedup": round(speedup, 2),
        "floor": REPLAY_FLOOR,
    }
    if jit_available():
        _, jit_seconds = best_of(
            lambda: simulate_many(view, configs, lane=LANE_JIT), reps=3)
        entry["jit_seconds"] = round(jit_seconds, 4)
        entry["jit_configs_per_sec"] = round(len(configs) / jit_seconds, 1)
        assert simulate_many(view, configs, lane=LANE_JIT) == reference

    print(f"\nreplay microbench: {len(configs)} geometries x {accesses} accesses: "
          f"per-config {per_config_seconds:.3f}s, crossconfig "
          f"{crossconfig_seconds:.3f}s ({speedup:.2f}x)")
    merge_payload("replay_microbench", entry)

    assert speedup >= REPLAY_FLOOR, (
        f"cross-config replay speedup {speedup:.2f}x below the "
        f"{REPLAY_FLOOR}x floor")


def test_sweep_path_wired_into_figure2_driver(workloads):
    """The Figure-2 driver routes through measure_sweep and stays bit-identical."""
    workload = workloads["arith" if SMOKE else "blastn"]
    with ParallelEvaluator(LiquidPlatform()) as engine:
        swept = dcache_exhaustive(engine, workload)
        assert engine.stats.sweep_batches == 1
        assert engine.stats.sweep_evaluations == len(swept.data["rows"])
    scalar = dcache_exhaustive(LiquidPlatform(), workload, sweep=False)
    assert swept.data["rows"] == scalar.data["rows"]
