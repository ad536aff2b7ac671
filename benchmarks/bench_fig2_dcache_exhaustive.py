"""Figure 2: exhaustive dcache {sets x set size} sweep for BLASTN.

Reproduces the shape of the paper's Figure 2: runtime improves as the data
cache grows, the best runtime is reached by the 32 KB-total organisations,
and the BRAM utilisation spans roughly 47%..90% of the device.

The second benchmark measures the evaluation-engine hot path on the same
sweep against two historical baselines, asserting wall-clock improvements
on bit-identical results.  Both baselines measure one configuration at a
time through the test suite's per-configuration oracle
(``reference_measurements`` with its unmemoised scalar timing model), as
those eras did:

* the *seed* baseline runs every dcache point through the scalar
  per-access reference loop (the original behaviour);
* the *PR 1* baseline vectorizes only the direct-mapped (``ways == 1``)
  corner and pays the scalar loop on every set-associative point -- the
  state of the hot path before the columnar cache kernel.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) to run the sweep on
scaled-down workloads: hot-path regressions still fail loudly, but the
paper-shape assertions that need benchmark-scale traces are skipped.
"""

import time

from bench_sweep_throughput import fig2_grid
from conftest import SMOKE, emit
from reference_replay import simulate_accesses
from reference_timing import reference_measurements, replay_geometry

from repro.analysis import dcache_exhaustive, engine_report
from repro.engine import ParallelEvaluator
from repro.platform import LiquidPlatform


def test_fig2_blastn_dcache_exhaustive(benchmark, platform, workloads):
    result = benchmark.pedantic(
        dcache_exhaustive, args=(platform, workloads["blastn"]), rounds=1, iterations=1)
    emit(result)
    rows = result.data["rows"]
    assert rows, "sweep produced no buildable grid points"
    if SMOKE:
        return  # paper-shape assertions need the benchmark-scale trace
    best = result.data["best"]
    base_row = next(r for r in rows if r["sets"] == 1 and r["setsize_kb"] == 4)
    # the optimal-runtime configuration uses 32 KB of data cache in total
    assert best["sets"] * best["setsize_kb"] == 32
    # and improves on the base configuration by a few percent (paper: 3.63%)
    gain = 100.0 * (base_row["cycles"] - best["cycles"]) / base_row["cycles"]
    assert 1.0 < gain < 15.0
    # BRAM spans the paper's range
    assert min(r["bram_percent"] for r in rows) < 50
    assert max(r["bram_percent"] for r in rows) > 85


def _scalar_dcache_replay(ways_threshold):
    """A cache replay forcing the scalar per-access loop on dcache points.

    ``ways_threshold=0`` recreates the seed (every dcache point scalar);
    ``ways_threshold=1`` recreates the direct-mapped-only era (only
    set-associative points scalar, direct-mapped stays on the kernel).
    Instruction-cache points keep the default replay in both eras, which
    had read-only fast paths.  The scalar loop is the test suite's
    per-access oracle, ``reference_replay.simulate_accesses``.
    """

    def replay(workload, kind, geometry):
        if kind == "dcache" and geometry.ways > ways_threshold:
            trace = workload.trace()
            return simulate_accesses(
                geometry, trace.data_addresses, trace.data_is_write)
        return replay_geometry(workload, kind, geometry)

    return replay


def _rows(measurements):
    """Figure-2 table rows of per-configuration measurements."""
    return [{
        "sets": m.configuration.dcache_sets,
        "setsize_kb": m.configuration.dcache_setsize_kb,
        "cycles": m.cycles,
        "seconds": m.seconds,
        "lut_percent": m.lut_percent,
        "bram_percent": m.bram_percent,
    } for m in measurements]


def _timed_baseline(workload, ways_threshold):
    """One historical Figure-2 sweep, a configuration at a time; (rows, seconds).

    The seed and PR 1 eras had neither the broadcast timing model nor the
    trace feature memos, so the baselines run the per-configuration
    oracle with the era's dcache replay.
    """
    start = time.perf_counter()
    measurements = reference_measurements(
        workload, fig2_grid(LiquidPlatform()),
        replay=_scalar_dcache_replay(ways_threshold))
    return _rows(measurements), time.perf_counter() - start


def _timed_sweep(workload):
    """One Figure-2 sweep on a fresh bare platform; returns (rows, seconds)."""
    start = time.perf_counter()
    result = dcache_exhaustive(LiquidPlatform(), workload)
    return result.data["rows"], time.perf_counter() - start


def test_fig2_engine_wall_clock_improvement(benchmark, workloads):
    """Columnar kernel + engine vs the seed and PR 1 hot-path baselines."""
    workload = workloads["blastn"]
    workload.trace()  # the config-independent trace is shared; keep it out of the timing

    scalar_rows, scalar_seconds = _timed_baseline(workload, ways_threshold=0)
    pr1_rows, pr1_seconds = _timed_baseline(workload, ways_threshold=1)
    kernel_rows, kernel_seconds = _timed_sweep(workload)

    with ParallelEvaluator(LiquidPlatform()) as engine:
        start = time.perf_counter()
        engine_result = benchmark.pedantic(
            dcache_exhaustive, args=(engine, workload), rounds=1, iterations=1)
        engine_seconds = time.perf_counter() - start

    emit(engine_report(engine))
    print(f"\nFigure 2 sweep wall-clock:"
          f"\n  seed (scalar loop, per config)        {scalar_seconds:8.2f}s"
          f"\n  ways==1 on the kernel, per config     {pr1_seconds:8.2f}s"
          f"\n  kernel (columnar, bare platform)      {kernel_seconds:8.2f}s"
          f"\n  kernel + engine                       {engine_seconds:8.2f}s"
          f"\n  speedup vs seed {scalar_seconds / engine_seconds:5.2f}x,"
          f" vs PR 1 {pr1_seconds / engine_seconds:5.2f}x"
          f" (bare-platform kernel alone {pr1_seconds / kernel_seconds:5.2f}x)")

    # bit-identical sweeps first: correctness holds in every environment
    assert engine_result.data["rows"] == scalar_rows
    assert engine_result.data["rows"] == pr1_rows
    assert engine_result.data["rows"] == kernel_rows
    # the set-associative kernel must beat PR 1's scalar set-associative loop
    assert kernel_seconds < pr1_seconds, (
        f"columnar kernel sweep ({kernel_seconds:.2f}s) not faster than "
        f"the PR 1 baseline ({pr1_seconds:.2f}s)")
    assert engine.stats.cache_groups > 0
    if SMOKE:
        return  # smoke-scale wall clocks are too small to compare; the
                # bare-platform kernel assertion above guards the hot path
    assert engine_seconds < scalar_seconds, (
        f"engine sweep ({engine_seconds:.2f}s) not faster than "
        f"seed scalar sweep ({scalar_seconds:.2f}s)")
    assert engine_seconds < pr1_seconds, (
        f"engine sweep ({engine_seconds:.2f}s) not faster than "
        f"the PR 1 baseline ({pr1_seconds:.2f}s)")
