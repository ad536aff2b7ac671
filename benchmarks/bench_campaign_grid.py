"""Campaign-grid scaling: 1 vs N workers draining the Figure-2 grid.

The distributed campaign queue (:mod:`repro.engine.campaign`) exists to
let several worker processes -- terminals, cron jobs, hosts sharing a
file -- drain one grid cooperatively.  This benchmark registers the
Figure-2 BLASTN dcache grid in a fresh campaign database -- its 19
configurations become 20 replay rows, one per distinct cache geometry
-- and drains it with one worker, then with ``N`` concurrent worker
processes.  The recorded ``configs_per_sec`` is Figure-2 configurations
covered per second of drain (the trajectory's column, comparable across
the change of row unit); the printout also gives replay rows per
second.  The timed region covers the queue drain only: workers
construct their platforms and generate their traces *before* a barrier
releases them together, so the ratio measures claim/replay/write-back
scaling, not process startup.

Correctness is asserted unconditionally, at every scale:

* the concurrent drain leaves zero stuck rows (nothing open, claimed or
  failed) and every row was claimed exactly once (``attempts == 1`` for
  the whole table -- claim exclusivity means no row is ever replayed
  twice);
* the campaign database's measurements are bit-identical to a direct
  ``measure_many`` of the same grid.

The wall-clock floor is honest about hardware: two workers can only beat
one where two cores exist.  ``SPEEDUP_FLOOR`` (>= 1.6x) is asserted at
full scale on multi-core hosts; a single-core host (``os.cpu_count() ==
1``, e.g. a constrained container) instead asserts the sharding overhead
stays bounded (``SERIAL_SANITY_FLOOR``: two time-sliced workers may not
collapse below ~0.6x of one), and the payload records ``cpus`` and
``floor_enforced`` so the committed trajectory says exactly which claim
it makes.  The CI ``campaign-grid`` job runs the multi-worker drain on
the multi-core hosted runners, where the exclusivity, zero-stuck-rows
and equality assertions all hold under real core-level concurrency.

Results are written to ``benchmarks/BENCH_campaign.json`` (smoke runs
write the ``.smoke`` sibling so CI never clobbers the tracked artifact).
"""

import itertools
import json
import multiprocessing
import os
import pathlib
import tempfile
import time

from conftest import SMOKE

from repro.config import (
    CACHE_SET_COUNTS,
    CACHE_SET_SIZES_KB,
    base_configuration,
)
from repro.engine import CampaignGrid, CampaignWorker
from repro.engine.store import ResultStore
from repro.platform import LiquidPlatform

#: Committed full-scale trajectory; smoke runs write the sibling.
RESULT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_campaign.json"
SMOKE_RESULT_PATH = RESULT_PATH.with_name("BENCH_campaign.smoke.json")
#: Two concurrent workers must drain the grid >= this much faster than
#: one -- asserted at full scale on hosts with >= 2 cores.
SPEEDUP_FLOOR = 1.6
#: On a single-core host two workers merely time-slice, each paying its
#: own fixed per-process costs (trace decode, numpy warmup) with no
#: second core to recoup them -- ~0.5-0.7x of the solo drain is the
#: honest expectation.  This floor only catches the real pathology,
#: workers serialising on the database lock, which collapses the drain
#: far below it.
SERIAL_SANITY_FLOOR = 0.4
#: Best-of repetitions per drain configuration: tiny smoke grids make a
#: single barrier-to-last-report wall clock noisy.
REPS = 3 if SMOKE else 2
#: Concurrent workers in the scaled drain.
WORKER_COUNT = 2
#: Rows per claim transaction; small enough that both workers get a
#: meaningful share of the 20-row Figure-2 grid.
CLAIM_BATCH = 4


def fig2_grid(platform):
    base = base_configuration()
    points = [
        base.replace(dcache_sets=sets, dcache_setsize_kb=size)
        for sets, size in itertools.product(CACHE_SET_COUNTS, CACHE_SET_SIZES_KB)
    ]
    return [config for config in points if platform.fits(config)]


def fresh_blastn():
    from repro.workloads import small_workloads, standard_workloads
    source = small_workloads if SMOKE else standard_workloads
    return source()["blastn"]


def campaign_worker_main(path, barrier, queue, worker_index):
    """One drain process: warm up, sync on the barrier, drain, report."""
    workload = fresh_blastn()
    with CampaignGrid(path) as grid:
        worker = CampaignWorker(
            grid, [workload], worker_id=f"bench-{worker_index}",
            batch=CLAIM_BATCH)
        try:
            # everything above (trace generation, fingerprinting, store
            # setup) is startup, not drain; the parent starts its
            # clock when every worker reaches this barrier
            barrier.wait(timeout=600)
            report = worker.run()
        finally:
            worker.close()
    queue.put((worker_index, {
        "done": report.done,
        "failed": report.failed,
        "batches": report.batches,
        "claim_conflicts": report.engine["claim_conflicts"],
        "claim_requeues": report.engine["claim_requeues"],
    }))


def drain_with_workers(configs, worker_count, tmp_dir, tag):
    """Register + drain a fresh campaign; returns (path, drain seconds, rows, reports)."""
    path = os.path.join(tmp_dir, f"campaign_{tag}.sqlite")
    with CampaignGrid(path) as grid:
        rows = grid.register(fresh_blastn(), configs)
        # one row per distinct geometry: the dcache grid and one icache
        assert rows == len(configs) + 1

    barrier = multiprocessing.Barrier(worker_count + 1)
    queue = multiprocessing.Queue()
    workers = [
        multiprocessing.Process(
            target=campaign_worker_main, args=(path, barrier, queue, index))
        for index in range(worker_count)
    ]
    for proc in workers:
        proc.start()
    barrier.wait(timeout=600)
    start = time.perf_counter()
    reports = dict(queue.get(timeout=600) for _ in workers)
    seconds = time.perf_counter() - start
    for proc in workers:
        proc.join(timeout=60)
        assert proc.exitcode == 0, f"worker exited with {proc.exitcode}"

    with CampaignGrid(path) as grid:
        counts = grid.status()
        # zero stuck rows: the concurrent drain completed everything
        assert counts["done"] == counts["total"] == rows, counts
        assert counts["open"] == counts["claimed"] == counts["failed"] == 0
        # claim exclusivity: every row was claimed -- hence replayed --
        # exactly once across all workers
        multi_claimed = grid._conn.execute(
            "SELECT COUNT(*) FROM replays WHERE attempts != 1").fetchone()[0]
        assert multi_claimed == 0, f"{multi_claimed} rows claimed != once"
    assert sum(report["done"] for report in reports.values()) == rows
    assert all(report["failed"] == 0 for report in reports.values())
    return path, seconds, rows, reports


def test_campaign_grid_scaling(tmp_path):
    platform = LiquidPlatform()
    configs = fig2_grid(platform)
    workload = fresh_blastn()

    direct = LiquidPlatform()
    reference = direct.measure_many(workload, configs)

    with tempfile.TemporaryDirectory(dir=str(tmp_path)) as tmp_dir:
        # interleaved solo/multi pairs: both sides of each repetition see
        # the same background load, and the best of each side is compared
        solo_seconds = multi_seconds = float("inf")
        for rep in range(REPS):
            solo_path, seconds, rows, solo_reports = drain_with_workers(
                configs, 1, tmp_dir, f"solo{rep}")
            solo_seconds = min(solo_seconds, seconds)
            multi_path, seconds, rows, multi_reports = drain_with_workers(
                configs, WORKER_COUNT, tmp_dir, f"multi{rep}")
            multi_seconds = min(multi_seconds, seconds)

        # both campaign databases hold exactly the direct sweep's numbers
        for path in (solo_path, multi_path):
            store = ResultStore(path)
            store.bind_platform(platform.device, platform.timing_parameters)
            for config, expected in zip(configs, reference):
                assert store.get(workload, config) == expected, (
                    "campaign measurement diverges from direct measure_many")
            store.close()

    speedup = solo_seconds / multi_seconds
    cpus = os.cpu_count() or 1
    floor_enforced = not SMOKE and cpus >= 2
    conflicts = sum(r["claim_conflicts"] for r in multi_reports.values())
    requeues = sum(r["claim_requeues"] for r in multi_reports.values())

    print(f"\ncampaign grid: {len(configs)} points as {rows} replay rows, "
          f"{cpus} cpus")
    print(f"  1 worker   {solo_seconds:8.3f}s  "
          f"{rows / solo_seconds:8.1f} rows/sec  "
          f"{len(configs) / solo_seconds:8.1f} points/sec")
    print(f"  {WORKER_COUNT} workers  {multi_seconds:8.3f}s  "
          f"{rows / multi_seconds:8.1f} rows/sec  "
          f"{len(configs) / multi_seconds:8.1f} points/sec")
    print(f"  speedup {speedup:.2f}x (floor "
          f"{'enforced' if floor_enforced else 'recorded only'}), "
          f"{conflicts} lock conflicts, {requeues} requeues")

    payload = {
        "smoke": SMOKE,
        "workload": "blastn",
        "points": len(configs),
        "cpus": cpus,
        "workers": WORKER_COUNT,
        "claim_batch": CLAIM_BATCH,
        "one_worker": {
            "seconds": round(solo_seconds, 4),
            "configs_per_sec": round(len(configs) / solo_seconds, 1),
        },
        "n_workers": {
            "seconds": round(multi_seconds, 4),
            "configs_per_sec": round(len(configs) / multi_seconds, 1),
        },
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_enforced": floor_enforced,
        "claim_conflicts": conflicts,
        "claim_requeues": requeues,
    }
    path = SMOKE_RESULT_PATH if SMOKE else RESULT_PATH
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")

    if floor_enforced:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{WORKER_COUNT} workers drained the grid only {speedup:.2f}x "
            f"faster than one, below the {SPEEDUP_FLOOR}x floor on a "
            f"{cpus}-core host")
    else:
        # single-core (or smoke): the sharding machinery may not make the
        # time-sliced drain pathologically slower than the solo drain
        assert speedup >= SERIAL_SANITY_FLOOR, (
            f"{WORKER_COUNT} time-sliced workers fell to {speedup:.2f}x of "
            f"one worker -- claim contention is serialising the drain")
