"""The distributed campaign grid: claim exclusivity, crash recovery, retry.

A campaign registers the distinct cache replays of its configuration
grid -- one row per (trace, cache kind, geometry) -- as rows of a
``replays`` table and lets any number of worker processes claim and
replay batches (see :mod:`repro.engine.campaign`).  These tests pin the
properties that make that sound: registration reduces a grid to its
geometries and is idempotent, concurrent claimants never receive the
same row, a worker that dies mid-claim loses its lease and the rows
complete elsewhere, failing rows retry up to the attempt cap and then
rest in ``failed``, interrupts hand claims straight back, and a drained
campaign's measurements are bit-identical to the per-configuration
reference measurements of the same grid.
"""

import multiprocessing
import os
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from reference_timing import reference_measurements
from repro.engine import CampaignGrid, CampaignWorker
from repro.engine.campaign import STATUS_DONE, STATUS_FAILED, STATUS_OPEN
from repro.engine.store import ResultStore
from repro.errors import StoreFormatError
from repro.platform import LiquidPlatform, Measurement
from repro.service.server import figure2_grid

REPO_ROOT = Path(__file__).resolve().parents[1]


def grid_configs(base_config, count=6):
    """``count`` distinct dcache geometries over one icache geometry."""
    configs = [
        base_config.replace(dcache_sets=sets, dcache_setsize_kb=size)
        for sets in (1, 2, 3)
        for size in (1, 2, 4, 8)
    ]
    assert len(configs) >= count
    return configs[:count]


def grid_rows(configs):
    """Replay rows of a :func:`grid_configs` grid: its dcache geometries
    plus the one icache geometry they share."""
    return len(configs) + 1


def drain(grid, workload, **kwargs):
    """Run one worker to completion and return its report."""
    max_batches = kwargs.pop("max_batches", None)
    with CampaignWorker(grid, [workload], **kwargs) as worker:
        return worker.run(max_batches=max_batches)


class TestRegistration:
    def test_register_counts_and_is_idempotent(self, tmp_path, base_config,
                                               arith_small):
        configs = grid_configs(base_config)
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            assert grid.register(arith_small, configs) == grid_rows(configs)
            assert grid.register(arith_small, configs) == 0
            # a partially re-registered grid adds only the unseen rows
            extra = base_config.replace(dcache_sets=4, dcache_setsize_kb=1)
            assert grid.register(arith_small, configs + [extra]) == 1
            counts = grid.status()
            assert counts[STATUS_OPEN] == grid_rows(configs) + 1
            assert counts["total"] == grid_rows(configs) + 1

    def test_second_workload_gets_its_own_rows(self, tmp_path, base_config,
                                               arith_small, drr_small):
        configs = grid_configs(base_config, 4)
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, configs)
            assert grid.register(drr_small, configs) == grid_rows(configs)
            assert grid.status()["total"] == 2 * grid_rows(configs)

    def test_figure2_grid_is_twenty_geometry_rows_per_workload(
            self, tmp_path, arith_small, drr_small):
        """19 buildable Figure-2 configurations share one icache geometry:
        20 replays per workload, and nothing new on re-registration."""
        configs = figure2_grid(LiquidPlatform())
        assert len(configs) == 19
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            for workload in (arith_small, drr_small):
                assert grid.register(workload, configs) == 20
                assert grid.register(workload, configs) == 0
            assert grid.status()["total"] == 40
            kinds = dict(grid._conn.execute(
                "SELECT kind, COUNT(*) FROM replays GROUP BY kind"))
            assert kinds == {"icache": 2, "dcache": 38}

    def test_a_file_of_the_configuration_row_layout_is_refused(self, tmp_path):
        path = str(tmp_path / "old.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE experiments ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT, context TEXT NOT NULL,"
            " fingerprint TEXT NOT NULL, workload TEXT NOT NULL,"
            " config_key TEXT NOT NULL, config TEXT NOT NULL,"
            " batch_key TEXT NOT NULL, status TEXT NOT NULL DEFAULT 'open',"
            " worker TEXT, claimed_at REAL, finished_at REAL,"
            " attempts INTEGER NOT NULL DEFAULT 0, error TEXT,"
            " UNIQUE (context, fingerprint, config_key))")
        conn.commit()
        conn.close()
        with pytest.raises(StoreFormatError, match="old.sqlite"):
            CampaignGrid(path)


class TestClaiming:
    def test_claim_is_exclusive_and_round_trips_geometries(
            self, tmp_path, base_config, arith_small, drr_small):
        configs = grid_configs(base_config)
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, configs)
            grid.register(drr_small, configs)
            rows = grid.claim("w1", batch=100)
            # one claim takes rows of one trace only, so its replays share
            # that trace's decodes
            assert {row.job[0] for row in rows} == {arith_small.fingerprint()}
            # the claimed jobs are exactly the planner's for the grid
            plan = LiquidPlatform().cache_plan(arith_small, configs)
            assert {row.job for row in rows} == set(plan.jobs())
            # claimed rows are invisible to other claimants
            other = grid.claim("w2", batch=100)
            assert {r.rowid for r in rows}.isdisjoint(r.rowid for r in other)
            assert {row.job[0] for row in other} == {drr_small.fingerprint()}

    def test_release_refunds_the_attempt(self, tmp_path, base_config,
                                         arith_small):
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, grid_configs(base_config, 3))
            rows = grid.claim("w1", batch=3)
            assert all(row.attempts == 1 for row in rows)
            grid.release([row.rowid for row in rows], "w1")
            # a clean hand-back does not burn the attempt budget
            assert all(row.attempts == 1
                       for row in grid.claim("w2", batch=3))

    def test_concurrent_processes_claim_disjoint_rows(self, tmp_path,
                                                      base_config,
                                                      arith_small):
        """Racing claimants: every row claimed exactly once, none lost."""
        path = str(tmp_path / "grid.sqlite")
        configs = grid_configs(base_config, 12)
        with CampaignGrid(path) as grid:
            grid.register(arith_small, configs)
            total = grid.status()["total"]

        start = multiprocessing.Event()
        queue = multiprocessing.Queue()

        def claim_all(worker_id):
            claimed = []
            with CampaignGrid(path) as worker_grid:
                start.wait(10)
                while True:
                    rows = worker_grid.claim(worker_id, batch=2)
                    if not rows:
                        break
                    claimed.extend(row.rowid for row in rows)
            queue.put((worker_id, claimed))

        claimants = [multiprocessing.Process(target=claim_all, args=(f"w{i}",))
                     for i in range(3)]
        for proc in claimants:
            proc.start()
        start.set()
        results = dict(queue.get(timeout=30) for _ in claimants)
        for proc in claimants:
            proc.join(timeout=10)
        sets = [set(ids) for ids in results.values()]
        union = set().union(*sets)
        assert len(union) == total  # nothing lost
        assert sum(len(s) for s in sets) == total  # nothing double-claimed


class TestCrashRecovery:
    def test_stale_claim_is_reclaimed_and_completed(self, tmp_path,
                                                    base_config, arith_small):
        """A claimant that vanishes loses its lease; the grid still drains."""
        path = str(tmp_path / "grid.sqlite")
        configs = grid_configs(base_config)
        with CampaignGrid(path) as grid:
            grid.register(arith_small, configs)
            # simulate a worker dying mid-claim: claim and never settle
            dead = grid.claim("dead-worker", batch=3)
            assert dead
            report = drain(grid, arith_small, lease_seconds=0.0)
            assert report.requeued >= len(dead)
            assert report.engine["claim_requeues"] >= len(dead)
            counts = grid.status()
            assert counts[STATUS_DONE] == counts["total"]
            # the vanished worker's attempt stayed burnt (no refund)
            assert all(row[2] >= 1 for row in grid._conn.execute(
                "SELECT id, status, attempts FROM replays"))

    def test_expired_worker_cannot_fail_or_release_reclaimed_rows(
            self, tmp_path, base_config, arith_small):
        """Once a lease expires and another worker reclaims the rows, the
        first worker's failure or hand-back touches nothing: the rows
        settle only as their current holder says."""
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, grid_configs(base_config, 4))
            ids = sorted(row.rowid for row in grid.claim("A", batch=4))
            assert len(ids) == 4
            assert grid.reclaim_stale(0.0) == 4
            assert sorted(row.rowid for row in grid.claim("B", batch=4)) == ids
            assert grid.mark_failed(ids, "A", "boom") == 0
            assert grid.release(ids, "A") == 0
            assert grid.mark_done(ids, "B") == 4
            counts = grid.status()
            assert counts[STATUS_DONE] == 4
            assert counts[STATUS_FAILED] == 0

    def test_unexpired_lease_is_respected(self, tmp_path, base_config,
                                          arith_small):
        path = str(tmp_path / "grid.sqlite")
        with CampaignGrid(path) as grid:
            grid.register(arith_small, grid_configs(base_config, 4))
            held = grid.claim("other", batch=2)
            report = drain(grid, arith_small, lease_seconds=3600.0,
                           retry_failed=False)
            assert report.requeued == 0
            counts = grid.status()
            assert counts["claimed"] == len(held)
            assert counts[STATUS_DONE] == counts["total"] - len(held)

    def test_worker_killed_mid_claim_grid_resumes_to_completion(
            self, tmp_path, base_config, arith_small):
        """SIGKILL a real claiming process; a resuming worker finishes."""
        path = str(tmp_path / "grid.sqlite")
        configs = grid_configs(base_config)
        with CampaignGrid(path) as grid:
            grid.register(arith_small, configs)
            total = grid.status()["total"]

        # the victim claims a batch, reports it, then waits to be killed
        victim_code = textwrap.dedent(f"""
            import os, sys
            from repro.engine import CampaignGrid
            grid = CampaignGrid({path!r})
            rows = grid.claim("victim", batch=3)
            print(len(rows), flush=True)
            sys.stdout.close()
            import time; time.sleep(60)
        """)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        victim = subprocess.Popen(
            [sys.executable, "-c", victim_code], env=env,
            stdout=subprocess.PIPE, text=True)
        try:
            claimed = int(victim.stdout.readline())
            assert claimed > 0
            victim.kill()  # SIGKILL: no release, no cleanup
            victim.wait(timeout=10)
        finally:
            if victim.poll() is None:
                victim.kill()

        with CampaignGrid(path) as grid:
            assert grid.status()["claimed"] == claimed
            report = drain(grid, arith_small, lease_seconds=0.0)
            assert report.requeued == claimed
            counts = grid.status()
            assert counts[STATUS_DONE] == total
            assert counts[STATUS_OPEN] == counts["claimed"] == 0


class TestFailureRetry:
    def _broken_worker(self, grid, workload, error, **kwargs):
        worker = CampaignWorker(grid, [workload], **kwargs)

        def explode(workload, jobs):
            raise RuntimeError(error)

        worker.platform.provide = explode
        return worker

    def test_failing_rows_retry_to_the_attempt_cap_then_rest(
            self, tmp_path, base_config, arith_small):
        configs = grid_configs(base_config, 4)
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, configs)
            with self._broken_worker(grid, arith_small, "synthetic failure",
                                     max_attempts=3) as worker:
                report = worker.run()  # terminates despite every row failing
            counts = grid.status()
            assert counts[STATUS_FAILED] == counts["total"]
            assert report.failed == 3 * grid_rows(configs)  # cap x rows
            rows = list(grid._conn.execute(
                "SELECT attempts, error FROM replays"))
            assert all(attempts == 3 for attempts, _ in rows)
            assert all("synthetic failure" in error for _, error in rows)

    def test_reset_failed_restores_the_budget_and_the_grid_drains(
            self, tmp_path, base_config, arith_small):
        configs = grid_configs(base_config, 4)
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, configs)
            with self._broken_worker(grid, arith_small, "boom",
                                     max_attempts=2) as worker:
                worker.run()
            assert grid.status()[STATUS_FAILED] == grid_rows(configs)
            assert grid.reset_failed() == grid_rows(configs)
            assert grid.status()[STATUS_OPEN] == grid_rows(configs)
            drain(grid, arith_small)  # a healthy worker completes the grid
            counts = grid.status()
            assert counts[STATUS_DONE] == counts["total"]

    def test_keyboard_interrupt_releases_the_claimed_rows(
            self, tmp_path, base_config, arith_small):
        configs = grid_configs(base_config, 4)
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, configs)
            with CampaignWorker(grid, [arith_small]) as worker:
                def interrupt(workload, jobs):
                    raise KeyboardInterrupt
                worker.platform.provide = interrupt
                with pytest.raises(KeyboardInterrupt):
                    worker.run()
            counts = grid.status()
            # everything back open, nothing parked behind a lease...
            assert counts[STATUS_OPEN] == counts["total"]
            # ...and the interrupted attempt was refunded
            assert all(row.attempts == 1
                       for row in grid.claim("next", batch=100))


class TestResultsMatchDirectSweep:
    def test_campaign_measurements_are_bit_identical(self, tmp_path,
                                                     base_config, arith_small):
        """A drained campaign's store equals the per-configuration oracle."""
        path = str(tmp_path / "grid.sqlite")
        configs = grid_configs(base_config)
        with CampaignGrid(path) as grid:
            grid.register(arith_small, configs)
            report = drain(grid, arith_small, batch=4)
            assert grid.status()[STATUS_DONE] == grid_rows(configs)
            assert report.engine["claim_rows"] == grid_rows(configs)

        reference = reference_measurements(arith_small, configs)

        platform = LiquidPlatform()
        store = ResultStore(path)
        store.bind_platform(platform.device, platform.timing_parameters)
        for config, expected in zip(configs, reference):
            assert store.get(arith_small, config) == expected
        store.close()

    def test_a_claim_drain_builds_no_measurement_row(self, tmp_path, monkeypatch,
                                                     base_config, arith_small):
        """A worker keeps what it replays in the store's rows: it times
        nothing, and no row becomes a :class:`Measurement` (counted at
        ``Measurement.__init__``, whatever the batch's internals)."""
        built = []
        init = Measurement.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Measurement, "__init__", counting)
        configs = grid_configs(base_config)
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, configs)
            report = drain(grid, arith_small, batch=4)
        assert report.done == grid_rows(configs)
        assert report.engine["cache_simulations"] > 0
        assert report.engine["sweep_evaluations"] == 0
        assert built == []
        # the count sees rows wherever they are built
        LiquidPlatform().measure(arith_small, configs[0])
        assert len(built) == 1

    def test_a_default_drain_claims_each_figure2_trace_once(self, tmp_path,
                                                            small_workload_map):
        """A default claim holds all 20 rows a Figure-2 trace registers, so a
        four-workload grid drains in four claims, one ``provide`` each."""
        configs = figure2_grid(LiquidPlatform())
        workloads = list(small_workload_map.values())
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            for workload in workloads:
                grid.register(workload, configs)
            with CampaignWorker(grid, workloads) as worker:
                report = worker.run()
            assert grid.status()[STATUS_DONE] == 80
        assert report.done == 80
        assert report.batches == 4

    def test_two_sequential_workers_split_the_grid(self, tmp_path,
                                                   base_config, arith_small):
        """Workers with partial grids each finish their share exactly once."""
        path = str(tmp_path / "grid.sqlite")
        configs = grid_configs(base_config, 8)
        with CampaignGrid(path) as grid:
            grid.register(arith_small, configs)
            first = drain(grid, arith_small, batch=2, max_batches=2)
            second = drain(grid, arith_small, batch=2)
            assert first.done + second.done == grid_rows(configs)
            counts = grid.status()
            assert counts[STATUS_DONE] == counts["total"]


class TestWorkerStore:
    def test_worker_closes_the_store_it_opened(self, tmp_path, base_config,
                                               arith_small):
        """Given a platform without a store, the worker replays over the grid
        file on a platform of its own, and closes that store on exit."""
        path = str(tmp_path / "grid.sqlite")
        bare = LiquidPlatform()
        with CampaignGrid(path) as grid:
            grid.register(arith_small, [base_config])
            with CampaignWorker(grid, [arith_small], platform=bare) as worker:
                assert worker.platform is not bare
                store = worker.platform.store
                assert store.path == path
                assert worker.run().done == 2
            with pytest.raises(sqlite3.ProgrammingError):
                len(store)
            assert grid.status()[STATUS_DONE] == 2  # the grid stays open

    def test_worker_leaves_a_callers_store_open(self, tmp_path, base_config,
                                                arith_small):
        path = str(tmp_path / "grid.sqlite")
        store = ResultStore(path)
        platform = LiquidPlatform(store=store)
        with CampaignGrid(path) as grid:
            grid.register(arith_small, [base_config])
            with CampaignWorker(grid, [arith_small], platform=platform) as worker:
                assert worker.platform is platform
                assert worker.run().done == 2
        assert len(store) == 2  # still open: the icache and dcache rows
        assert platform.stats.store_writes == 3  # and the summary
        store.close()

    def test_a_drain_over_a_complete_store_replays_nothing(self, tmp_path,
                                                           arith_small):
        """Rows whose replays the store already holds are done without a
        cache simulation."""
        path = str(tmp_path / "grid.sqlite")
        configs = figure2_grid(LiquidPlatform())
        store = ResultStore(path)
        LiquidPlatform(store=store).measure_many(arith_small, configs)
        store.close()
        with CampaignGrid(path) as grid:
            grid.register(arith_small, configs)
            report = drain(grid, arith_small, batch=8)
            assert grid.status()[STATUS_DONE] == 20
        assert report.done == 20
        assert report.engine["cache_simulations"] == 0
        assert report.engine["store_writes"] == 0


class TestCampaignCli:
    def _run(self, *argv, timeout=120):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "run_experiments.py"),
             *argv],
            env=env, capture_output=True, text=True, timeout=timeout)

    def test_register_claim_status_round_trip(self, tmp_path):
        db = str(tmp_path / "cli.sqlite")
        register = self._run("--grid-db", db, "--register",
                             "--grid-scale", "small", "--grid-workloads", "arith")
        assert register.returncode == 0, register.stderr
        assert "registered arith" in register.stdout

        # before any worker runs, --assert-drained must fail
        undrained = self._run("--grid-db", db, "--status", "--assert-drained")
        assert undrained.returncode != 0

        claim = self._run("--grid-db", db, "--claim", "--grid-scale", "small",
                          "--grid-workloads", "arith", "--batch", "8")
        assert claim.returncode == 0, claim.stderr
        assert "0 failed" in claim.stdout

        status = self._run("--grid-db", db, "--status", "--assert-drained")
        assert status.returncode == 0, status.stdout + status.stderr
        assert "0 open" in status.stdout


class TestAttemptAccountingAtTheCap:
    """Attempt counters at the ``max_attempts`` boundary.

    The budget arithmetic mixes three moves -- claiming burns an attempt,
    clean release refunds one, stale reclamation keeps it burnt -- and
    the boundary cases are where a bug would park rows forever (counter
    over the cap) or retry them forever (counter below zero).
    """

    @staticmethod
    def _attempts(grid):
        return dict(grid._conn.execute("SELECT id, attempts FROM replays"))

    def test_row_at_exactly_the_cap_is_unclaimable_and_retires(
            self, tmp_path, base_config, arith_small):
        cap = 2
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, grid_configs(base_config, 1))
            for crasher in ("w1", "w2"):
                rows = grid.claim(crasher, batch=100, max_attempts=cap)
                assert len(rows) == 2
                assert grid.reclaim_stale(0.0) == 2  # burnt, not refunded
            assert set(self._attempts(grid).values()) == {cap}
            # exactly at the cap: not claimable, but not yet failed either
            assert grid.claim("w3", batch=100, max_attempts=cap) == []
            assert grid.status()[STATUS_OPEN] == 2
            assert grid.retire_exhausted(cap) == 2
            assert grid.status()[STATUS_FAILED] == 2
            # retiring never bumps the counter past the cap
            assert set(self._attempts(grid).values()) == {cap}

    def test_clean_release_refunds_and_floors_at_zero(
            self, tmp_path, base_config, arith_small):
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, grid_configs(base_config, 1))
            rows = grid.claim("w1", batch=100)
            ids = [row.rowid for row in rows]
            assert grid.release(ids, "w1") == 2
            assert set(self._attempts(grid).values()) == {0}
            # releasing rows that are no longer claimed is a no-op, not
            # a second refund driving the counter negative
            assert grid.release(ids, "w1") == 0
            assert grid.release_worker("w1") == 0
            assert set(self._attempts(grid).values()) == {0}
            # even a row whose counter was never bumped (crash between
            # the claim UPDATE's bookkeeping and a manual repair) floors
            # at zero instead of going negative
            grid._conn.execute(
                "UPDATE replays SET status = 'claimed', worker = 'w1',"
                " attempts = 0")
            grid._conn.commit()
            assert grid.release_worker("w1") == 2
            assert set(self._attempts(grid).values()) == {0}
            assert grid.status()[STATUS_OPEN] == 2

    def test_reclaim_then_release_stays_inside_the_budget(
            self, tmp_path, base_config, arith_small):
        cap = 2
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.register(arith_small, grid_configs(base_config, 1))
            grid.claim("w1", batch=100, max_attempts=cap)
            assert grid.reclaim_stale(0.0) == 2        # attempts: 1 (burnt)
            rows = grid.claim("w2", batch=100, max_attempts=cap)
            assert len(rows) == 2                       # attempts: 2 (at cap)
            assert set(self._attempts(grid).values()) == {cap}
            assert grid.release([row.rowid for row in rows], "w2") == 2  # refund: 1
            assert set(self._attempts(grid).values()) == {1}
            # the refunded attempt is claimable again, back to the cap
            rows = grid.claim("w3", batch=100, max_attempts=cap)
            assert len(rows) == 2
            attempts = set(self._attempts(grid).values())
            assert attempts == {cap}
            assert grid.release_worker("w3") == 2
            assert set(self._attempts(grid).values()) == {1}
