"""Concurrent access to one shared SQLite result store.

Large campaigns shard their configuration space across several measuring
processes that share one ``.sqlite`` store.  These tests drive two
platforms -- and, separately, many raw writer threads -- against a
single database file and assert the invariants that make sharing sound:
no lost rows, no duplicated rows (the ``(kernel, fingerprint, kind,
geometry)`` primary key deduplicates racing writers), and a resuming
platform answers entirely from the store regardless of which writer
produced each row.
"""

import random
import sqlite3
import threading
from contextlib import closing

import pytest

from repro.config import base_configuration
from repro.engine import ResultStore, busy_retry, open_store
from repro.platform import LiquidPlatform


def config_grid(base, count):
    """``count`` distinct configurations varying the dcache geometry."""
    grid = []
    for sets in (1, 2, 4):
        for size in (1, 2, 4, 8, 16):
            grid.append(base.replace(dcache_sets=sets, dcache_setsize_kb=size))
    assert len(grid) >= count
    return grid[:count]


class TestTwoEvaluatorsOneStore:
    def test_overlapping_batches_lose_and_duplicate_nothing(self, tmp_path,
                                                            base_config,
                                                            arith_small):
        """Two platforms with overlapping shards: the union survives exactly."""
        path = str(tmp_path / "shared.sqlite")
        grid = config_grid(base_config, 9)
        shard_a, shard_b = grid[:6], grid[3:]  # overlap on grid[3:6]

        with closing(ResultStore(path)) as store_a, closing(ResultStore(path)) as store_b:
            first = LiquidPlatform(store=store_a)
            second = LiquidPlatform(store=store_b)
            results_a = first.measure_many(arith_small, shard_a)
            results_b = second.measure_many(arith_small, shard_b)

        # the overlap was replayed twice but stored once: one row per dcache
        # geometry (9, not 12) plus the shared icache geometry
        assert len(ResultStore(path)) == len(grid) + 1
        # both platforms agree bit-for-bit on the overlapping configurations
        assert results_a[3:] == results_b[:3]

        reader = LiquidPlatform(store=ResultStore(path))
        resumed = reader.measure_many(arith_small, grid)
        assert resumed[:6] == results_a
        assert resumed[3:] == results_b
        assert reader.stats.store_hits == len(grid)
        assert reader.stats.cache_simulations == 0  # no re-simulation

    def test_interleaved_writers_see_each_others_rows_on_reload(self, tmp_path,
                                                                base_config,
                                                                arith_small):
        path = str(tmp_path / "interleaved.db")
        grid = config_grid(base_config, 6)
        with closing(open_store(path)) as store_a, closing(open_store(path)) as store_b:
            first = LiquidPlatform(store=store_a)
            second = LiquidPlatform(store=store_b)
            for i, config in enumerate(grid):  # strict alternation
                (first if i % 2 == 0 else second).measure(arith_small, config)
        store = ResultStore(path)
        assert len(store) == len(grid) + 1  # the dcache geometries + one icache
        for config in grid:
            assert store.get(arith_small, config) is not None


class TestThreadedWriters:
    def test_racing_threads_neither_lose_nor_duplicate_rows(self, tmp_path,
                                                            base_config,
                                                            arith_small):
        """Many threads, own connections, same file, overlapping rows."""
        path = str(tmp_path / "threads.sqlite")
        grid = config_grid(base_config, 10)
        # replay once up front; the race under test is the store, not the sim
        platform = LiquidPlatform()
        _, jobs = platform.cache_plan(arith_small, grid)
        runs = platform.simulate_cache_jobs(arith_small, jobs)
        summary = arith_small.trace().summary()
        fingerprint = arith_small.fingerprint()
        errors = []

        def writer(offset):
            try:
                store = ResultStore(path)  # one connection per thread
                # every thread writes the full set, one row per transaction,
                # starting at its own offset
                for i in range(len(jobs)):
                    job = jobs[(offset + i) % len(jobs)]
                    store.write(fingerprint, {job: runs[job]}, summary=summary)
                store.close()
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(offset,))
                   for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, f"writer thread failed: {errors[0]!r}"
        store = ResultStore(path)
        assert len(store) == len(jobs)  # every row exactly once
        stored_summary, stored_runs = store.load(fingerprint)
        assert stored_runs == runs
        assert stored_summary.window_traps == summary.window_traps
        for config, expected in zip(grid, platform.measure_many(arith_small, grid)):
            assert store.get(arith_small, config) == expected


class TestBusyRetryBackoff:
    """The lock-retry backoff is decorrelated jitter, not lockstep.

    Jitter-free exponential backoff makes every colliding writer sleep
    the same schedule, so they wake simultaneously and collide again.
    Decorrelated jitter (each delay drawn from ``[base, 3 * previous]``,
    clamped to the cap) spreads the retries out.
    """

    @staticmethod
    def _locked_then_ok(conflicts):
        """An operation that raises ``database is locked`` N times."""
        state = {"left": conflicts}

        def operation():
            if state["left"] > 0:
                state["left"] -= 1
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        return operation

    def _delays(self, seed, conflicts=5, **kwargs):
        slept = []
        result = busy_retry(
            self._locked_then_ok(conflicts), attempts=conflicts + 1,
            rng=random.Random(seed), sleep=slept.append, **kwargs)
        assert result == "ok"
        return slept

    def test_delays_are_jittered_within_base_and_cap(self):
        delays = self._delays(seed=1, base_delay=0.05, max_delay=2.0)
        assert len(delays) == 5
        assert all(0.05 <= delay <= 2.0 for delay in delays)
        # jitter: a growing-by-3x deterministic ladder would be strictly
        # monotone with delay[i] == 3 * delay[i-1]; drawn delays are not
        assert delays != sorted(set([0.05 * 3 ** i for i in range(5)]))[:5]

    def test_two_retry_chains_do_not_sleep_in_lockstep(self):
        first = self._delays(seed=1)
        second = self._delays(seed=2)
        assert first != second, (
            "identical sleep schedules resynchronise colliding writers")

    def test_conflicts_are_still_accounted(self):
        from repro.obs.metrics import get_registry

        get_registry().drain()  # isolate this test's counts
        on_conflict_calls = []
        busy_retry(
            self._locked_then_ok(3), attempts=6,
            rng=random.Random(3), sleep=lambda delay: None,
            on_conflict=lambda: on_conflict_calls.append(1))
        assert len(on_conflict_calls) == 3
        snapshot = get_registry().drain()
        assert snapshot["store.lock_conflicts"]["value"] == 3

    def test_budget_exhaustion_reraises_the_lock_error(self):
        with pytest.raises(sqlite3.OperationalError):
            busy_retry(
                self._locked_then_ok(10), attempts=3,
                rng=random.Random(4), sleep=lambda delay: None)

    def test_foreign_operational_errors_pass_straight_through(self):
        def broken():
            raise sqlite3.OperationalError("no such table: nope")

        slept = []
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            busy_retry(broken, rng=random.Random(5), sleep=slept.append)
        assert slept == []  # no retries, no sleeps
