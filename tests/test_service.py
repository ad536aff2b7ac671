"""The resident tuning service and the supervised evaluator lifecycle.

These tests pin the properties that make an always-on evaluation
service sound: jobs run FIFO on one resident engine and stream
incremental results; the supervisor survives a worker pool killed
underneath it (capped respawns with jittered backoff, then degrade to
inline); an identical re-submitted sweep answers from the store with
*zero* new evaluations, bit for bit identical to the first answer and
to a direct ``measure_sweep``; the HTTP layer round-trips all of that
through a real socket; and a grid-backed service drains the same
campaign queue a CLI ``--claim`` worker would.
"""

import gc
import json
import os
import signal
import threading
import time

import pytest

from repro.engine import (
    CampaignGrid,
    EvaluatorSupervisor,
    ParallelEvaluator,
    SupervisorStopped,
)
from repro.engine.campaign import STATUS_DONE
from repro.platform import LiquidPlatform
from repro.service import ServiceClient, ServiceError, TuningService, make_server
from repro.service.jobs import JobManager
from repro.service.server import figure2_grid


def wait_for(job_manager_service, job_id, timeout=120.0):
    """Poll a TuningService until the job settles; return the snapshot."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = job_manager_service.job_snapshot(job_id)
        if snapshot["status"] in ("done", "failed"):
            return snapshot
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not settle within {timeout}s")


def sweep_payload(workload, base_config, count=4):
    configs = [
        {"dcache_sets": sets, "dcache_setsize_kb": size}
        for sets in (1, 2) for size in (1, 2)
    ][:count]
    return {"workload": workload.name, "configs": configs}


class TestJobManager:
    def test_jobs_run_fifo_and_settle_done(self):
        seen = []
        manager = JobManager(lambda job: seen.append(job.payload["n"]))
        manager.start()
        jobs = [manager.submit("sweep", {"n": n}) for n in range(5)]
        assert manager.drain(timeout=10.0)
        manager.stop()
        assert seen == [0, 1, 2, 3, 4]
        assert all(manager.get(job.id).status == "done" for job in jobs)

    def test_failing_executor_records_the_error(self):
        def boom(job):
            raise ValueError("synthetic")

        manager = JobManager(boom)
        manager.start()
        job = manager.submit("sweep", {})
        assert manager.drain(timeout=10.0)
        manager.stop()
        assert manager.get(job.id).status == "failed"
        assert "synthetic" in manager.get(job.id).error
        assert manager.counts()["failed"] == 1

    def test_incremental_results_are_visible_mid_run(self):
        gate = threading.Event()
        release = threading.Event()

        def executor(job):
            manager.set_total(job, 2)
            manager.append_results(job, ["first"])
            gate.set()
            assert release.wait(timeout=10.0)
            manager.append_results(job, ["second"])

        manager = JobManager(executor)
        manager.start()
        job = manager.submit("sweep", {})
        assert gate.wait(timeout=10.0)
        partial = manager.snapshot(job)
        assert partial["status"] == "running"
        assert partial["results"] == ["first"]
        assert (partial["done"], partial["total"]) == (1, 2)
        release.set()
        assert manager.drain(timeout=10.0)
        manager.stop()
        assert manager.snapshot(job)["results"] == ["first", "second"]


class TestSupervisorLifecycle:
    def test_measuring_a_stopped_supervisor_raises(self, arith_small, base_config):
        supervisor = EvaluatorSupervisor(LiquidPlatform(), workers=1)
        with pytest.raises(SupervisorStopped):
            supervisor.measure(arith_small, base_config)
        with supervisor:
            supervisor.measure(arith_small, base_config)
        with pytest.raises(SupervisorStopped):
            supervisor.measure(arith_small, base_config)

    def test_stop_then_start_is_a_restart(self, arith_small, base_config):
        supervisor = EvaluatorSupervisor(LiquidPlatform(), workers=1)
        with supervisor:
            first = supervisor.measure(arith_small, base_config)
        supervisor.start()
        try:
            again = supervisor.measure(arith_small, base_config)
        finally:
            supervisor.stop()
        assert first.statistics.cycles == again.statistics.cycles

    def test_backoff_is_jittered_and_capped_then_degrades(self):
        class FixedRng:
            def uniform(self, low, high):
                return (low + high) / 2

        slept = []
        supervisor = EvaluatorSupervisor(
            LiquidPlatform(), workers=2, max_restarts=3,
            backoff_base=0.1, backoff_cap=0.5,
            rng=FixedRng(), sleep=slept.append)
        supervisor.start()
        try:
            for _ in range(5):
                supervisor._on_pool_break()
        finally:
            supervisor.stop()
        # three granted restarts slept a growing-but-capped backoff...
        assert len(slept) == 3
        assert slept[0] == pytest.approx(0.2)   # (0.1 + 0.3) / 2
        assert slept[1] > slept[0]
        assert all(delay <= 0.5 for delay in slept)
        # ...then the budget ran out: degraded to inline, no more sleeps
        assert supervisor.degraded
        assert supervisor.evaluator.workers == 1
        assert supervisor.restarts == 5
        assert supervisor.stats.supervisor_restarts == 5
        snapshot = supervisor.snapshot()
        assert snapshot["degraded"] and not snapshot["running"]

    def test_request_stop_only_flags(self):
        supervisor = EvaluatorSupervisor(LiquidPlatform(), workers=1)
        supervisor.start()
        try:
            supervisor.request_stop()
            assert supervisor.stop_requested and supervisor.running
        finally:
            supervisor.stop()


def kill_pool_worker(pool, victim, timeout: float = 10.0) -> None:
    """SIGKILL one pool worker and wait until the executor reports broken.

    Without the wait, a batch submitted before the executor's manager
    thread has noticed the corpse can finish on the surviving worker and
    never observe the break.
    """
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout)
    deadline = time.monotonic() + timeout
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool._broken, "the executor never noticed its killed worker"


class TestSurvivesPoolBreak:
    def test_sigkilled_worker_breaks_one_batch_and_the_pool_respawns(
            self, base_config, small_workload_map):
        """The acceptance scenario: SIGKILL a pool worker mid-life; the
        resident engine finishes the batch inline, counts the break, and
        the next sweep runs on a fresh pool."""
        workload = small_workload_map["blastn"]
        configs = [
            base_config.replace(dcache_sets=sets, dcache_setsize_kb=size)
            for sets in (1, 2) for size in (1, 2, 4)
        ]
        supervisor = EvaluatorSupervisor(
            LiquidPlatform(), workers=2, arena=False,
            backoff_base=0.0, backoff_cap=0.0, sleep=lambda s: None)
        with supervisor:
            baseline = supervisor.measure_sweep(workload, configs[:3])
            evaluator = supervisor.evaluator
            assert evaluator._pool is not None
            victim = next(iter(evaluator._pool._processes.values()))
            kill_pool_worker(evaluator._pool, victim)
            # the batch that observes the corpse completes inline...
            survivors = supervisor.measure_sweep(workload, configs[3:])
            assert supervisor.stats.pool_breaks == 1
            assert supervisor.restarts == 1
            assert supervisor.stats.supervisor_restarts == 1
            assert not supervisor.degraded
            # ...and the next sweep with fresh work respawns a healthy pool
            # (fresh configurations: memoised ones never touch the pool)
            fresh = [
                base_config.replace(dcache_sets=3, dcache_setsize_kb=size)
                for size in (1, 2, 4)
            ]
            spawns_before = supervisor.stats.pool_spawns
            again = supervisor.measure_sweep(workload, fresh)
            assert supervisor.stats.pool_spawns == spawns_before + 1
            assert evaluator._pool is not None
        # bit-identical to an untouched engine, break or no break
        with ParallelEvaluator(LiquidPlatform(), workers=1) as clean:
            expected = clean.measure_sweep(workload, configs)
            expected_fresh = clean.measure_sweep(workload, fresh)
        assert [m.statistics.cycles for m in baseline + survivors] == \
            [m.statistics.cycles for m in expected]
        assert [m.statistics.cycles for m in again] == \
            [m.statistics.cycles for m in expected_fresh]

    def test_broken_pool_leaves_no_orphan_workers(
            self, base_config, small_workload_map):
        """Every worker of the broken pool is dead after the break.

        The executor's own cleanup races our non-blocking shutdown: when
        it loses, a surviving sibling parks on the call queue forever and
        the executor's non-daemon manager thread -- joining that sibling
        -- blocks interpreter exit.  ``_pool_failed`` therefore kills the
        siblings itself; a resident server must *exit* after it says it
        stopped.
        """
        workload = small_workload_map["blastn"]
        configs = [
            base_config.replace(dcache_sets=sets, dcache_setsize_kb=size)
            for sets in (1, 2) for size in (1, 2)
        ]
        with ParallelEvaluator(LiquidPlatform(), workers=2,
                               arena=False) as evaluator:
            evaluator.measure_sweep(workload, configs)
            workers = list(evaluator._pool._processes.values())
            assert len(workers) == 2
            kill_pool_worker(evaluator._pool, workers[0])
            # the batch that trips over the corpse triggers _pool_failed
            evaluator.measure_sweep(
                workload, [base_config.replace(icache_sets=2)])
            assert evaluator.stats.pool_breaks == 1
            deadline = time.monotonic() + 10.0
            while (any(w.is_alive() for w in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert [w.is_alive() for w in workers] == [False, False]


class TestServiceJobs:
    def test_resubmitted_sweep_is_bit_identical_with_zero_new_evaluations(
            self, base_config, small_workload_map):
        workload = small_workload_map["arith"]
        payload = sweep_payload(workload, base_config)
        with TuningService(workers=2, scale="small") as service:
            first = wait_for(service, service.submit_sweep(payload).id)
            assert first["status"] == "done"
            assert first["done"] == first["total"] == len(payload["configs"])
            before = service.metrics()["engine"]
            assert before["store_writes"] == len(payload["configs"])
            second = wait_for(service, service.submit_sweep(payload).id)
            # zero new evaluations: the resident memo/store layers
            # answered the whole job (nothing simulated, nothing written)
            after = service.metrics()["engine"]
            assert after["cache_simulations"] == before["cache_simulations"]
            assert after["store_writes"] == before["store_writes"]
            assert after["requested"] == before["requested"] + len(payload["configs"])
            # bit-identical wire records
            assert json.dumps(first["results"], sort_keys=True) == \
                json.dumps(second["results"], sort_keys=True)

    def test_sweep_records_equal_a_direct_measure_sweep(
            self, base_config, small_workload_map):
        payload = sweep_payload(small_workload_map["arith"], base_config)
        with TuningService(workers=2, scale="small") as service:
            # compare against the registry instance the service serves
            # (the conftest fixtures are differently sized workloads)
            workload = service.workloads["arith"]
            served = wait_for(service, service.submit_sweep(payload).id)
            configs = [base_config.replace(**entry)
                       for entry in payload["configs"]]
            with ParallelEvaluator(LiquidPlatform(), workers=1) as direct:
                expected = [service.store.encode(workload, m)
                            for m in direct.measure_sweep(workload, configs)]
        assert json.dumps(served["results"], sort_keys=True) == \
            json.dumps(expected, sort_keys=True)

    def test_default_sweep_is_the_figure2_grid(self):
        with TuningService(workers=2, scale="small") as service:
            job = service.submit_sweep({"workload": "blastn"})
            done = wait_for(service, job.id, timeout=300.0)
            assert done["total"] == len(figure2_grid(service.platform))
            assert done["done"] == done["total"]

    def test_tune_job_reports_selection_and_predictions(self):
        with TuningService(workers=2, scale="small") as service:
            job = service.submit_tune({
                "workload": "arith",
                "weights": "runtime",
                "parameters": ["dcache_sets", "dcache_setsize_kb"],
            })
            done = wait_for(service, job.id, timeout=300.0)
            assert done["status"] == "done"
            (record,) = done["results"]
            assert record["workload"] == "arith"
            assert set(record["configuration"]) >= {"dcache_sets"}
            assert "runtime_percent" in record["predicted"]

    def test_bad_payloads_are_rejected_at_submit_time(self):
        with TuningService(workers=1, scale="small") as service:
            with pytest.raises(ValueError):
                service.submit_sweep({"workload": "no-such-workload"})
            with pytest.raises(ValueError):
                service.submit_sweep({"workload": "arith", "configs": []})
            with pytest.raises(ValueError):
                service.submit_tune({"workload": "arith",
                                     "weights": "no-such-preset"})
            assert service.jobs.counts()["total"] == 0


class TestServiceHttp:
    @pytest.fixture()
    def live_service(self):
        service = TuningService(workers=2, scale="small")
        httpd = make_server(service)
        thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True)
        service.start()
        thread.start()
        client = ServiceClient("http://%s:%d" % httpd.server_address)
        try:
            yield service, client
        finally:
            httpd.shutdown()
            thread.join(timeout=10.0)
            httpd.server_close()
            service.stop()

    def test_full_round_trip_over_a_real_socket(
            self, live_service, base_config, small_workload_map):
        service, client = live_service
        assert client.health()
        payload = sweep_payload(small_workload_map["arith"], base_config)
        submitted = client.submit_sweep(
            payload["workload"], configs=payload["configs"])
        assert submitted["status"] in ("queued", "running")
        done = client.wait(submitted["id"], timeout=120.0)
        assert done["done"] == len(payload["configs"])
        sims = client.metrics()["engine"]["cache_simulations"]
        again = client.wait(
            client.submit_sweep(payload["workload"],
                                configs=payload["configs"])["id"],
            timeout=120.0)
        assert client.metrics()["engine"]["cache_simulations"] == sims
        assert json.dumps(done["results"], sort_keys=True) == \
            json.dumps(again["results"], sort_keys=True)
        assert any(job["id"] == done["id"] for job in client.jobs())

    def test_metrics_document_has_every_section(self, live_service):
        _, client = live_service
        metrics = client.metrics()
        assert set(metrics) >= {"engine", "registry", "supervisor",
                                "jobs", "store"}
        assert metrics["supervisor"]["running"] is True
        assert "engine.workers" in metrics["registry"]

    def test_http_errors_map_to_status_codes(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as bad:
            client.submit_sweep("no-such-workload")
        assert bad.value.status == 400
        with pytest.raises(ServiceError) as missing:
            client.job("no-such-job")
        assert missing.value.status == 404
        with pytest.raises(ServiceError) as route:
            client._request("GET", "/no-such-route")
        assert route.value.status == 404


class TestServiceOnCampaignGrid:
    def test_sweep_jobs_drain_as_grid_rows(self, tmp_path, base_config,
                                           small_workload_map):
        db = str(tmp_path / "campaign.sqlite")
        workload = small_workload_map["arith"]
        payload = sweep_payload(workload, base_config)
        with TuningService(workers=2, scale="small", grid_path=db) as service:
            done = wait_for(service, service.submit_sweep(payload).id)
            assert done["status"] == "done"
            assert done["meta"]["grid_rows_added"] == len(payload["configs"])
            assert done["meta"]["grid_done"] == len(payload["configs"])
        with CampaignGrid(db) as grid:
            counts = grid.status()
            assert counts[STATUS_DONE] == counts["total"] == len(payload["configs"])

    def test_grid_job_answers_rows_a_cli_worker_already_did(
            self, tmp_path, base_config, small_workload_map):
        """Service and CLI workers share one queue: rows drained by a
        plain CampaignWorker before the job runs are not re-evaluated."""
        from repro.engine import CampaignWorker
        from repro.workloads import small_workloads

        db = str(tmp_path / "campaign.sqlite")
        # the registry instance: grid rows match by trace fingerprint, so
        # the CLI worker must register exactly what the service will serve
        workload = small_workloads()["arith"]
        payload = sweep_payload(workload, base_config)
        configs = [base_config.replace(**entry) for entry in payload["configs"]]
        with CampaignGrid(db) as grid:
            platform = LiquidPlatform()
            grid.bind_platform(platform.device, platform.timing_parameters)
            grid.register(workload, configs)
            with CampaignWorker(grid, [workload], platform=platform) as cli:
                report = cli.run()
            assert report.done == len(configs)
        with TuningService(workers=1, scale="small", grid_path=db) as service:
            done = wait_for(service, service.submit_sweep(payload).id)
            assert done["status"] == "done"
            assert done["meta"]["grid_rows_added"] == 0
            assert done["meta"]["grid_done"] == 0  # nothing left to claim
            assert done["done"] == len(configs)
            # the whole job answered from the measurements the CLI wrote
            assert service.metrics()["engine"]["cache_simulations"] == 0
            assert service.metrics()["engine"]["store_hits"] >= len(configs)
