"""The resident tuning service.

These tests pin the properties that make an always-on evaluation
service sound: jobs run FIFO on one resident engine and stream
incremental results; an identical re-submitted sweep answers from the
store with *zero* new evaluations, bit for bit identical to the first
answer and to the per-configuration reference measurements; unbuildable
sweeps are refused at submission; the HTTP layer round-trips all
of that through a real socket; SIGTERM drains the served process; and a
grid-backed service drains the same campaign queue a CLI ``--claim``
worker would.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from http import HTTPStatus
from urllib.parse import urlsplit

import pytest

from reference_timing import reference_measurements
from repro import RESOURCE_OPTIMIZATION, RUNTIME_OPTIMIZATION, MicroarchTuner
from repro.config import check_rules
from repro.engine import CampaignGrid
from repro.engine.campaign import STATUS_DONE
from repro.platform import LiquidPlatform
from repro.service import ServiceClient, ServiceError, TuningService, make_server
from repro.service import jobs as service_jobs
from repro.service.jobs import JobManager
from repro.service.server import MAX_BODY_BYTES, MAX_SWEEP_CONFIGS, figure2_grid


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


    def test_finished_jobs_are_bounded_oldest_first(self, monkeypatch):
        monkeypatch.setattr(service_jobs, "MAX_FINISHED_JOBS", 3)
        gate = threading.Event()
        release = threading.Event()

        def executor(job):
            if job.payload.get("block"):
                gate.set()
                assert release.wait(timeout=10.0)

        manager = JobManager(executor)
        manager.start()
        quick = [manager.submit("sweep", {}) for _ in range(6)]
        running = manager.submit("sweep", {"block": True})
        queued = [manager.submit("sweep", {}) for _ in range(2)]
        assert gate.wait(timeout=10.0)
        # six finished, three kept: the oldest went first; nothing unfinished went
        assert [manager.get(job.id) for job in quick[:3]] == [None] * 3
        assert all(manager.get(job.id) is job for job in quick[3:])
        assert manager.get(running.id).status == "running"
        assert all(manager.get(job.id).status == "queued" for job in queued)
        assert len(manager._jobs) == 6
        release.set()
        assert manager.drain(timeout=10.0)
        manager.stop()
        assert len(manager._jobs) == 3
        assert [job["id"] for job in manager.list_jobs()] == \
            [running.id] + [job.id for job in queued]
        assert manager.counts() == {"queued": 0, "running": 0, "done": 3,
                                    "failed": 0, "total": 3}


class TestServiceJobs:
    def test_resubmitted_sweep_is_bit_identical_with_zero_new_evaluations(
            self, base_config, small_workload_map):
        workload = small_workload_map["arith"]
        payload = sweep_payload(workload, base_config)
        with TuningService(scale="small") as service:
            first = wait_for(service, service.submit_sweep(payload).id)
            assert first["status"] == "done"
            assert first["done"] == first["total"] == len(payload["configs"])
            before = service.metrics()["engine"]
            # one row per replayed geometry plus the trace summary and the
            # workload's input-key row
            assert before["store_writes"] == before["cache_simulations"] + 2
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

    def test_sweep_records_equal_the_reference_measurements(
            self, base_config, small_workload_map):
        payload = sweep_payload(small_workload_map["arith"], base_config)
        with TuningService(scale="small") as service:
            # compare against the registry instance the service serves
            # (the conftest fixtures are differently sized workloads)
            workload = service.workloads["arith"]
            served = wait_for(service, service.submit_sweep(payload).id)
            configs = [base_config.replace(**entry)
                       for entry in payload["configs"]]
            expected = [service.store.encode(workload, m)
                        for m in reference_measurements(workload, configs)]
        assert json.dumps(served["results"], sort_keys=True) == \
            json.dumps(expected, sort_keys=True)

    def test_default_sweep_is_the_figure2_grid(self):
        with TuningService(scale="small") as service:
            job = service.submit_sweep({"workload": "blastn"})
            done = wait_for(service, job.id, timeout=300.0)
            assert done["total"] == len(figure2_grid(service.platform))
            assert done["done"] == done["total"]

    def test_tune_job_reports_selection_and_predictions(self):
        with TuningService(scale="small") as service:
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

    def test_tune_jobs_share_one_tuner_and_match_fresh_tuners(self):
        """Every tune job of a service reuses its one-factor plan, and each
        answers what a fresh tuner on a fresh engine recommends."""
        parameters = ["dcache_sets", "dcache_setsize_kb"]
        presets = {"runtime": RUNTIME_OPTIMIZATION, "resources": RESOURCE_OPTIMIZATION}
        with TuningService(scale="small") as service:
            jobs = [service.submit_tune({"workload": "arith", "weights": preset,
                                         "parameters": parameters})
                    for preset in presets]
            done = [wait_for(service, job.id, timeout=300.0) for job in jobs]
            registry = service.metrics()["registry"]
            workload = service.workloads["arith"]
        assert registry["engine.plans_built"] == 1
        assert registry["engine.plans_reused"] >= 1
        for snapshot, weights in zip(done, presets.values()):
            assert snapshot["status"] == "done", snapshot.get("error")
            (record,) = snapshot["results"]
            fresh = MicroarchTuner(LiquidPlatform()).tune(
                workload, weights, parameters=parameters, verify=False)
            assert record["configuration"] == fresh.configuration.as_dict()
            assert record["changed_parameters"] == {
                name: {"base": base, "tuned": tuned}
                for name, (base, tuned) in fresh.changed_parameters().items()}
            assert record["predicted"] == {
                "runtime_percent": fresh.predicted.runtime_percent,
                "runtime_cycles": fresh.predicted.runtime_cycles,
                "lut_percent": fresh.predicted.lut_percent_linear,
                "bram_percent": fresh.predicted.bram_percent_nonlinear,
            }

    def test_bad_payloads_are_rejected_at_submit_time(self):
        with TuningService(scale="small") as service:
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
        service = TuningService(scale="small")
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

    def test_metrics_document_has_every_section(
            self, live_service, base_config, small_workload_map):
        """The sections and the fields the service benchmark reads: after one
        sweep, the ``sweep_evaluate`` stage's count and total and the
        engine's request count."""
        _, client = live_service
        payload = sweep_payload(small_workload_map["arith"], base_config)
        client.wait(client.submit_sweep(payload["workload"], configs=payload["configs"])["id"],
                    timeout=120.0)
        metrics = client.metrics()
        assert set(metrics) == {"engine", "registry", "jobs", "store"}
        assert "engine.requested" in metrics["registry"]
        stage = metrics["registry"]["stage.sweep_evaluate"]
        assert stage["count"] >= 1 and stage["total"] > 0
        assert metrics["engine"]["requested"] > 0

    def test_unbuildable_sweep_is_refused_at_submit(
            self, live_service, base_config, small_workload_map):
        """A rule-valid config over the device's BRAM gets a 400 naming it,
        and no job is created (it used to fail midway through the sweep)."""
        service, client = live_service
        configs = sweep_payload(small_workload_map["arith"], base_config)["configs"]
        oversized = {"icache_sets": 2, "icache_setsize_kb": 32,
                     "dcache_sets": 1, "dcache_setsize_kb": 1}
        assert not check_rules(base_config.replace(**oversized))
        with pytest.raises(ServiceError) as refused:
            client.submit_sweep("arith", configs=configs + [oversized])
        assert refused.value.status == 400
        message = str(refused.value)
        assert f"configs[{len(configs)}] does not fit" in message
        assert "BRAM" in message
        assert service.jobs.list_jobs() == []
        assert service.metrics()["engine"]["requested"] == 0

    def test_oversized_sweep_list_is_refused_with_413(self, live_service):
        """A configs list over MAX_SWEEP_CONFIGS is refused at submit."""
        service, client = live_service
        assert MAX_SWEEP_CONFIGS >= 288  # every cache geometry in one sweep
        with pytest.raises(ServiceError) as refused:
            client.submit_sweep("arith", configs=[{}] * (MAX_SWEEP_CONFIGS + 1))
        assert refused.value.status == 413
        assert str(MAX_SWEEP_CONFIGS) in str(refused.value)
        assert service.jobs.list_jobs() == []
        assert service.metrics()["engine"]["requested"] == 0

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

    @pytest.mark.parametrize("length,status", [
        ("abc", 400), ("-1", 400), (str(MAX_BODY_BYTES + 1), 413)])
    def test_bad_content_length_is_answered_before_any_read(
            self, live_service, length, status):
        """A bad length gets its reply at once, without the body being sent."""
        service, client = live_service
        url = urlsplit(client.base_url)
        host, port = url.hostname, url.port
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(f"POST /sweep HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode("ascii"))
            reply = sock.makefile("rb").read()  # the server closes the connection
        assert reply.split(b"\r\n", 1)[0] == f"HTTP/1.1 {status} ".encode() + \
            HTTPStatus(status).phrase.encode()
        assert b"Connection: close" in reply
        assert service.jobs.list_jobs() == []


class TestServeProcess:
    def test_sigterm_drains_and_exits(self, tmp_path):
        """``--serve`` installs its own SIGTERM handler: a served job
        finishes, then the process drains and exits with status 0."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        server = subprocess.Popen(
            [sys.executable, os.path.join(root, "scripts", "run_experiments.py"),
             "--serve", "--scale", "small", "--port", "0",
             "--store", str(tmp_path / "service.sqlite")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                     PYTHONUNBUFFERED="1"))
        try:
            url = re.search(r"http://\S+", server.stdout.readline())
            assert url is not None, "the service did not announce its address"
            client = ServiceClient(url.group(0))
            done = client.wait(client.submit_sweep(
                "arith", configs=[{"dcache_sets": 2}])["id"], timeout=120.0)
            assert done["status"] == "done"
            server.send_signal(signal.SIGTERM)
            output = server.communicate(timeout=60.0)[0]
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, output
        assert "tuning service stopped." in output


class TestServiceOnCampaignGrid:
    def test_sweep_jobs_drain_as_grid_rows(self, tmp_path, base_config,
                                           small_workload_map):
        db = str(tmp_path / "campaign.sqlite")
        workload = small_workload_map["arith"]
        payload = sweep_payload(workload, base_config)
        with TuningService(scale="small", grid_path=db) as service:
            done = wait_for(service, service.submit_sweep(payload).id)
            assert done["status"] == "done"
            # one row per dcache geometry plus the icache geometry they share
            rows = len(payload["configs"]) + 1
            assert done["meta"]["grid_rows_added"] == rows
            assert done["meta"]["grid_done"] == rows
        with CampaignGrid(db) as grid:
            counts = grid.status()
            assert counts[STATUS_DONE] == counts["total"] == rows

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
            grid.register(workload, configs)
            with CampaignWorker(grid, [workload], platform=platform) as cli:
                report = cli.run()
            assert report.done == len(configs) + 1
        with TuningService(scale="small", grid_path=db) as service:
            done = wait_for(service, service.submit_sweep(payload).id)
            assert done["status"] == "done"
            assert done["meta"]["grid_rows_added"] == 0
            assert done["meta"]["grid_done"] == 0  # nothing left to claim
            assert done["done"] == len(configs)
            # the whole job answered from the measurements the CLI wrote
            assert service.metrics()["engine"]["cache_simulations"] == 0
            assert service.metrics()["engine"]["store_hits"] >= len(configs)
