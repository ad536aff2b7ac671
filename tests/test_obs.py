"""The unified telemetry layer: tracer, run record, dashboard.

These tests pin the observability contracts: spans nest and record
correct depth/attrs, disabled tracing is a true no-op, exports are
schema-valid Chrome traces with labelled process lanes, the flat run
record of :class:`EngineStats` names every dataclass field, stage spans
reconcile with ``stage_seconds``,
campaign workers persist heartbeat rows that the dashboard ages into
``STALE`` flags, and the CLI's ``--status --json`` / ``--status
--watch`` surfaces terminate cleanly without disturbing the plain
``--status`` format older tooling parses.
"""

import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.tuner import MicroarchTuner
from repro.engine import CampaignGrid, CampaignWorker, open_store
from repro.obs import (
    EngineStats,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
    validate_chrome_trace,
)
from repro.obs.dashboard import campaign_snapshot, render_dashboard, watch
from repro.platform import LiquidPlatform

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with tracing off."""
    disable_tracing()
    yield
    disable_tracing()


def grid_configs(base_config, count=6):
    configs = [
        base_config.replace(dcache_sets=sets, dcache_setsize_kb=size)
        for sets in (1, 2, 3)
        for size in (1, 2, 4, 8)
    ]
    return configs[:count]


@pytest.fixture()
def fresh_arith():
    """A workload with no memoized trace or decode: every span fires.

    The session-scoped ``arith_small`` fixture caches its generated
    trace and columnar decodes across the whole suite, so tests
    asserting the *presence* of decode/trace_generation spans need a
    private instance.
    """
    from repro.workloads import ArithWorkload
    return ArithWorkload(iterations=200)


# -- span tracer ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        assert not tracing_enabled()
        with span("outer", key="value") as outer:
            outer.set(more="attrs")  # no-op parity with the active span
        assert get_tracer().records == []

    def test_spans_nest_and_record_depth_and_attrs(self):
        tracer = enable_tracing()
        with span("outer", stage="a"):
            with span("inner") as inner:
                inner.set(rows=3)
        names = {r.name: r for r in tracer.records}
        assert set(names) == {"outer", "inner"}
        assert names["outer"].depth == 0
        assert names["inner"].depth == 1
        assert names["outer"].attrs == {"stage": "a"}
        assert names["inner"].attrs == {"rows": 3}
        # inner closed first and fits inside outer
        assert names["inner"].wall <= names["outer"].wall
        assert names["outer"].pid == os.getpid()
        assert names["outer"].tid == threading.get_ident()

    def test_exception_is_recorded_and_depth_recovers(self):
        tracer = enable_tracing()
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("nope")
        with span("after"):
            pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["boom"].attrs["error"] == "ValueError"
        assert by_name["after"].depth == 0

    def test_sink_streams_completed_records(self):
        seen = []
        enable_tracing(sink=seen.append)
        with span("streamed"):
            pass
        assert [r.name for r in seen] == ["streamed"]

    def test_chrome_export_validates_and_labels_lanes(self, tmp_path):
        tracer = enable_tracing()
        with span("work", rows=2):
            pass
        fake = tracer.records[0].__class__(
            name="remote", ts=tracer.records[0].ts, wall=0.001, cpu=0.001,
            depth=0, pid=os.getpid() + 1, tid=1, attrs={})
        tracer.records.append(fake)
        path = tmp_path / "trace.json"
        count = tracer.export_chrome(str(path))
        summary = validate_chrome_trace(str(path))
        assert count == summary["events"]
        assert summary["spans"] == 2
        assert len(summary["pids"]) == 2
        labels = {e["args"]["name"] for e in
                  json.loads(path.read_text())["traceEvents"] if e["ph"] == "M"}
        assert labels == {"host", f"process {os.getpid() + 1}"}

    def test_jsonl_export_is_one_record_per_line(self, tmp_path):
        tracer = enable_tracing()
        with span("a"):
            pass
        with span("b"):
            pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(str(path)) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["a", "b"]
        assert all(line["pid"] == os.getpid() for line in lines)

    def test_validate_rejects_malformed_traces(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(ValueError):
            validate_chrome_trace(str(path))
        path.write_text(json.dumps(
            {"traceEvents": [{"name": "x", "ph": "X", "pid": 1}]}))
        with pytest.raises(ValueError):
            validate_chrome_trace(str(path))


# -- the run record --------------------------------------------------------------------


class TestEngineStatsRegistry:
    """:class:`EngineStats` is the run's one registry of counts: a plain
    dataclass and the flat record built from it."""

    def test_snapshot_keys_match_dataclass_fields(self):
        """The drift guard: ``as_dict`` and the flat record name exactly the
        scalar fields, and a record with no stage run holds nothing else."""
        stats = EngineStats()
        scalars = {f.name for f in fields(EngineStats)} - {"stage_seconds", "stage_calls"}
        assert set(stats.as_dict()) == scalars
        record = stats.record()
        assert {name for name in record if name.startswith("engine.")} == {
            f"engine.{name}" for name in scalars}
        assert not [name for name in record if not name.startswith("engine.")]

    def test_add_stage_feeds_sums_and_counts(self):
        stats = EngineStats()
        stats.add_stage("decode", 0.5)
        stats.add_stage("decode", 0.25)
        assert stats.stage_seconds["decode"] == pytest.approx(0.75)
        assert stats.stage_calls["decode"] == 2
        stage = stats.record()["stage.decode"]
        assert stage == {"count": 2, "total": pytest.approx(0.75)}

    def test_as_dict_stays_scalar(self):
        row = EngineStats().as_dict()
        assert "stage_seconds" not in row and "stage_calls" not in row
        assert all(not isinstance(v, dict) for v in row.values())


class TestSpanTreeTiming:
    def test_stage_spans_reconcile_with_stage_seconds(
            self, base_config, fresh_arith):
        tracer = enable_tracing()
        configs = grid_configs(base_config)
        platform = LiquidPlatform(store=open_store(None))
        platform.measure_many(fresh_arith, configs)
        stats = platform.stats
        spans = {}
        for record in tracer.records:
            spans[record.name] = spans.get(record.name, 0.0) + record.wall
        # store_io: the batch read and the batch write, timed apart from
        # the timing model (sweep_evaluate times only the assembly)
        store_spans = [r for r in tracer.records if r.name == "store_io"]
        assert [(r.attrs["rows_read"], r.attrs["rows_written"] > 0)
                for r in store_spans] == [(0, False), (0, True)]
        assert all(r.attrs["workload"] == fresh_arith.name for r in store_spans)
        for stage in ("trace_generation", "cache_simulation", "sweep_evaluate",
                      "store_io"):
            assert stage in stats.stage_seconds
            # the span and the stage share one timed region; the span
            # closes a hair later, so it may only exceed by bookkeeping
            assert spans[stage] >= stats.stage_seconds[stage]
            assert spans[stage] - stats.stage_seconds[stage] < 0.05

    def test_tuner_solve_reconciles_with_stage_seconds(self, fresh_arith):
        """The tuner times its solve through the platform's stage, so the
        ``solve`` span and ``stage_seconds["solve"]`` time one region."""
        from repro import RUNTIME_OPTIMIZATION
        from repro.analysis import DCACHE_STUDY_PARAMETERS

        tracer = enable_tracing()
        platform = LiquidPlatform()
        MicroarchTuner(platform).tune(
            fresh_arith, RUNTIME_OPTIMIZATION,
            parameters=DCACHE_STUDY_PARAMETERS, verify=False)
        stats = platform.stats
        [solve] = [r for r in tracer.records if r.name == "solve"]
        assert stats.stage_calls["solve"] == 1
        assert solve.wall >= stats.stage_seconds["solve"]
        assert solve.wall - stats.stage_seconds["solve"] < 0.05
        assert stats.record()["stage.solve"]["count"] == 1

    def test_pipeline_spans_name_what_they_time(self, base_config, fresh_arith):
        """functional_sim carries the workload and its size; solve is the
        BINLP solve of a tune; the cache_simulation stage carries the
        workload and its job count on every batch (the tune's campaign
        and verification batches and a grid sweep); decode and replay
        carry the workload, and replay no longer names a lane; synthesis,
        sweep_evaluate and timing_eval carry their batch sizes."""
        from repro import RUNTIME_OPTIMIZATION, MicroarchTuner
        from repro.analysis import DCACHE_STUDY_PARAMETERS

        tracer = enable_tracing()
        platform = LiquidPlatform()
        MicroarchTuner(platform).tune(
            fresh_arith, RUNTIME_OPTIMIZATION,
            parameters=DCACHE_STUDY_PARAMETERS, verify=False)
        tuned = len(tracer.records)
        platform = LiquidPlatform()
        platform.measure_many(fresh_arith, grid_configs(base_config))
        swept_jobs = platform.stats.cache_simulations
        by_name = {}
        for record in tracer.records:
            by_name.setdefault(record.name, []).append(record)

        [simulation] = by_name["functional_sim"]
        assert simulation.attrs["workload"] == fresh_arith.name
        assert simulation.attrs["instructions"] == fresh_arith.trace().instruction_count
        assert all(r.attrs["workload"] == fresh_arith.name
                   for r in by_name["trace_generation"])
        [solve] = by_name["solve"]
        assert solve.attrs["workload"] == fresh_arith.name
        assert solve.attrs["variables"] > 0
        assert solve.attrs["nodes"] >= 1
        assert solve.attrs["optimal"] is True
        caches = by_name["cache_simulation"]
        [swept] = [r for r in tracer.records[tuned:] if r.name == "cache_simulation"]
        assert len(caches) > 1
        assert all(r.attrs["workload"] == fresh_arith.name for r in caches)
        assert all(isinstance(r.attrs["jobs"], int) for r in caches)
        assert swept.attrs["jobs"] == swept_jobs > 0
        for name in ("decode", "replay"):
            assert by_name[name], name
            assert all(r.attrs["workload"] == fresh_arith.name
                       for r in by_name[name]), name
        assert all("lane" not in r.attrs for r in by_name["replay"])

        # the batch stages carry the batch sizes: the grid's one synthesis
        # pass, assembly and broadcast timing each cover its configurations
        grid = len(grid_configs(base_config))
        swept_stages = {r.name: r for r in tracer.records[tuned:]}
        assert swept_stages["synthesis"].attrs == {"configs": grid,
                                                   "workload": fresh_arith.name}
        assert swept_stages["sweep_evaluate"].attrs == {"configs": grid}
        assert swept_stages["timing_eval"].attrs == {"configs": grid,
                                                     "workload": fresh_arith.name}
        # the tune screened its perturbations for fit in one pass outside any
        # workload's batch, then synthesised its base inside the campaign's
        screen, base = by_name["synthesis"][:2]
        assert screen.attrs["workload"] is None and screen.attrs["configs"] > 1
        assert base.attrs == {"configs": 1, "workload": fresh_arith.name}
        assert all(isinstance(r.attrs["configs"], int) and r.attrs["configs"] > 0
                   for name in ("synthesis", "sweep_evaluate", "timing_eval")
                   for r in by_name[name])

    def test_setup_counts_show_whether_setup_was_paid(self, base_config, fresh_arith):
        """functional_sim says how many instructions it ran, and
        ``stats.instructions`` (``--profile``, ``GET /metrics``) sums them;
        replay says how many set views it derived and native calls it made."""
        tracer = enable_tracing()
        platform = LiquidPlatform()
        platform.measure_many(fresh_arith, grid_configs(base_config))
        [simulation] = [r for r in tracer.records if r.name == "functional_sim"]
        replays = [r for r in tracer.records if r.name == "replay"]
        assert simulation.attrs["instructions"] == fresh_arith.trace().instruction_count > 0
        # one replay call per batch, after one derivation per set count not cached
        assert replays and all(r.attrs["views_derived"] >= 0 for r in replays)
        assert all(r.attrs["native_calls"] == r.attrs["views_derived"] + 1
                   for r in replays)
        # the one functional_sim span is the sum over every simulation
        assert platform.stats.instructions == simulation.attrs["instructions"]
        assert platform.stats.record()["engine.instructions"] == platform.stats.instructions


    def test_campaign_plan_says_whether_it_was_reused(self, arith_small):
        """A tuner plans once per restriction; the ``campaign_plan`` span
        and ``stats.plans_built``/``plans_reused`` (``--profile``,
        ``GET /metrics``) show which runs reused the plan."""
        tracer = enable_tracing()
        platform = LiquidPlatform()
        tuner = MicroarchTuner(platform)
        for _ in range(3):
            model = tuner.build_model(arith_small, parameters=("dcache_sets",))
        plans = [r for r in tracer.records if r.name == "campaign_plan"]
        assert [r.attrs["reused"] for r in plans] == [False, True, True]
        assert all(r.attrs["variables"] == len(model.measurements) for r in plans)
        assert all(r.attrs["configs"] == len(model.measurements) + 1 for r in plans)
        assert platform.stats.plans_built == 1
        assert platform.stats.plans_reused == 2


# -- campaign heartbeats and the dashboard -------------------------------------------------


class TestHeartbeats:
    def test_heartbeat_upserts_one_row_per_worker(self, tmp_path):
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            grid.heartbeat("w1", batches=1, claimed=4, done=2,
                           rows_per_sec=1.5)
            grid.heartbeat("w1", batches=2, claimed=8, done=8,
                           rows_per_sec=2.5, engine={"workers": 2})
            grid.heartbeat("w2", done=1)
            beats = grid.worker_heartbeats()
        assert {b["worker"] for b in beats} == {"w1", "w2"}
        w1 = next(b for b in beats if b["worker"] == "w1")
        assert (w1["batches"], w1["done"], w1["rows_per_sec"]) == (2, 8, 2.5)
        assert w1["engine"] == {"workers": 2}
        assert w1["pid"] == os.getpid()

    def test_worker_run_persists_heartbeats(self, tmp_path, base_config,
                                            arith_small):
        with CampaignGrid(str(tmp_path / "grid.sqlite")) as grid:
            # three dcache geometries over one icache geometry: four rows
            grid.register(arith_small, grid_configs(base_config, 3))
            with CampaignWorker(grid, [arith_small], worker_id="beater",
                                heartbeat_seconds=0.01) as worker:
                report = worker.run()
            beats = grid.worker_heartbeats()
        assert report.done == 4
        assert len(beats) == 1
        # the final forced beat carries the full campaign outcome
        assert beats[0]["done"] == 4
        assert beats[0]["failed"] == 0
        assert beats[0]["engine"]["claim_rows"] == 4


class TestDashboard:
    def _grid_with_progress(self, tmp_path, base_config, workload):
        grid = CampaignGrid(str(tmp_path / "grid.sqlite"))
        grid.register(workload, grid_configs(base_config, 3))  # four rows
        return grid

    def test_snapshot_counts_workers_and_staleness(self, tmp_path, base_config,
                                                   arith_small):
        with self._grid_with_progress(tmp_path, base_config,
                                      arith_small) as grid:
            grid.heartbeat("live", done=1, rows_per_sec=2.0)
            grid.heartbeat("dead", done=1, rows_per_sec=4.0)
            now = grid.worker_heartbeats()[0]["ts"]
            stale_ts = now - 1000
            grid._conn.execute(
                "UPDATE heartbeats SET ts = ? WHERE worker = 'dead'",
                (stale_ts,))
            grid._conn.commit()
            snapshot = campaign_snapshot(grid, stale_after=300, now=now)
        assert snapshot["counts"]["open"] == 4
        workers = {w["worker"]: w for w in snapshot["workers"]}
        assert workers["live"]["stale"] is False
        assert workers["dead"]["stale"] is True
        # stale workers don't contribute to throughput or the ETA
        assert snapshot["rows_per_sec"] == pytest.approx(2.0)
        assert snapshot["eta_seconds"] == pytest.approx(4 / 2.0)

    def test_render_mentions_counts_workers_and_stale_flag(
            self, tmp_path, base_config, arith_small):
        with self._grid_with_progress(tmp_path, base_config,
                                      arith_small) as grid:
            grid.heartbeat("w1", done=2, rows_per_sec=1.0)
            snapshot = campaign_snapshot(grid, stale_after=300)
            snapshot["workers"][0]["stale"] = True
            text = render_dashboard(snapshot)
        assert "4 open" in text
        assert "w1" in text and "STALE" in text
        assert "arith" in text

    def test_all_workers_stale_renders_stalled_not_a_normal_bar(
            self, tmp_path, base_config, arith_small):
        """Pending rows + every heartbeat stale = STALLED, not 'no ETA'.

        The old rendering guarded only on ``throughput > 0``, so a
        campaign whose workers all died looked exactly like one that was
        merely between batches; the snapshot now carries an explicit
        ``stalled`` flag and the dashboard says so.
        """
        with self._grid_with_progress(tmp_path, base_config,
                                      arith_small) as grid:
            grid.heartbeat("w1", done=1, rows_per_sec=2.0)
            grid.heartbeat("w2", done=1, rows_per_sec=3.0)
            now = grid.worker_heartbeats()[0]["ts"]
            snapshot = campaign_snapshot(grid, stale_after=300,
                                         now=now + 1000)
            assert snapshot["stalled"] is True
            assert snapshot["eta_seconds"] is None
            assert snapshot["rows_per_sec"] == 0.0
            text = render_dashboard(snapshot)
            assert "STALLED" in text
            assert "4 rows pending" in text
            assert "2 stale workers" in text

    def test_one_live_worker_clears_the_stall(self, tmp_path, base_config,
                                              arith_small):
        with self._grid_with_progress(tmp_path, base_config,
                                      arith_small) as grid:
            grid.heartbeat("dead", done=1, rows_per_sec=3.0)
            grid.heartbeat("live", done=1, rows_per_sec=2.0)
            now = grid.worker_heartbeats()[0]["ts"]
            grid._conn.execute(
                "UPDATE heartbeats SET ts = ? WHERE worker = 'dead'",
                (now - 1000,))
            grid._conn.commit()
            snapshot = campaign_snapshot(grid, stale_after=300, now=now)
        assert snapshot["stalled"] is False
        assert snapshot["eta_seconds"] is not None
        assert "STALLED" not in render_dashboard(snapshot)

    def test_no_workers_or_no_pending_rows_is_not_a_stall(
            self, tmp_path, base_config, arith_small):
        with self._grid_with_progress(tmp_path, base_config,
                                      arith_small) as grid:
            # a freshly registered grid has no workers yet: not stalled
            assert campaign_snapshot(grid)["stalled"] is False
            # a drained grid with only stale heartbeats left: not stalled
            grid.heartbeat("w1", done=4, rows_per_sec=1.0)
            now = grid.worker_heartbeats()[0]["ts"]
            grid._conn.execute("UPDATE replays SET status = 'done'")
            grid._conn.commit()
            snapshot = campaign_snapshot(grid, stale_after=300,
                                         now=now + 1000)
            assert snapshot["stalled"] is False
            assert "STALLED" not in render_dashboard(snapshot)

    def test_watch_honours_refresh_budget_and_detects_drain(
            self, tmp_path, base_config, arith_small):
        with self._grid_with_progress(tmp_path, base_config,
                                      arith_small) as grid:
            stream = io.StringIO()
            snapshot = watch(grid, interval=0.0, max_refreshes=2,
                             stream=stream, clear=False)
            assert snapshot["counts"]["open"] == 4
            assert stream.getvalue().count("campaign grid") == 2

            grid._conn.execute("UPDATE replays SET status = 'done'")
            grid._conn.commit()
            stream = io.StringIO()
            watch(grid, interval=0.0, stream=stream, clear=False)
            assert "grid drained." in stream.getvalue()


# -- the CLI surfaces ----------------------------------------------------------------------


class TestObservabilityCli:
    def _run(self, *argv, timeout=180):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "run_experiments.py"),
             *argv],
            env=env, capture_output=True, text=True, timeout=timeout)

    def _registered(self, tmp_path):
        db = str(tmp_path / "cli.sqlite")
        register = self._run("--grid-db", db, "--register",
                             "--grid-scale", "small",
                             "--grid-workloads", "arith")
        assert register.returncode == 0, register.stderr
        return db

    def test_status_json_is_machine_readable(self, tmp_path):
        db = self._registered(tmp_path)
        result = self._run("--grid-db", db, "--status", "--json")
        assert result.returncode == 0, result.stderr
        snapshot = json.loads(result.stdout)
        assert snapshot["counts"]["open"] > 0
        assert snapshot["workers"] == []
        # the stall flag is part of the machine-readable contract
        assert snapshot["stalled"] is False

    def test_status_json_reports_a_stalled_campaign(self, tmp_path):
        db = self._registered(tmp_path)
        with CampaignGrid(db) as grid:
            grid.heartbeat("w1", done=0, rows_per_sec=1.0)
            grid._conn.execute("UPDATE heartbeats SET ts = ts - 1000")
            grid._conn.commit()
        result = self._run("--grid-db", db, "--status", "--json",
                           "--stale-after", "300")
        assert result.returncode == 0, result.stderr
        snapshot = json.loads(result.stdout)
        assert snapshot["stalled"] is True
        assert snapshot["eta_seconds"] is None
        watch = self._run("--grid-db", db, "--status", "--watch",
                          "--interval", "0.1", "--watch-max", "1",
                          "--stale-after", "300")
        assert watch.returncode == 0, watch.stderr
        assert "STALLED" in watch.stdout

    def test_plain_status_format_is_unchanged(self, tmp_path):
        db = self._registered(tmp_path)
        result = self._run("--grid-db", db, "--status")
        assert result.returncode == 0, result.stderr
        assert "status:" in result.stdout and "open" in result.stdout

    def test_watch_terminates_on_refresh_budget(self, tmp_path):
        db = self._registered(tmp_path)
        result = self._run("--grid-db", db, "--status", "--watch",
                           "--interval", "0.1", "--watch-max", "2")
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("campaign grid") == 2

    def test_json_and_watch_require_status(self, tmp_path):
        db = str(tmp_path / "cli.sqlite")
        assert self._run("--grid-db", db, "--json").returncode != 0
        assert self._run("--grid-db", db, "--watch").returncode != 0
