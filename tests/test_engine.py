"""Engine equivalence suite: batched/store-backed == per-configuration.

The hard guarantee of the evaluation engine is that *how* a measurement
is obtained -- one at a time, batched, deduplicated, replayed in
shared-decode groups, or loaded back from a persistent store -- never
changes *what* is measured.  Tests of the measurement assembly compare
engine and platform output against the per-configuration oracle
(``reference_timing.reference_measurements``) bit for bit (dataclass
equality covers cycle counts, cache hit/miss statistics including the
seeded RANDOM replacement, resource reports and the full cycle
breakdown), across all four paper workloads; tests of the store and
dedup compare against the bare :class:`LiquidPlatform`.
"""

import ast
import contextlib
import importlib.util
import os
import pathlib
import sqlite3
import subprocess
import sys
from argparse import Namespace

import pytest

from reference_timing import reference_measurements
from repro.config import Replacement, base_configuration
from repro.core import MicroarchTuner, OneFactorCampaign, RUNTIME_OPTIMIZATION
import repro
from repro.engine import CampaignGrid, CampaignWorker, ResultStore, open_store
from repro.engine import store as store_module
from repro.errors import StoreFormatError
from repro.fpga.device import FpgaDevice
from repro.microarch.cachekernel import KERNEL_VERSION
from repro.obs import EngineStats, disable_tracing, enable_tracing
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload, small_workloads


def variant_configs(base):
    """A batch exercising every cache-simulation path, duplicates included."""
    return [
        base,
        base.replace(dcache_sets=1, dcache_setsize_kb=8),            # vectorized path
        base.replace(dcache_sets=2, dcache_replacement=Replacement.RANDOM),
        base.replace(dcache_sets=2, dcache_replacement=Replacement.LRR),
        base.replace(dcache_sets=4, dcache_replacement=Replacement.LRU),
        base.replace(icache_setsize_kb=1, dcache_setsize_kb=1),
        base,                                                        # duplicate of [0]
        base.replace(multiplier="m32x32"),                           # same caches as base
    ]


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestOnePlatform:
    """One object builds, measures, persists and accounts."""

    def test_store_binds_to_the_platform_at_construction(self, tmp_path):
        from repro.microarch.timing import TimingParameters

        slow = TimingParameters(memory_latency=40)
        bigger = FpgaDevice(name="bigger", luts=80_000, brams=320)
        store = open_store(str(tmp_path / "results.sqlite"))
        platform = LiquidPlatform(bigger, timing_parameters=slow, store=store)
        assert platform.store is store
        assert (store.device, store.timing_parameters) == (bigger, slow)
        assert LiquidPlatform().store is None
        assert not hasattr(repro, "EvaluationBackend")
        store.close()

    def test_effort_runs_count_the_sweep_evaluations(self, base_config, arith_small):
        platform = LiquidPlatform()
        assert platform.fits(base_config)
        assert platform.build(base_config).luts == LiquidPlatform().build(base_config).luts
        assert platform.effort() == {"builds": 1, "runs": 0}
        configs = [base_config, base_config.replace(dcache_sets=2), base_config]
        platform.measure_many(arith_small, configs)
        platform.measure_many(arith_small, configs)  # memo hits are no runs
        assert platform.effort() == {"builds": 2, "runs": 2}
        assert platform.stats.sweep_evaluations == 2
        assert not hasattr(platform, "run_count")

    def test_the_cli_closes_its_store(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "run_experiments", REPO_ROOT / "scripts" / "run_experiments.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        args = Namespace(store=str(tmp_path / "results.sqlite"))
        with script.managed_backend(args) as platform:
            store = platform.store
            assert len(store) == 0
        with pytest.raises(sqlite3.ProgrammingError):
            len(store)
        with script.managed_backend(args, with_store=False) as bare:
            assert bare.store is None

    def test_perfbench_shim_hands_back_the_one_platform(self, tmp_path, base_config):
        """The pinned harness's calls, exactly as ``perfbench/scenarios.py``
        makes them: a tune suite inside ``with`` read back through
        ``.stats.requested``, and a campaign bound to a platform (a no-op)
        and drained with ``workers=``."""
        from repro.engine import ParallelEvaluator

        app = ArithWorkload(iterations=70)
        store = open_store(str(tmp_path / "cold.sqlite"))
        with ParallelEvaluator(LiquidPlatform(), store=store) as evaluator:
            tuner = MicroarchTuner(evaluator)
            result = tuner.tune(app, RUNTIME_OPTIMIZATION, verify=True)
        assert type(evaluator) is LiquidPlatform and evaluator.store is store
        assert evaluator.stats.requested == len(result.model.measurements) + 2
        reference = MicroarchTuner(LiquidPlatform()).tune(
            app, RUNTIME_OPTIMIZATION, verify=True)
        assert result.actual == reference.actual
        store.close()

        path = str(tmp_path / "grid.sqlite")
        configs = variant_configs(base_config)[:6]
        bare = LiquidPlatform()
        with CampaignGrid(path) as grid:
            grid.bind_platform(bare.device, bare.timing_parameters)
            grid.register(app, configs)
            with CampaignWorker(grid, [app], platform=bare, workers=2) as worker:
                report = worker.run()
        assert report.done == 8  # six dcache and two icache geometries
        assert bare.stats.requested == 0  # the worker measured over the grid file
        with contextlib.closing(store_module.SqliteResultStore(path)) as rows:
            for config in configs:
                assert rows.get(app, config) == bare.measure(app, config)


class TestBatching:
    def test_measure_many_aligns_and_dedups(self, base_config, arith_small):
        platform = LiquidPlatform()
        configs = variant_configs(base_config)
        results = platform.measure_many(arith_small, configs)
        assert len(results) == len(configs)
        assert results[0] == results[6]                 # duplicate collapsed
        assert platform.effort()["runs"] == len(configs) - 1
        loop = LiquidPlatform()
        assert results == [loop.measure(arith_small, c) for c in configs]
        assert results == reference_measurements(arith_small, configs)

    def test_fits_shares_synthesis_with_build(self, base_config):
        platform = LiquidPlatform()
        calls = []
        original = platform.synthesis.synthesize
        platform.synthesis.synthesize = lambda cfg: (calls.append(1), original(cfg))[1]
        assert platform.fits(base_config)
        platform.build(base_config)
        platform.fits(base_config)
        assert len(calls) == 1


class TestParallelEquivalence:
    def test_parallel_batch_identical_to_sequential(self, base_config, small_workload_map):
        configs = variant_configs(base_config)
        engine = LiquidPlatform()
        for name, workload in small_workload_map.items():
            reference = reference_measurements(workload, configs)
            parallel = engine.measure_many(workload, configs)
            assert parallel == reference, f"engine diverged on workload {name}"
        assert engine.stats.dedup_hits == len(small_workload_map)

    def test_multi_workload_batch_identical_to_sequential(self, base_config,
                                                          small_workload_map):
        """Batches of several workloads interleaved on one engine, each
        split in two, never mix up their memos."""
        configs = variant_configs(base_config)
        engine = LiquidPlatform()
        workloads = list(small_workload_map.values())
        halves = (configs[:4], configs[4:])
        measured = {w: [] for w in workloads}
        for half in halves:
            for workload in workloads:
                measured[workload] += engine.measure_many(workload, half)
        for workload in workloads:
            assert measured[workload] == reference_measurements(workload, configs)

    def test_same_named_workloads_coexist_in_one_batch(self, base_config):
        small, large = ArithWorkload(iterations=60), ArithWorkload(iterations=140)
        engine = LiquidPlatform()
        first = engine.measure(small, base_config)
        second = engine.measure(large, base_config)
        assert first == reference_measurements(small, [base_config])[0]
        assert second == reference_measurements(large, [base_config])[0]
        assert first.cycles != second.cycles


class TestStoreEquivalence:
    def test_store_round_trip_identical(self, tmp_path, base_config, small_workload_map):
        path = str(tmp_path / "results.sqlite")
        configs = variant_configs(base_config)
        writer = LiquidPlatform(store=ResultStore(path))
        first = {name: writer.measure_many(w, configs)
                 for name, w in small_workload_map.items()}
        assert writer.stats.store_hits == 0

        reader = LiquidPlatform(store=ResultStore(path))
        for name, workload in small_workload_map.items():
            replayed = reader.measure_many(workload, configs)
            assert replayed == first[name]
            sequential = LiquidPlatform().measure_many(workload, configs)
            assert replayed == sequential
        # everything came from the store: no cache replays at all
        assert reader.stats.cache_simulations == 0
        assert reader.stats.store_hits == len(small_workload_map) * 7  # unique configs

    def test_store_never_aliases_workloads_of_different_scale(self, tmp_path, base_config):
        path = str(tmp_path / "results.sqlite")
        small, large = ArithWorkload(iterations=50), ArithWorkload(iterations=120)
        assert small.fingerprint() != large.fingerprint()
        LiquidPlatform(store=ResultStore(path)).measure(small, base_config)
        reader = LiquidPlatform(store=ResultStore(path))
        measurement = reader.measure(large, base_config)
        assert reader.stats.store_hits == 0
        assert measurement == LiquidPlatform().measure(large, base_config)


class TestSqliteStore:
    def test_open_store_selects_backend_by_extension(self, tmp_path):
        for name in ("a.sqlite", "a.sqlite3", "a.db"):
            store = open_store(str(tmp_path / name))
            assert isinstance(store, ResultStore)
            assert store.path == str(tmp_path / name)
        assert store_module.SqliteResultStore is ResultStore  # the harness name
        memory = open_store(None)  # in-memory default
        assert isinstance(memory, ResultStore) and memory.path is None

    def test_round_trip_identical(self, tmp_path, base_config, arith_small):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        expected = LiquidPlatform(store=store).measure(
            arith_small, base_config)
        assert len(store) == 2  # the icache and the dcache geometry
        reloaded = ResultStore(path)
        replayed = reloaded.get(arith_small, base_config)
        assert replayed == expected
        assert replayed == LiquidPlatform().measure(arith_small, base_config)
        assert reloaded.get(arith_small, base_config.replace(dcache_sets=2)) is None

    def test_resume_answers_from_store_without_runs(self, tmp_path, base_config,
                                                    small_workload_map):
        path = str(tmp_path / "results.db")
        configs = variant_configs(base_config)
        writer = LiquidPlatform(store=open_store(path))
        first = {name: writer.measure_many(w, configs)
                 for name, w in small_workload_map.items()}
        assert writer.stats.store_hits == 0

        reader = LiquidPlatform(store=open_store(path))
        for name, workload in small_workload_map.items():
            assert reader.measure_many(workload, configs) == first[name]
        assert reader.stats.cache_simulations == 0
        assert reader.stats.store_hits == len(small_workload_map) * 7  # unique configs

    def test_write_deduplicates(self, tmp_path, base_config, arith_small):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        platform = LiquidPlatform()
        jobs = platform.pending_jobs(platform.cache_plan(arith_small, [base_config]).jobs())
        runs = platform.simulate_cache_jobs(arith_small, jobs)
        summary = arith_small.trace().summary()
        fingerprint = arith_small.fingerprint()
        assert store.write(fingerprint, runs, summary=summary) == 3
        assert store.write(fingerprint, runs, summary=summary) == 0
        assert len(store) == 2
        loaded_summary, loaded_runs = store.load(fingerprint)
        assert loaded_runs == runs
        assert loaded_summary.window_traps == summary.window_traps

    def test_context_filter_follows_platform_calibration(self, tmp_path, base_config,
                                                         arith_small):
        """Rows written under one calibration never leak its cycle counts into
        a reader with another: the store holds cache outcomes only, and each
        reader times them with its own parameters."""
        from repro.microarch.timing import TimingParameters

        path = str(tmp_path / "results.sqlite")
        writer = LiquidPlatform(timing_parameters=TimingParameters(memory_latency=40),
                                store=ResultStore(path))
        slow_measurement = writer.measure(arith_small, base_config)

        default_reader = LiquidPlatform(store=ResultStore(path))
        default_measurement = default_reader.measure(arith_small, base_config)
        assert default_reader.stats.cache_simulations == 0
        assert default_measurement.cycles < slow_measurement.cycles
        assert default_measurement == LiquidPlatform().measure(arith_small, base_config)

        slow_reader = LiquidPlatform(
            timing_parameters=TimingParameters(memory_latency=40), store=ResultStore(path))
        assert slow_reader.measure(arith_small, base_config) == slow_measurement
        assert slow_reader.stats.cache_simulations == 0
        assert slow_reader.stats.store_hits == 1


class TestStoreFormat:
    def test_open_store_refuses_other_extensions(self, tmp_path):
        with pytest.raises(StoreFormatError, match=r"\.sqlite, \.sqlite3, \.db"):
            open_store(str(tmp_path / "results.jsonl"))
        assert not (tmp_path / "results.jsonl").exists()

    def test_per_configuration_layout_is_refused_not_migrated(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("CREATE TABLE measurements (context TEXT, fingerprint TEXT,"
                         " config_key TEXT, record TEXT)")
        conn.close()
        with pytest.raises(StoreFormatError) as error:
            open_store(str(path))
        assert str(path) in str(error.value)
        assert "delete" in str(error.value) and "another path" in str(error.value)
        conn = sqlite3.connect(path)
        tables = {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        conn.close()
        assert tables == {"measurements"}  # untouched

    def test_a_file_that_is_not_sqlite_is_refused(self, tmp_path):
        path = tmp_path / "notes.db"
        path.write_text('{"not": "a database"}\n' * 100)
        with pytest.raises(StoreFormatError, match="not a SQLite result store"):
            open_store(str(path))

    @pytest.mark.parametrize("grid_first", [True, False])
    def test_fresh_file_shared_with_a_campaign_grid_opens(self, tmp_path, base_config,
                                                          arith_small, grid_first):
        path = str(tmp_path / "campaign.sqlite")
        if grid_first:
            grid, store = CampaignGrid(path), open_store(path)
        else:
            store, grid = open_store(path), CampaignGrid(path)
        with grid:
            assert grid.register(arith_small, [base_config]) == 2
            LiquidPlatform(store=store).measure(arith_small, base_config)
            assert len(store) == 2
        store.close()

    def test_rows_of_another_kernel_version_are_never_served(
            self, tmp_path, monkeypatch, base_config, arith_small):
        path = str(tmp_path / "results.sqlite")
        expected = LiquidPlatform(store=open_store(path)).measure(
            arith_small, base_config)
        monkeypatch.setattr(store_module, "KERNEL_VERSION", KERNEL_VERSION + 1)
        store = open_store(path)
        assert len(store) == 0
        assert store.load(arith_small.fingerprint()) == (None, {})
        reader = LiquidPlatform(store=store)
        assert reader.measure(arith_small, base_config) == expected
        assert reader.stats.store_hits == 0 and reader.stats.cache_simulations == 2
        assert len(store) == 2


class TestStoreIO:
    """A batch reads a workload's rows at most once and commits at most once."""

    @staticmethod
    def record_statements(store):
        statements = []
        store._conn.set_trace_callback(statements.append)
        return statements

    @staticmethod
    def count(statements, prefix, table=""):
        return sum(1 for sql in statements
                   if sql.lstrip().upper().startswith(prefix) and table in sql)

    def test_one_read_round_and_one_commit_per_batch(self, tmp_path, base_config):
        path = str(tmp_path / "results.sqlite")
        configs = variant_configs(base_config)
        workload = ArithWorkload(iterations=90)
        store = open_store(path)
        statements = self.record_statements(store)
        LiquidPlatform(store=store).measure_many(workload, configs)
        assert self.count(statements, "SELECT", "summaries") == 1
        assert self.count(statements, "SELECT", "cache_stats") == 1
        assert self.count(statements, "COMMIT") == 1
        store.close()

        # a warm batch over a new store reads the rows once, writes nothing
        store = open_store(path)
        statements = self.record_statements(store)
        engine = LiquidPlatform(store=store)
        warm = ArithWorkload(iterations=90)
        engine.measure_many(warm, configs)
        assert self.count(statements, "SELECT", "traces") == 1  # the input key
        assert self.count(statements, "SELECT", "summaries") == 1
        assert self.count(statements, "SELECT", "cache_stats") == 1
        assert self.count(statements, "COMMIT") == 0
        assert self.count(statements, "INSERT") == 0
        assert engine.stats.cache_simulations == 0

        # a batch the memos answer touches the store not at all
        statements.clear()
        engine.measure_many(warm, configs[:3] + [base_config.replace(multiplier="m32x32",
                                                                     dcache_sets=2)])
        assert statements == []
        store.close()

    def test_rows_the_memos_already_held_are_written(self, tmp_path, base_config):
        """Every row of a batch the store lacks is written, also the ones the
        memos held before the batch (installed from elsewhere, not simulated)."""
        path = str(tmp_path / "results.sqlite")
        configs = variant_configs(base_config)
        bare = LiquidPlatform()
        workload = ArithWorkload(iterations=90)
        bare.measure_many(workload, configs[:2])  # summary + 3 geometries in memo
        plan = bare.cache_plan(workload, configs)
        jobs = bare.pending_jobs(plan.jobs())
        platform = LiquidPlatform(store=open_store(path))
        platform.install_summary(workload.fingerprint(), bare.summary(workload))
        platform.install_cache_runs(bare.simulate_cache_jobs(
            workload, [job for row in range(2) for job in (
                plan.icache[plan.icache_rows[row]], plan.dcache[plan.dcache_rows[row]])]))
        measured = platform.measure_many(workload, configs)
        geometries = set(plan.jobs())
        assert platform.stats.cache_simulations == len(jobs)
        assert platform.stats.store_writes == len(geometries) + 1  # and the summary

        warm = LiquidPlatform(store=open_store(path))
        assert warm.measure_many(ArithWorkload(iterations=90), configs) == measured
        assert warm.stats.cache_simulations == 0

    def test_store_io_stage_times_reads_and_writes(self, tmp_path, base_config):
        tracer = enable_tracing()
        try:
            engine = LiquidPlatform(store=open_store(None))
            engine.measure_many(ArithWorkload(iterations=90),
                                variant_configs(base_config))
            spans = [r for r in tracer.records if r.name == "store_io"]
        finally:
            disable_tracing()
        read, write = spans
        assert read.attrs == {"workload": "arith", "rows_read": 0, "rows_written": 0}
        assert write.attrs["rows_written"] == engine.stats.store_writes
        # the replayed geometries, the trace summary and the input-key row
        assert write.attrs["rows_written"] == engine.stats.cache_simulations + 2
        assert engine.stats.stage_seconds["store_io"] > 0


class TestStoreAudit:
    def populate(self, path, base_config):
        workload = small_workloads()["arith"]
        engine = LiquidPlatform(store=open_store(path))
        engine.measure_many(workload, variant_configs(base_config))
        return engine.stats.cache_simulations

    def test_audit_passes_on_an_intact_store(self, tmp_path, base_config):
        path = str(tmp_path / "results.sqlite")
        rows = self.populate(path, base_config)
        store = open_store(path)
        assert store.audit(small_workloads().values(), 1.0) == (rows + 1, 0)
        audited, mismatches = store.audit(small_workloads().values(), 0.25)
        assert mismatches == 0 and 1 < audited < rows + 1
        store.close()

    def test_corrupted_row_fails_the_audit(self, tmp_path, base_config):
        path = str(tmp_path / "results.sqlite")
        self.populate(path, base_config)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE cache_stats SET read_misses = read_misses + 1"
                         " WHERE rowid = (SELECT MIN(rowid) FROM cache_stats)")
        conn.close()
        store = open_store(path)
        audited, mismatches = store.audit(small_workloads().values(), 1.0)
        assert mismatches == 1 and audited > 1
        store._conn.execute("UPDATE summaries SET cc_branch_hazards = cc_branch_hazards + 1")
        store._conn.commit()
        assert store.audit(small_workloads().values(), 1.0) == (audited, 2)
        store.close()

        script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
            "run_experiments.py"
        src = str(script.parent.parent / "src")
        result = subprocess.run(
            [sys.executable, str(script), "--scale", "small", "--store", path,
             "--audit-store", "1.0"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src))
        assert result.returncode == 1, result.stdout + result.stderr
        assert "2 mismatches" in result.stdout


class TestCampaignAndTuner:
    def test_campaign_batch_identical_to_seed_sequential_loop(self, arith_small):
        """The batched campaign must reproduce the seed's measure-in-a-loop results."""
        reference_platform = LiquidPlatform()
        campaign = OneFactorCampaign(reference_platform)
        model_sequential = campaign.run(arith_small, parameters=(
            "dcache_sets", "dcache_setsize_kb", "dcache_replacement"))

        engine = LiquidPlatform()
        batched = OneFactorCampaign(engine).run(arith_small, parameters=(
            "dcache_sets", "dcache_setsize_kb", "dcache_replacement"))

        assert batched.base == model_sequential.base
        assert batched.deltas == model_sequential.deltas
        assert batched.measurements == model_sequential.measurements
        configs = [m.configuration for m in (batched.base, *batched.measurements)]
        assert [batched.base, *batched.measurements] == \
            reference_measurements(arith_small, configs)

    def test_run_many_matches_individual_runs(self, small_workload_map):
        params = ("dcache_sets", "dcache_setsize_kb")
        individual = {
            name: OneFactorCampaign(LiquidPlatform()).run(w, parameters=params)
            for name, w in small_workload_map.items()}
        engine = LiquidPlatform()
        combined = OneFactorCampaign(engine).run_many(
            small_workload_map.values(), parameters=params)
        assert set(combined) == set(individual)
        for name in individual:
            assert combined[name].base == individual[name].base
            assert combined[name].deltas == individual[name].deltas

    def test_tuner_on_engine_matches_tuner_on_platform(self, arith_small):
        params = ("dcache_sets", "dcache_setsize_kb")
        sequential = MicroarchTuner(LiquidPlatform()).tune(
            arith_small, RUNTIME_OPTIMIZATION, parameters=params)
        engine = MicroarchTuner(LiquidPlatform()).tune(
            arith_small, RUNTIME_OPTIMIZATION, parameters=params)
        assert engine.configuration == sequential.configuration
        assert engine.actual == sequential.actual
        assert engine.predicted == sequential.predicted


class TestStaleness:
    def test_store_context_follows_platform_calibration(self, tmp_path, base_config,
                                                        arith_small):
        """A store reopened under other timing parameters or another device
        answers exactly like a fresh platform with those: it persists no
        calibration-dependent number, so it has nothing stale to serve."""
        from repro.microarch.timing import TimingParameters

        path = str(tmp_path / "results.sqlite")
        configs = variant_configs(base_config)
        slow_parameters = TimingParameters(memory_latency=40, window_overflow_cost=60)
        bigger = FpgaDevice(name="bigger", luts=80_000, brams=320)
        writer = LiquidPlatform(timing_parameters=slow_parameters, store=open_store(path))
        writer.measure_many(arith_small, configs)
        for platform_args in ({}, {"timing_parameters": slow_parameters},
                              {"device": bigger}):
            reader = LiquidPlatform(**platform_args, store=open_store(path))
            measured = reader.measure_many(arith_small, configs)
            assert measured == LiquidPlatform(**platform_args).measure_many(
                arith_small, configs)
            assert reader.stats.cache_simulations == 0
            assert reader.stats.store_hits == 7
            get = open_store(path, **platform_args).get(arith_small, configs[1])
            assert get == measured[1]
        assert measured[0].resources.device == bigger

    def test_worker_pool_tracks_trace_changes_of_same_named_workloads(self, base_config):
        """Re-measuring on a reused evaluator must not replay a stale trace."""
        engine = LiquidPlatform()
        first = ArithWorkload(iterations=60)
        engine.measure_many(first, [base_config, base_config.replace(dcache_sets=2)])

        second = ArithWorkload(iterations=140)  # same name, different trace
        batch = [base_config,                   # overlaps the first workload's configs
                 base_config.replace(dcache_sets=4),
                 base_config.replace(dcache_setsize_kb=16)]
        batched = engine.measure_many(second, batch)
        assert batched == reference_measurements(second, batch)


class TestNoEvaluatorWrapper:
    def test_no_evaluator_wrapper_is_named(self):
        """No code names the retired evaluator wrapper or its protocol.

        The platform is the one measuring object.  The only allowed
        identifiers are the benchmark harness's shim in
        ``repro/engine/__init__.py`` and the test that drives that shim
        (:meth:`TestOnePlatform.test_perfbench_shim_hands_back_the_one_platform`).
        """
        retired = {"ParallelEvaluator", "EvaluationBackend"}
        shim = "src/repro/engine/__init__.py"
        shim_test = ("tests/test_engine.py",
                     "test_perfbench_shim_hands_back_the_one_platform")
        offenders = []
        for directory in ("src", "scripts", "benchmarks", "examples", "tests"):
            for path in sorted((REPO_ROOT / directory).rglob("*.py")):
                relative = path.relative_to(REPO_ROOT).as_posix()
                if relative == shim:
                    continue
                tree = ast.parse(path.read_text(), filename=str(path))
                exempt = [range(node.lineno, node.end_lineno + 1)
                          for node in ast.walk(tree)
                          if isinstance(node, ast.FunctionDef)
                          and (relative, node.name) == shim_test]
                for node in ast.walk(tree):
                    names = {getattr(node, "id", None), getattr(node, "attr", None),
                             getattr(node, "name", None)}
                    if names & retired and not any(
                            node.lineno in lines for lines in exempt):
                        offenders.append(f"{relative}:{node.lineno}")
        assert not offenders, f"retired evaluator names used at: {sorted(set(offenders))}"


class TestSingleProcessEngine:
    def test_imports_load_no_process_pool_or_shared_memory(self):
        """The engine evaluates in-process: importing the package, the
        engine and the service must not load the process-pool executor
        or the shared-memory module (a fresh interpreter, so modules
        other tests imported do not count)."""
        probe = (
            "import sys, repro, repro.engine, repro.service.server\n"
            "loaded = [m for m in ('multiprocessing.shared_memory',\n"
            "                      'concurrent.futures.process') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert result.returncode == 0, result.stderr


class TestEngineStats:
    def test_stats_accounting(self, base_config, arith_small):
        engine = LiquidPlatform()
        configs = [base_config, base_config, base_config.replace(dcache_sets=2)]
        engine.measure_many(arith_small, configs)
        stats = engine.stats
        assert isinstance(stats, EngineStats)
        assert stats.requested == 3
        assert stats.dedup_hits == 1
        assert stats.batches == 1
        assert stats.cache_simulations == 3  # icache + 2 distinct dcache geometries
        # icache and the two same-linesize dcache geometries share one decode each
        assert stats.cache_groups == 2
        assert stats.wall_seconds > 0
        assert "dedup_hits" in stats.as_dict()
        assert "cache_groups" in stats.as_dict()
        assert "engine:" in stats.summary()

    def test_stage_seconds_cover_the_pipeline(self, base_config):
        # a private instance: trace_generation is only accounted when the
        # simulator actually runs, and the session fixture's trace is cached
        workload = ArithWorkload(iterations=200)
        engine = LiquidPlatform()
        engine.measure_many(workload, [base_config])
        stages = engine.stats.stage_seconds
        for stage in ("trace_generation", "cache_simulation", "sweep_evaluate"):
            assert stage in stages
            assert stages[stage] >= 0.0
        assert "model_build" not in stages
        tuner = MicroarchTuner(engine)
        tuner.tune(workload, RUNTIME_OPTIMIZATION,
                   parameters=("dcache_sets",), verify=False)
        assert "solve" in engine.stats.stage_seconds

    def test_second_batch_reuses_memoised_results(self, base_config, arith_small):
        engine = LiquidPlatform()
        engine.measure_many(arith_small, [base_config])
        before = engine.stats.cache_simulations
        engine.measure_many(arith_small, [base_config])
        assert engine.stats.cache_simulations == before
