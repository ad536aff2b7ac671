"""Engine equivalence suite: batched/store-backed == sequential.

The hard guarantee of the evaluation engine is that *how* a measurement
is obtained -- one at a time, batched, deduplicated, replayed in
shared-decode groups, or loaded back from a persistent store -- never
changes *what* is measured.  Every test here compares engine output against the
sequential :class:`LiquidPlatform` reference bit-for-bit (dataclass
equality covers cycle counts, cache hit/miss statistics including the
seeded RANDOM replacement, resource reports and the full cycle
breakdown), across all four paper workloads.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from repro.config import Replacement, base_configuration
from repro.core import MicroarchTuner, OneFactorCampaign, RUNTIME_OPTIMIZATION
from repro.engine import (
    EngineStats,
    EvaluationBackend,
    ParallelEvaluator,
    ResultStore,
    SqliteResultStore,
    open_store,
)
from repro.engine.store import workload_fingerprint
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload


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


class TestProtocol:
    def test_platform_and_engine_satisfy_backend_protocol(self):
        assert isinstance(LiquidPlatform(), EvaluationBackend)
        assert isinstance(ParallelEvaluator(), EvaluationBackend)

    def test_engine_delegates_single_shot_api(self, base_config):
        engine = ParallelEvaluator()
        assert engine.fits(base_config)
        assert engine.build(base_config).luts == LiquidPlatform().build(base_config).luts
        assert engine.effort() == {"builds": 1, "runs": 0}


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
        engine = ParallelEvaluator()
        for name, workload in small_workload_map.items():
            sequential = LiquidPlatform().measure_many(workload, configs)
            parallel = engine.measure_many(workload, configs)
            assert parallel == sequential, f"engine diverged on workload {name}"
        assert engine.stats.dedup_hits == len(small_workload_map)

    def test_multi_workload_batch_identical_to_sequential(self, base_config,
                                                          small_workload_map):
        configs = variant_configs(base_config)
        engine = ParallelEvaluator()
        combined = engine.measure_many_multi(
            {w: configs for w in small_workload_map.values()})
        for name, workload in small_workload_map.items():
            sequential = LiquidPlatform().measure_many(workload, configs)
            assert combined[workload] == sequential

    def test_same_named_workloads_coexist_in_one_batch(self, base_config):
        small, large = ArithWorkload(iterations=60), ArithWorkload(iterations=140)
        engine = ParallelEvaluator()
        combined = engine.measure_many_multi({small: [base_config], large: [base_config]})
        assert combined[small][0] == LiquidPlatform().measure(small, base_config)
        assert combined[large][0] == LiquidPlatform().measure(large, base_config)
        assert combined[small][0].cycles != combined[large][0].cycles


class TestStoreEquivalence:
    def test_store_round_trip_identical(self, tmp_path, base_config, small_workload_map):
        path = str(tmp_path / "results.jsonl")
        configs = variant_configs(base_config)
        writer = ParallelEvaluator(store=ResultStore(path))
        first = {name: writer.measure_many(w, configs)
                 for name, w in small_workload_map.items()}
        assert writer.stats.store_hits == 0

        reader = ParallelEvaluator(store=ResultStore(path))
        for name, workload in small_workload_map.items():
            replayed = reader.measure_many(workload, configs)
            assert replayed == first[name]
            sequential = LiquidPlatform().measure_many(workload, configs)
            assert replayed == sequential
        # everything came from the store: no profiling runs at all
        assert reader.platform.effort()["runs"] == 0
        assert reader.stats.store_hits == len(small_workload_map) * 7  # unique configs

    def test_store_survives_truncated_and_foreign_lines(self, tmp_path, base_config,
                                                        arith_small):
        """A run killed mid-append must not make the store unloadable."""
        path = str(tmp_path / "results.jsonl")
        writer = ParallelEvaluator(store=ResultStore(path))
        expected = writer.measure(arith_small, base_config)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated": \n')          # killed mid-append
            handle.write('{"context": "other"}\n')    # different platform context
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.get(arith_small, base_config) == expected

    def test_store_never_aliases_workloads_of_different_scale(self, tmp_path, base_config):
        path = str(tmp_path / "results.jsonl")
        small, large = ArithWorkload(iterations=50), ArithWorkload(iterations=120)
        assert workload_fingerprint(small) != workload_fingerprint(large)
        ParallelEvaluator(store=ResultStore(path)).measure(small, base_config)
        reader = ParallelEvaluator(store=ResultStore(path))
        measurement = reader.measure(large, base_config)
        assert reader.stats.store_hits == 0
        assert measurement == LiquidPlatform().measure(large, base_config)


class TestSqliteStore:
    def test_open_store_selects_backend_by_extension(self, tmp_path):
        assert isinstance(open_store(str(tmp_path / "a.sqlite")), SqliteResultStore)
        assert isinstance(open_store(str(tmp_path / "a.db")), SqliteResultStore)
        assert isinstance(open_store(str(tmp_path / "a.jsonl")), ResultStore)
        assert isinstance(open_store(None), ResultStore)  # in-memory default

    def test_round_trip_identical(self, tmp_path, base_config, arith_small):
        path = str(tmp_path / "results.sqlite")
        store = SqliteResultStore(path)
        expected = ParallelEvaluator(store=store).measure(
            arith_small, base_config)
        assert len(store) == 1
        reloaded = SqliteResultStore(path)
        replayed = reloaded.get(arith_small, base_config)
        assert replayed == expected
        assert replayed == LiquidPlatform().measure(arith_small, base_config)

    def test_resume_answers_from_store_without_runs(self, tmp_path, base_config,
                                                    small_workload_map):
        path = str(tmp_path / "results.db")
        configs = variant_configs(base_config)
        writer = ParallelEvaluator(store=open_store(path))
        first = {name: writer.measure_many(w, configs)
                 for name, w in small_workload_map.items()}
        assert writer.stats.store_hits == 0

        reader = ParallelEvaluator(store=open_store(path))
        for name, workload in small_workload_map.items():
            assert reader.measure_many(workload, configs) == first[name]
        assert reader.platform.effort()["runs"] == 0
        assert reader.stats.store_hits == len(small_workload_map) * 7  # unique configs

    def test_put_deduplicates(self, tmp_path, base_config, arith_small):
        store = SqliteResultStore(str(tmp_path / "results.sqlite"))
        measurement = LiquidPlatform().measure(arith_small, base_config)
        assert store.put(arith_small, measurement) is True
        assert store.put(arith_small, measurement) is False
        assert len(store) == 1

    def test_context_filter_follows_platform_calibration(self, tmp_path, base_config,
                                                         arith_small):
        from repro.microarch.timing import TimingParameters

        path = str(tmp_path / "results.sqlite")
        slow = LiquidPlatform(timing_parameters=TimingParameters(memory_latency=40))
        writer = ParallelEvaluator(slow, store=SqliteResultStore(path))
        slow_measurement = writer.measure(arith_small, base_config)

        default_reader = ParallelEvaluator(store=SqliteResultStore(path))
        default_measurement = default_reader.measure(arith_small, base_config)
        assert default_reader.stats.store_hits == 0
        assert default_measurement.cycles < slow_measurement.cycles

        slow_reader = ParallelEvaluator(
            LiquidPlatform(timing_parameters=TimingParameters(memory_latency=40)),
            store=SqliteResultStore(path))
        assert slow_reader.measure(arith_small, base_config) == slow_measurement
        assert slow_reader.stats.store_hits == 1


class TestCampaignAndTuner:
    def test_campaign_batch_identical_to_seed_sequential_loop(self, arith_small):
        """The batched campaign must reproduce the seed's measure-in-a-loop results."""
        reference_platform = LiquidPlatform()
        campaign = OneFactorCampaign(reference_platform)
        model_sequential = campaign.run(arith_small, parameters=(
            "dcache_sets", "dcache_setsize_kb", "dcache_replacement"))

        engine = ParallelEvaluator()
        batched = OneFactorCampaign(engine).run(arith_small, parameters=(
            "dcache_sets", "dcache_setsize_kb", "dcache_replacement"))

        assert batched.base == model_sequential.base
        assert batched.deltas == model_sequential.deltas
        assert batched.measurements == model_sequential.measurements

    def test_run_many_matches_individual_runs(self, small_workload_map):
        params = ("dcache_sets", "dcache_setsize_kb")
        individual = {
            name: OneFactorCampaign(LiquidPlatform()).run(w, parameters=params)
            for name, w in small_workload_map.items()}
        engine = ParallelEvaluator()
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
        engine = MicroarchTuner(ParallelEvaluator()).tune(
            arith_small, RUNTIME_OPTIMIZATION, parameters=params)
        assert engine.configuration == sequential.configuration
        assert engine.actual == sequential.actual
        assert engine.predicted == sequential.predicted


class TestStaleness:
    def test_store_context_follows_platform_calibration(self, tmp_path, base_config,
                                                        arith_small):
        """A store must never serve measurements from a differently calibrated platform."""
        from repro.microarch.timing import TimingParameters

        path = str(tmp_path / "results.jsonl")
        slow = LiquidPlatform(timing_parameters=TimingParameters(memory_latency=40))
        writer = ParallelEvaluator(slow, store=ResultStore(path))
        slow_measurement = writer.measure(arith_small, base_config)

        default_reader = ParallelEvaluator(store=ResultStore(path))
        default_measurement = default_reader.measure(arith_small, base_config)
        assert default_reader.stats.store_hits == 0
        assert default_measurement.cycles < slow_measurement.cycles

        slow_reader = ParallelEvaluator(
            LiquidPlatform(timing_parameters=TimingParameters(memory_latency=40)),
            store=ResultStore(path))
        assert slow_reader.measure(arith_small, base_config) == slow_measurement
        assert slow_reader.stats.store_hits == 1

    def test_worker_pool_tracks_trace_changes_of_same_named_workloads(self, base_config):
        """Re-measuring on a reused evaluator must not replay a stale trace."""
        engine = ParallelEvaluator()
        first = ArithWorkload(iterations=60)
        engine.measure_many(first, [base_config, base_config.replace(dcache_sets=2)])

        second = ArithWorkload(iterations=140)  # same name, different trace
        batch = [base_config,                   # overlaps the first workload's configs
                 base_config.replace(dcache_sets=4),
                 base_config.replace(dcache_setsize_kb=16)]
        batched = engine.measure_many(second, batch)
        sequential = LiquidPlatform().measure_many(second, batch)
        assert batched == sequential
        engine.close()


class TestEvaluatorHygiene:
    def test_close_is_idempotent_and_evaluator_stays_usable(self, base_config,
                                                            arith_small):
        engine = ParallelEvaluator()
        engine.close()
        engine.close()
        measurement = engine.measure(arith_small, base_config)
        engine.close()
        assert measurement == LiquidPlatform().measure(arith_small, base_config)

    def test_scripts_and_benchmarks_context_manage_every_evaluator(self):
        """Every ParallelEvaluator in scripts/ and benchmarks/ is a `with` item.

        The evaluator holds nothing to release today, but its lifecycle
        is part of the backend contract; this source-level guard fails
        when a new script or benchmark constructs an evaluator outside a
        ``with`` statement (or the ``managed_backend`` helper, which
        itself uses one), so a backend that does own resources can be
        swapped in without auditing every caller.
        """
        root = pathlib.Path(__file__).resolve().parent.parent
        offenders = []
        for directory in ("scripts", "benchmarks"):
            for path in sorted((root / directory).glob("*.py")):
                tree = ast.parse(path.read_text(), filename=str(path))
                managed = set()
                for node in ast.walk(tree):
                    if isinstance(node, (ast.With, ast.AsyncWith)):
                        for item in node.items:
                            managed.add(id(item.context_expr))
                for node in ast.walk(tree):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id == "ParallelEvaluator"
                            and id(node) not in managed):
                        offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, (
            f"ParallelEvaluator constructed outside a context manager: {offenders}")


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
        engine = ParallelEvaluator()
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
        engine = ParallelEvaluator()
        engine.measure_many(workload, [base_config])
        stages = engine.stats.stage_report()
        for stage in ("trace_generation", "cache_simulation", "model_build"):
            assert stage in stages
            assert stages[stage] >= 0.0
        tuner = MicroarchTuner(engine)
        tuner.tune(workload, RUNTIME_OPTIMIZATION,
                   parameters=("dcache_sets",), verify=False)
        assert "solve" in engine.stats.stage_report()

    def test_second_batch_reuses_memoised_results(self, base_config, arith_small):
        engine = ParallelEvaluator()
        engine.measure_many(arith_small, [base_config])
        before = engine.stats.cache_simulations
        engine.measure_many(arith_small, [base_config])
        assert engine.stats.cache_simulations == before
