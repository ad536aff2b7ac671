"""Recipe-keyed trace identity: warm stores key lookups without simulating.

A workload's trace is a pure function of its :meth:`Workload.recipe`
(program, instruction budget, simulator version), so a result store that
has seen the workload once records recipe -> fingerprint, and a later
engine over that store resolves the fingerprint without running the
functional simulator.  These tests pin that the resolved fingerprint is
the simulated one, that a fully warm tune never simulates, that a miss
simulates and checks the recorded identity, and that anything the trace
depends on moves the recipe.
"""

import sqlite3

import pytest

from repro.config import base_configuration
from repro.core import MicroarchTuner, RUNTIME_OPTIMIZATION
from repro.engine import open_store
from repro.errors import TraceIdentityError
from repro.microarch.functional import FunctionalSimulator
from repro.obs.tracer import disable_tracing, enable_tracing
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload, BlastnWorkload, DrrWorkload, FragWorkload
from repro.workloads import base as workload_base
from repro.workloads import drr_enqueue_service
from repro.workloads.phased import phase_scenarios

#: Fresh instances of the test suite's four small workloads (the session
#: fixtures cache their traces, which would hide every simulation).
SMALL = {
    "arith": lambda: ArithWorkload(iterations=200),
    "blastn": lambda: BlastnWorkload(database_length=1200, query_length=48,
                                     query_count=1),
    "drr": lambda: DrrWorkload(packet_count=150),
    "frag": lambda: FragWorkload(packet_count=4),
}


def small_suite():
    return [make() for make in SMALL.values()]


@pytest.fixture()
def simulations(monkeypatch):
    """Count every functional simulation run from here on."""
    calls = []
    run = FunctionalSimulator.run

    def counting_run(self, *args, **kwargs):
        calls.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(FunctionalSimulator, "run", counting_run)
    return calls


def tuning_summary(result):
    return (result.workload, result.configuration, result.predicted,
            result.solution.selection, result.base, result.actual)


def tune_all(apps, store):
    platform = LiquidPlatform(store=store)
    tuner = MicroarchTuner(platform)
    results = [tuner.tune(app, RUNTIME_OPTIMIZATION, verify=True) for app in apps]
    return platform.stats, [tuning_summary(result) for result in results]


def grid(count):
    base = base_configuration()
    return [base.replace(dcache_setsize_kb=size, dcache_sets=sets)
            for sets in (1, 2) for size in (1, 2, 4, 8)][:count]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_recipe_resolved_fingerprint_equals_the_simulated_one(name, simulations):
    store = open_store(None)
    cold = SMALL[name]()
    LiquidPlatform(store=store).measure_many(cold, grid(1))
    assert store.trace_fingerprint(cold.recipe()) == cold.fingerprint()

    simulations.clear()
    warm = SMALL[name]()
    engine = LiquidPlatform(store=store)
    engine.measure_many(warm, grid(1))
    assert simulations == [] and not warm.has_trace()
    assert warm.fingerprint() == cold.fingerprint()
    assert (engine.stats.recipe_hits, engine.stats.recipe_misses) == (1, 0)


@pytest.mark.parametrize("filename", ["store.sqlite", "store.db"])
def test_warm_store_tunes_without_simulating(tmp_path, filename, simulations):
    path = str(tmp_path / filename)
    store = open_store(path)
    cold_stats, cold = tune_all(small_suite(), store)
    assert cold_stats.recipe_misses == 4 and cold_stats.recipe_hits == 0
    store.close()

    simulations.clear()
    store = open_store(path)  # a new process would reopen the file
    stats, warm = tune_all(small_suite(), store)
    store.close()
    assert simulations == []
    assert warm == cold
    assert stats.recipe_hits == 4 and stats.recipe_misses == 0
    assert stats.store_hits == stats.requested - stats.dedup_hits
    assert "trace_generation" not in stats.stage_seconds
    snapshot = stats.registry.snapshot()
    assert snapshot["engine.recipe_hits"] == 4


@pytest.mark.parametrize("name", sorted(SMALL) + ["drr-phased"])
def test_warm_store_records_equal_the_cold_run(tmp_path, name, simulations):
    """A warm run over a store file encodes exactly the cold run's records
    and replays nothing; a workload with a recipe simulates nothing either
    (a phased composition has none, so it may simulate to find its
    fingerprint)."""
    make = SMALL.get(name) or (lambda: drr_enqueue_service(packet_count=60))
    path = str(tmp_path / "store.sqlite")
    configs = grid(8) + [base_configuration().replace(
        icache_sets=2, icache_replacement="lru", register_windows=16)]
    records = []
    for run in ("cold", "warm"):
        store = open_store(path)
        workload = make()
        simulations.clear()
        engine = LiquidPlatform(store=store)
        records.append([store.encode(workload, measurement)
                        for measurement in engine.measure_many(workload, configs)])
        store.close()
    assert records[0] == records[1]
    assert engine.stats.cache_simulations == 0
    assert engine.stats.store_hits == len(configs)
    if workload.recipe() is not None:
        assert simulations == []


def test_store_miss_simulates_and_matches_the_bare_platform(simulations):
    store = open_store(None)
    LiquidPlatform(store=store).measure_many(SMALL["drr"](), grid(2))

    simulations.clear()
    workload = SMALL["drr"]()
    engine = LiquidPlatform(store=store)
    configs = grid(5)
    measured = engine.measure_many(workload, configs)
    assert len(simulations) == 1
    assert engine.stats.recipe_hits == 1 and engine.stats.store_hits == 2
    assert "trace_generation" in engine.stats.stage_seconds
    reference = SMALL["drr"]()
    platform = LiquidPlatform()
    assert measured == [platform.measure(reference, config) for config in configs]
    # a fresh engine resolves through the same planning
    sweep = LiquidPlatform(store=store).measure_many(SMALL["drr"](), grid(6))
    assert sweep == [platform.measure(reference, config) for config in grid(6)]


def test_tampered_recipe_row_raises_on_a_miss(tmp_path):
    path = str(tmp_path / "store.sqlite")
    store = open_store(path)
    LiquidPlatform(store=store).measure_many(SMALL["arith"](), grid(1))
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE traces SET fingerprint = 'arith:1807:0000000000000000'")
    conn.close()

    workload = SMALL["arith"]()
    store = open_store(path)
    engine = LiquidPlatform(store=store)
    with pytest.raises(TraceIdentityError, match="recipe row"):
        engine.measure_many(workload, grid(1))
    assert engine.stats.store_writes == 0
    store.close()


def test_adopting_a_wrong_fingerprint_after_simulation_raises():
    workload = SMALL["arith"]()
    workload.trace()
    with pytest.raises(TraceIdentityError):
        workload.adopt_fingerprint("arith:1:0000000000000000")
    # the workload keeps answering with its real identity
    assert workload.fingerprint() == SMALL["arith"]().fingerprint()


def test_recipe_covers_everything_the_trace_depends_on(monkeypatch):
    reference = DrrWorkload(packet_count=150).recipe()
    assert DrrWorkload(packet_count=150).recipe() == reference
    assert DrrWorkload(packet_count=150, seed=78).recipe() != reference
    assert DrrWorkload(packet_count=150, max_instructions=10**6).recipe() != reference
    assert FragWorkload(packet_count=4, seed=1).recipe() != FragWorkload(packet_count=4).recipe()
    monkeypatch.setattr(workload_base, "SIMULATOR_VERSION",
                        workload_base.SIMULATOR_VERSION + 1)
    assert DrrWorkload(packet_count=150).recipe() != reference


def test_phased_workloads_still_simulate_with_identical_results(tmp_path, simulations):
    path = str(tmp_path / "store.sqlite")
    configs = grid(3)
    results = []
    for _ in range(2):
        store = open_store(path)
        scenarios = phase_scenarios(small=True)
        simulations.clear()
        engine = LiquidPlatform(store=store)
        results.append([engine.measure_phases(scenario, configs)
                        for scenario in scenarios.values()])
        assert all(scenario.recipe() is None for scenario in scenarios.values())
        assert engine.stats.recipe_hits == 0 and engine.stats.recipe_misses == 0
        # the composed scenario's components simulate inside the batch
        assert len(simulations) == 2
        store.close()
    assert results[0] == results[1]


def test_warm_run_opens_no_trace_generation_span():
    store = open_store(None)
    LiquidPlatform(store=store).measure_many(SMALL["frag"](), grid(2))
    tracer = enable_tracing()
    try:
        LiquidPlatform(store=store).measure_many(SMALL["frag"](), grid(2))
        assert not [r for r in tracer.records if r.name in ("trace_generation",
                                                             "functional_sim")]
        LiquidPlatform(store=store).measure_many(SMALL["frag"](), grid(3))
        [stage] = [r for r in tracer.records if r.name == "trace_generation"]
        assert stage.attrs["workload"] == "frag"
    finally:
        disable_tracing()
