"""Input-keyed trace identity: warm stores key lookups without simulating.

A workload's trace is a pure function of its constructor arguments, its
instruction budget, the simulator version and the package's code, which
:meth:`Workload.input_key` digests.  A result store that has seen the
workload once records input key -> fingerprint, and a later engine over
that store resolves the fingerprint without assembling or simulating.
A workload whose key the store lacks (a new one, or any after a source
edit) is simulated once and its key written.  These tests pin that the
resolved fingerprint is the simulated one, that a fully warm tune never
simulates or assembles, that a miss simulates and checks the recorded
identity, and that anything the trace depends on moves the input key.
"""

import inspect
import os
import pathlib
import shutil
import sqlite3
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import base_configuration
from repro.core import MicroarchTuner, RUNTIME_OPTIMIZATION
from repro.engine import open_store
from repro.errors import TraceIdentityError
from repro.microarch.functional import FunctionalSimulator
from repro.obs.tracer import disable_tracing, enable_tracing
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload, BlastnWorkload, DrrWorkload, FragWorkload
from repro.workloads import base as workload_base

from conftest import ProgramWorkload

#: Fresh instances of the test suite's four small workloads (the session
#: fixtures cache their traces, which would hide every simulation).
SMALL = {
    "arith": lambda: ArithWorkload(iterations=200),
    "blastn": lambda: BlastnWorkload(database_length=1200, query_length=48,
                                     query_count=1),
    "drr": lambda: DrrWorkload(packet_count=150),
    "frag": lambda: FragWorkload(packet_count=4),
}


WORKLOADS = (ArithWorkload, BlastnWorkload, DrrWorkload, FragWorkload)


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


@pytest.fixture()
def assemblies(monkeypatch):
    """Count every program assembly of the four workloads from here on."""
    calls = []
    for cls in WORKLOADS:
        def counting_build(self, _build=cls.build_program):
            calls.append(self)
            return _build(self)

        monkeypatch.setattr(cls, "build_program", counting_build)
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
def test_input_resolved_fingerprint_equals_the_simulated_one(name, simulations):
    store = open_store(None)
    cold = SMALL[name]()
    LiquidPlatform(store=store).measure_many(cold, grid(1))
    assert store.trace_fingerprint(cold.input_key()) == cold.fingerprint()

    simulations.clear()
    warm = SMALL[name]()
    engine = LiquidPlatform(store=store)
    engine.measure_many(warm, grid(1))
    assert simulations == [] and not warm.has_trace()
    assert warm.fingerprint() == cold.fingerprint()
    assert (engine.stats.input_hits, engine.stats.input_misses) == (1, 0)


@pytest.mark.parametrize("filename", ["store.sqlite", "store.db"])
def test_warm_store_tunes_without_simulating(tmp_path, filename, simulations, assemblies):
    """A warm tune of freshly constructed workloads neither simulates nor
    assembles a program: every fingerprint comes from an input-key row."""
    path = str(tmp_path / filename)
    store = open_store(path)
    cold_stats, cold = tune_all(small_suite(), store)
    assert cold_stats.input_misses == 4 and cold_stats.input_hits == 0
    store.close()

    simulations.clear()
    assemblies.clear()
    store = open_store(path)  # a new process would reopen the file
    tracer = enable_tracing()
    try:
        stats, warm = tune_all(small_suite(), store)
    finally:
        disable_tracing()
    store.close()
    assert simulations == [] and assemblies == []
    assert warm == cold
    assert stats.input_hits == 4 and stats.input_misses == 0
    assert stats.store_hits == stats.requested - stats.dedup_hits
    assert "trace_generation" not in stats.stage_seconds
    assert not [r for r in tracer.records if r.name == "trace_generation"]
    assert stats.record()["engine.input_hits"] == 4


@pytest.mark.parametrize("name", sorted(SMALL))
def test_warm_store_records_equal_the_cold_run(tmp_path, name, simulations):
    """A warm run over a store file encodes exactly the cold run's records
    and neither replays nor simulates anything."""
    make = SMALL[name]
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
    assert simulations == []


def forget_input_rows(path):
    """Delete a store file's input-key rows (as if a source edit had moved
    every input key), keeping its summary and cache rows."""
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("DELETE FROM traces WHERE recipe LIKE 'input:%'")
    conn.close()


def miss_after_a_hit(path, simulations):
    """Measure grid(5) of drr over a store holding grid(2): two configurations
    are store hits, three miss, and the trace is built (and, after an
    input-key hit, checked)."""
    store = open_store(path)
    simulations.clear()
    engine = LiquidPlatform(store=store)
    configs = grid(5)
    measured = engine.measure_many(SMALL["drr"](), configs)
    assert len(simulations) == 1
    assert engine.stats.store_hits == 2
    assert "trace_generation" in engine.stats.stage_seconds
    reference = SMALL["drr"]()
    platform = LiquidPlatform()
    assert measured == [platform.measure(reference, config) for config in configs]
    # a fresh engine resolves through the same planning
    sweep = LiquidPlatform(store=store).measure_many(SMALL["drr"](), grid(6))
    assert sweep == [platform.measure(reference, config) for config in grid(6)]
    store.close()
    return engine.stats


def test_store_miss_simulates_and_matches_the_bare_platform(tmp_path, simulations):
    path = str(tmp_path / "store.sqlite")
    store = open_store(path)
    LiquidPlatform(store=store).measure_many(SMALL["drr"](), grid(2))
    store.close()
    forget_input_rows(path)

    stats = miss_after_a_hit(path, simulations)
    assert stats.input_misses == 1 and stats.input_hits == 0


def test_store_miss_after_an_input_hit_simulates_and_matches_the_bare_platform(
        tmp_path, simulations):
    path = str(tmp_path / "store.sqlite")
    store = open_store(path)
    LiquidPlatform(store=store).measure_many(SMALL["drr"](), grid(2))
    store.close()

    stats = miss_after_a_hit(path, simulations)
    assert stats.input_hits == 1 and stats.input_misses == 0


def test_adopting_a_wrong_fingerprint_after_simulation_raises():
    workload = SMALL["arith"]()
    workload.trace()
    with pytest.raises(TraceIdentityError):
        workload.adopt_fingerprint("arith:1:0000000000000000")
    # the workload keeps answering with its real identity
    assert workload.fingerprint() == SMALL["arith"]().fingerprint()


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


# -- input keys: the trace named by the constructor's arguments ---------------------

#: Constructor arguments of the four workloads, in signature order, at
#: sizes that construct in about a millisecond (each strategy also draws
#: the class default, so the default form drops arguments often).
ARGUMENTS = {
    ArithWorkload: {"iterations": st.integers(1, 10_000)},
    BlastnWorkload: {"database_length": st.integers(200, 400),
                     "query_length": st.integers(10, 40),
                     "query_count": st.integers(1, 2),
                     "planted_matches": st.integers(0, 3),
                     "seed": st.integers(0, 1 << 30)},
    DrrWorkload: {"packet_count": st.integers(1, 40), "seed": st.integers(0, 1 << 30)},
    FragWorkload: {"packet_count": st.integers(1, 4),
                   "mtu": st.sampled_from([148, 276, 580]),
                   "seed": st.integers(0, 1 << 30)},
}


def _defaults(cls):
    return {name: parameter.default
            for name, parameter in inspect.signature(cls.__init__).parameters.items()
            if name in ARGUMENTS[cls]}


def _with_defaults(cls, strategies):
    defaults = _defaults(cls)
    return st.fixed_dictionaries(
        {name: st.one_of(st.just(defaults[name]), strategy)
         for name, strategy in strategies.items()}).map(lambda args: (cls, args))


INPUTS = st.one_of([_with_defaults(cls, strategies) for cls, strategies in ARGUMENTS.items()])


@settings(max_examples=40, deadline=None)
@given(INPUTS, INPUTS)
def test_equal_inputs_give_equal_keys_and_different_inputs_never_collide(first, second):
    keys = []
    for cls, args in (first, second):
        defaults = _defaults(cls)
        forms = (cls(*(args[name] for name in ARGUMENTS[cls])), cls(**args),
                 cls(**{name: value for name, value in args.items()
                        if value != defaults[name]}))
        assert len({workload.input_key() for workload in forms}) == 1
        keys.append(forms[0].input_key())
    assert (keys[0] == keys[1]) == (first == second)


def test_input_key_covers_the_budget_and_numpy(monkeypatch):
    reference = DrrWorkload(packet_count=150).input_key()
    assert DrrWorkload(150, max_instructions=10**6).input_key() != reference
    assert BlastnWorkload().input_key() == BlastnWorkload(
        seed=1990, max_instructions=5_000_000).input_key()
    monkeypatch.setattr(workload_base.np, "__version__", "0.0.0")
    assert DrrWorkload(packet_count=150).input_key() != reference
    monkeypatch.undo()
    monkeypatch.setattr(workload_base, "SIMULATOR_VERSION",
                        workload_base.SIMULATOR_VERSION + 1)
    assert DrrWorkload(packet_count=150).input_key() != reference


def test_workloads_with_objects_for_inputs_have_no_input_key(simulations):
    """Such a workload is identified by simulating it: it looks nothing up
    and writes no ``traces`` row, but its stored rows still serve it."""
    program = SMALL["arith"]().program
    assert ProgramWorkload(program).input_key() is None
    store = open_store(None)
    stats = []
    for _ in range(2):
        engine = LiquidPlatform(store=store)
        engine.measure(ProgramWorkload(program), base_configuration())
        stats.append(engine.stats)
    assert store._conn.execute("SELECT COUNT(*) FROM traces").fetchone() == (0,)
    store.close()
    assert len(simulations) == 2
    assert [(s.input_hits, s.input_misses) for s in stats] == [(0, 0), (0, 0)]
    assert stats[1].cache_simulations == 0 and stats[1].store_hits == 1
    assert "input_key" not in stats[1].stage_seconds


class OutsideArith(ArithWorkload):
    """A workload class from outside the package: its code is not in CODE_DIGEST."""


def test_workload_classes_outside_the_package_have_no_input_key():
    assert OutsideArith(iterations=200).input_key() is None
    assert ArithWorkload(iterations=200).input_key() is not None


def _run_python(code, pythonpath, **env):
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(pythonpath), **env))
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_editing_an_assembler_helper_moves_the_code_digest(tmp_path):
    copy = tmp_path / "src" / "repro"
    shutil.copytree(pathlib.Path(workload_base.__file__).parents[1], copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    probe = "from repro.workloads.base import CODE_DIGEST; print(CODE_DIGEST)"
    unedited = _run_python(probe, copy.parent)
    assembler = copy / "isa" / "assembler.py"
    source = assembler.read_text()
    assert "        if low:\n" in source
    assembler.write_text(source.replace("        if low:\n", "        if low or True:\n"))
    assert _run_python(probe, copy.parent) != unedited


def test_input_keys_do_not_depend_on_the_hash_seed():
    """The same constructors give the same input keys in processes with
    different string hashing."""
    probe = ("from repro.workloads import ArithWorkload, BlastnWorkload, DrrWorkload, "
             "FragWorkload\n"
             "print(ArithWorkload(iterations=200).input_key(), BlastnWorkload("
             "database_length=1200, query_length=48, query_count=1).input_key(), "
             "DrrWorkload(packet_count=150).input_key(), "
             "FragWorkload(packet_count=4).input_key())")
    src = pathlib.Path(workload_base.__file__).parents[2]
    keys = {_run_python(probe, src, PYTHONHASHSEED=seed) for seed in ("0", "4242")}
    assert keys == {" ".join(workload.input_key() for workload in small_suite()) + "\n"}


def test_forged_input_row_raises_once_the_trace_is_built(tmp_path):
    path = str(tmp_path / "store.sqlite")
    store = open_store(path)
    LiquidPlatform(store=store).measure_many(SMALL["drr"](), grid(1))
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE traces SET fingerprint = 'drr:1:0000000000000000'"
                     " WHERE recipe LIKE 'input:%'")
    conn.close()

    store = open_store(path)
    engine = LiquidPlatform(store=store)
    with pytest.raises(TraceIdentityError, match="input-key row"):
        engine.measure_many(SMALL["drr"](), grid(1))
    assert engine.stats.input_hits == 1 and engine.stats.store_writes == 0
    store.close()


def traces_rows(path):
    conn = sqlite3.connect(path)
    rows = dict(conn.execute("SELECT recipe, fingerprint FROM traces"))
    conn.close()
    return rows


def test_a_store_without_input_rows_writes_them_once(tmp_path, simulations):
    """A store written before input keys named traces holds only rows of an
    older identity, here one naming a wrong trace: nothing reads them.  The
    first run simulates once, replays nothing and writes the input row (its
    one store write); the next run simulates nothing and writes nothing.  The ``input_key`` stage says whether
    a row answered."""
    path = str(tmp_path / "store.sqlite")
    store = open_store(path)
    LiquidPlatform(store=store).measure_many(SMALL["frag"](), grid(2))
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("DELETE FROM traces")
        conn.execute("INSERT INTO traces (recipe, fingerprint)"
                     " VALUES ('0123abcd', 'frag:1:0000000000000000')")
    conn.close()

    store = open_store(path)
    tracer = enable_tracing()
    try:
        runs = []
        for _ in range(2):
            simulations.clear()
            engine = LiquidPlatform(store=store)
            engine.measure_many(SMALL["frag"](), grid(2))
            stats = engine.stats
            runs.append((len(simulations), stats.input_hits, stats.input_misses,
                         stats.store_writes, stats.cache_simulations, stats.store_hits))
        stages = [(r.attrs["workload"], r.attrs["hit"])
                  for r in tracer.records if r.name == "input_key"]
    finally:
        disable_tracing()
        store.close()
    assert runs == [(1, 0, 1, 1, 0, 2), (0, 1, 0, 0, 0, 2)]
    assert stages == [("frag", False), ("frag", True)]
    assert "input_key" in engine.stats.stage_seconds
    rows = traces_rows(path)
    assert len(rows) == 2 and rows.pop("0123abcd") == "frag:1:0000000000000000"
    assert rows == {SMALL["frag"]().input_key(): SMALL["frag"]().fingerprint()}


def test_a_warm_store_after_a_source_edit_simulates_each_workload_once(
        tmp_path, monkeypatch, simulations, assemblies):
    """A source edit moves every input key, so the first warm run misses each
    key, simulates each workload once, replays nothing, writes the new
    input rows and measures exactly what the bare platform measures; the
    run after it simulates nothing."""
    path = str(tmp_path / "store.sqlite")
    configs = grid(4)
    store = open_store(path)
    for workload in small_suite():
        LiquidPlatform(store=store).measure_many(workload, configs)
    store.close()
    old_keys = set(traces_rows(path))

    monkeypatch.setattr(workload_base, "CODE_DIGEST", "edited")

    def warm_run():
        simulations.clear()
        assemblies.clear()
        store = open_store(path)
        engine = LiquidPlatform(store=store)
        measured = [engine.measure_many(app, configs) for app in small_suite()]
        store.close()
        return engine.stats, measured

    stats, measured = warm_run()
    assert (len(simulations), len(assemblies)) == (4, 4)
    assert (stats.input_misses, stats.input_hits) == (4, 0)
    # the only rows written are the four new input-key rows
    assert stats.cache_simulations == 0 and stats.store_writes == 4
    assert stats.store_hits == 4 * len(configs)
    bare = LiquidPlatform()
    assert measured == [bare.measure_many(app, configs) for app in small_suite()]
    new_keys = set(traces_rows(path)) - old_keys
    assert new_keys == {app.input_key() for app in small_suite()}

    stats, _ = warm_run()
    assert simulations == [] and assemblies == []
    assert (stats.input_hits, stats.input_misses) == (4, 0)
    assert stats.cache_simulations == 0


def test_audit_counts_a_forged_input_row_and_survives_a_source_edit(
        tmp_path, monkeypatch):
    """The audit names each trace by simulating it: an input-key row naming
    another trace is one mismatch, and after a source edit moves every
    input key the audit still finds and checks the rows."""
    path = str(tmp_path / "store.sqlite")
    store = open_store(path)
    engine = LiquidPlatform(store=store)
    engine.measure_many(SMALL["drr"](), grid(3))
    rows = engine.stats.cache_simulations + 1  # and the summary
    assert store.audit([SMALL["drr"]()], 1.0) == (rows, 0)
    store._conn.execute("UPDATE traces SET fingerprint = 'drr:1:0000000000000000'")
    store._conn.commit()
    assert store.audit([SMALL["drr"]()], 1.0) == (rows, 1)
    # an audit of the other workloads finds no rows and no forged row
    assert store.audit([SMALL["arith"](), SMALL["frag"]()], 1.0) == (0, 0)

    monkeypatch.setattr(workload_base, "CODE_DIGEST", "edited")
    assert store.audit([SMALL["drr"]()], 1.0) == (rows, 0)
    store.close()
