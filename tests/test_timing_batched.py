"""The broadcast timing model == the per-configuration oracle, bit for bit.

Every measurement is timed by :func:`repro.microarch.timing.evaluate_many`,
which factors a configuration grid into one trace feature vector
broadcast over compiled configuration columns, and every batch reaches it
through ``LiquidPlatform.measure_many``.
Its contract is bit-identity with the unmemoised per-configuration oracle
in ``reference_timing.py``: every row of its term table -- the full
cycle breakdown and the window-trap counts, whose breakdown sums to the
cycles -- and whole :class:`Measurement` records (resource reports and
seeded cache statistics included) must match, over hypothesis-generated
configuration grids and all four paper workloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import config_grid_strategy, window_events_strategy
from reference_timing import (
    cache_statistics,
    count_window_traps_reference,
    evaluate_reference,
    reference_measurements,
)
from repro.config import (
    CACHE_LINE_SIZES_WORDS,
    REGISTER_WINDOW_COUNTS,
    Replacement,
    base_configuration,
)
from repro.config.leon_space import Divider, Multiplier
from repro.microarch.timing import (
    BREAKDOWN_CATEGORIES,
    TIMING_COLUMNS,
    TimingParameters,
    count_window_traps,
    evaluate_many,
    window_trap_table,
)
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload


def sweep_grid(base):
    """A deterministic grid covering every timing-relevant parameter."""
    return [
        base,
        base,  # duplicate: sweeps must collapse it like measure_many does
        base.replace(dcache_sets=2, dcache_setsize_kb=8,
                     dcache_replacement=Replacement.LRU),
        base.replace(dcache_sets=2, dcache_replacement=Replacement.LRR,
                     dcache_linesize_words=4),
        base.replace(icache_sets=4, icache_setsize_kb=1,
                     icache_replacement=Replacement.LRU, icache_linesize_words=4),
        base.replace(dcache_fast_read=True, dcache_fast_write=True),
        base.replace(fast_jump=False, icc_hold=False, fast_decode=False),
        base.replace(load_delay=2, register_windows=16),
        base.replace(multiplier=Multiplier.NONE, divider=Divider.NONE),
        base.replace(multiplier=Multiplier.M32X32, register_windows=32),
    ]


# -- count_window_traps: vectorized walk vs scalar reference ----------------------------


@given(events=window_events_strategy(),
       windows=st.sampled_from((2, 3, 4, 5) + REGISTER_WINDOW_COUNTS))
@settings(max_examples=300, deadline=None)
def test_count_window_traps_matches_reference(events, windows):
    assert count_window_traps(events, windows) == \
        count_window_traps_reference(events, windows)


def test_count_window_traps_on_paper_workload_traces(small_workload_map):
    for workload in small_workload_map.values():
        events = workload.trace().window_events
        for windows in (2, 3, 8, 16, 32):
            assert count_window_traps(events, windows) == \
                count_window_traps_reference(events, windows)


def reference_trap_table(events, window_counts):
    return tuple((windows, *count_window_traps_reference(events, windows))
                 for windows in window_counts)


@given(events=window_events_strategy(),
       window_counts=st.lists(st.sampled_from((1, 2, 3, 4, 5) + REGISTER_WINDOW_COUNTS),
                              max_size=12))
@settings(max_examples=300, deadline=None)
def test_window_trap_table_matches_reference(events, window_counts):
    """One walk over the events answers every window count, in the order asked."""
    assert window_trap_table(events, window_counts) == \
        reference_trap_table(events, window_counts)
    assert window_trap_table(events, REGISTER_WINDOW_COUNTS) == \
        reference_trap_table(events, REGISTER_WINDOW_COUNTS)


def test_summary_trap_table_on_paper_workload_traces(small_workload_map):
    """The summary's trap table holds every window count of the space."""
    for workload in small_workload_map.values():
        trace = workload.trace()
        assert trace.summary().window_traps == \
            reference_trap_table(trace.window_events, REGISTER_WINDOW_COUNTS)


def test_workload_features_shared_with_trace(arith_small):
    features = arith_small.trace().summary().features
    assert features is arith_small.trace().features()  # one memo, shared
    assert features.instruction_count == arith_small.trace().instruction_count
    assert int(features.class_counts.sum()) == features.instruction_count


# -- TimingParameters: precomputed latency lookups --------------------------------------


def test_latency_lookups_match_tables_and_preserve_identity():
    p = TimingParameters()
    for multiplier in Multiplier.ALL:
        assert p.multiplier_latency(multiplier) == dict(p.multiplier_extra)[multiplier]
    for divider in Divider.ALL:
        assert p.divider_latency(divider) == dict(p.divider_extra)[divider]
    # the cached lookup dicts never leak into equality or hashing
    assert p == TimingParameters()
    assert hash(p) == hash(TimingParameters())


# -- evaluate_many vs the per-configuration reference -----------------------------------


def timed(trace, configs, pairs, parameters=None):
    """evaluate_many's term table for ``configs`` given their cache statistics."""
    return evaluate_many(trace.summary(), configs,
                         [icache.read_misses for icache, _ in pairs],
                         [dcache.read_misses for _, dcache in pairs], parameters)


def assert_row_is(row, reference):
    """One term-table row (a list of ints) equals an oracle profile."""
    assert dict(zip(TIMING_COLUMNS, row)) == {
        **reference.cycle_breakdown,
        "window_overflows": reference.window_overflows,
        "window_underflows": reference.window_underflows}
    assert sum(row[:len(BREAKDOWN_CATEGORIES)]) == reference.cycles


@given(configs=config_grid_strategy(max_size=5))
@settings(max_examples=30, deadline=None)
def test_evaluate_many_matches_reference(arith_small, configs):
    trace = arith_small.trace()
    pairs = [cache_statistics(arith_small, c) for c in configs]
    batched = timed(trace, configs, pairs)
    assert batched.shape == (len(configs), len(TIMING_COLUMNS))
    for config, pair, row in zip(configs, pairs, batched.tolist()):
        assert_row_is(row, evaluate_reference(trace, config, *pair))


def test_evaluate_many_all_workloads(small_workload_map, base_config):
    configs = sweep_grid(base_config)
    for workload in small_workload_map.values():
        trace = workload.trace()
        pairs = [cache_statistics(workload, c) for c in configs]
        for config, pair, row in zip(configs, pairs, timed(trace, configs, pairs).tolist()):
            assert_row_is(row, evaluate_reference(trace, config, *pair))


def coefficient_grid(base):
    """Every value of every column of evaluate_many's coefficient matrix."""
    values = {
        "multiplier": Multiplier.ALL,
        "divider": Divider.ALL,
        "register_windows": REGISTER_WINDOW_COUNTS,
        "icache_linesize_words": CACHE_LINE_SIZES_WORDS,
        "dcache_linesize_words": CACHE_LINE_SIZES_WORDS,
        "load_delay": (1, 2),
    }
    for name in ("dcache_fast_read", "dcache_fast_write", "fast_jump", "icc_hold",
                 "fast_decode"):
        values[name] = (False, True)
    return [base.replace(**{name: value})
            for name, options in values.items() for value in options]


def test_coefficient_matrix_covers_every_timing_value(small_workload_map, base_config):
    configs = coefficient_grid(base_config)
    platform = LiquidPlatform()
    for workload in small_workload_map.values():
        trace = workload.trace()
        pairs = [cache_statistics(workload, c) for c in configs]
        for config, pair, row in zip(configs, pairs, timed(trace, configs, pairs).tolist()):
            assert_row_is(row, evaluate_reference(trace, config, *pair))
        for result in platform.measure_many(workload, configs):
            statistics = result.statistics
            # the store encoder and Measurement equality need plain ints
            numbers = (statistics.cycles, statistics.window_overflows,
                       statistics.window_underflows, *statistics.cycle_breakdown.values())
            assert all(type(number) is int for number in numbers)
            assert tuple(statistics.cycle_breakdown) == BREAKDOWN_CATEGORIES


def test_evaluate_many_follows_timing_parameters(arith_small, base_config):
    trace = arith_small.trace()
    slow = TimingParameters(memory_latency=40, window_overflow_cost=60)
    configs = sweep_grid(base_config)
    pairs = [cache_statistics(arith_small, c) for c in configs]
    for config, pair, row in zip(configs, pairs,
                                 timed(trace, configs, pairs, slow).tolist()):
        assert_row_is(row, evaluate_reference(trace, config, *pair, slow))


def test_evaluate_many_empty_and_misaligned(arith_small):
    trace = arith_small.trace()
    assert evaluate_many(trace.summary(), [], [], []).shape == (0, len(TIMING_COLUMNS))
    with pytest.raises(ValueError):
        evaluate_many(trace.summary(), [base_configuration()], [], [])
    with pytest.raises(ValueError):
        evaluate_many(trace.summary(), [base_configuration()], [1], [1, 2])


# -- measure_many == the per-configuration oracle ----------------------------------------


def test_platform_sweep_identical_to_measure_many(small_workload_map, base_config):
    configs = sweep_grid(base_config)
    for workload in small_workload_map.values():
        assert LiquidPlatform().measure_many(workload, configs) == \
            reference_measurements(workload, configs)


def test_platform_sweep_shares_memos_with_per_config_path(arith_small, base_config):
    configs = sweep_grid(base_config)
    platform = LiquidPlatform()
    first = platform.measure(arith_small, configs[2])  # pre-warm one grid point
    runs_before = platform.effort()["runs"]
    results = platform.measure_many(arith_small, configs)
    assert results[2] == first
    distinct = len({c.key() for c in configs})
    assert platform.effort()["runs"] == runs_before + distinct - 1
    # a repeated batch is answered from the memos alone
    assert platform.measure_many(arith_small, configs) == results
    assert platform.effort()["runs"] == runs_before + distinct - 1


@given(configs=config_grid_strategy(min_size=1, max_size=6))
@settings(max_examples=15, deadline=None)
def test_platform_sweep_property_identical(arith_small, configs):
    sweep = LiquidPlatform(enforce_fit=False).measure_many(arith_small, configs)
    assert sweep == reference_measurements(arith_small, configs)


def test_engine_sweep_identical(small_workload_map, base_config):
    configs = sweep_grid(base_config)
    for workload in small_workload_map.values():
        reference = reference_measurements(workload, configs)
        engine = LiquidPlatform()
        assert engine.measure_many(workload, configs) == reference
        assert engine.stats.batches == 1
        assert engine.stats.sweep_evaluations == len(set(
            c.key() for c in configs))
        assert engine.stats.dedup_hits == len(configs) - len(set(
            c.key() for c in configs))


def test_engine_sweep_uses_store(tmp_path, base_config):
    workload = ArithWorkload(iterations=200)
    configs = sweep_grid(base_config)
    reference = reference_measurements(workload, configs)
    store_path = str(tmp_path / "sweep.sqlite")
    from repro.engine import open_store

    first = LiquidPlatform(store=open_store(store_path))
    assert first.measure_many(workload, configs) == reference
    assert first.stats.store_writes > 0
    second = LiquidPlatform(store=open_store(store_path))
    assert second.measure_many(workload, configs) == reference
    assert second.stats.store_hits == len({c.key() for c in configs})
    # the stored rows replace every replay; timing is re-evaluated
    assert second.stats.cache_simulations == 0
    assert second.stats.store_writes == 0
