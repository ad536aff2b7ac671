"""Warm phase-chained replay: bit-identical to single-shot replay.

The hard guarantee of :func:`~repro.microarch.cachekernel.replay_chain`
is that cutting a trace into phases and replaying them against one
continuously-warm cache changes *nothing* observable: the per-phase
statistics match the per-access oracle fed phase by phase against one
state (the warm oracle), their totals match the single-shot replay of
the concatenated trace, and the final tag/age/FIFO state and the seeded
RANDOM victim stream are identical -- for every associativity (1..4 ways), every
replacement policy and arbitrary mixed read/write traces with arbitrary
cut points (including empty phases and cuts through same-line runs).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import (
    ALL_WAYS,
    assert_states_equal,
    geometry_strategy,
    to_arrays,
    trace_strategy,
)
from reference_replay import cold_state, simulate_accesses

from repro.config import Replacement
from repro.errors import ConfigurationError
from repro.microarch.cache import CacheConfig
from repro.microarch.cachekernel import (
    decode_trace,
    fresh_state,
    replay,
    replay_chain,
    replay_phases,
    simulate_many,
)

any_geometry = geometry_strategy(ways=ALL_WAYS)


@st.composite
def phased_trace(draw, max_cuts=4):
    """A mixed read/write trace plus arbitrary phase bounds over it.

    Cut points are unconstrained: phases may be empty, and cuts land in
    the middle of same-line runs (the case the chain algebra must keep
    exact).
    """
    trace = draw(trace_strategy(max_size=300))
    n = len(trace)
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=0, max_size=max_cuts)))
    bounds = [0, *cuts, n]
    return trace, bounds


def phase_views(addresses, writes, bounds, linesize_bytes):
    return [
        decode_trace(addresses[lo:hi], writes[lo:hi], linesize_bytes=linesize_bytes)
        for lo, hi in zip(bounds, bounds[1:])
    ]


def warm_oracle(config, addresses, writes, bounds):
    """The per-access oracle fed phase by phase against one state."""
    state = cold_state(config)
    stats = [simulate_accesses(config, addresses[lo:hi], writes[lo:hi], state)
             for lo, hi in zip(bounds, bounds[1:])]
    return stats, state


@given(geometry=any_geometry, phased=phased_trace())
@settings(max_examples=120, deadline=None)
def test_replay_chain_matches_scalar_warm_oracle(geometry, phased):
    """Chained kernel replay == a scalar cache fed the phases in sequence."""
    config = CacheConfig(**geometry)
    trace, bounds = phased
    addresses, writes = to_arrays(trace)

    views = phase_views(addresses, writes, bounds, config.linesize_bytes)
    chain_stats, state = replay_chain(views, config)

    oracle_stats, oracle_state = warm_oracle(config, addresses, writes, bounds)

    assert chain_stats == oracle_stats  # per-phase, field for field
    assert_states_equal(state, oracle_state)


@given(geometry=any_geometry, phased=phased_trace())
@settings(max_examples=120, deadline=None)
def test_replay_chain_bit_identical_to_concatenated_single_shot(geometry, phased):
    """The chain's totals and final state == one replay of the whole trace."""
    config = CacheConfig(**geometry)
    trace, bounds = phased
    addresses, writes = to_arrays(trace)

    views = phase_views(addresses, writes, bounds, config.linesize_bytes)
    chain_stats, state = replay_chain(views, config)

    single_state = fresh_state(config)
    single = replay(
        decode_trace(addresses, writes, linesize_bytes=config.linesize_bytes),
        config, state=single_state)

    assert sum(s.accesses for s in chain_stats) == single.accesses
    assert sum(s.read_accesses for s in chain_stats) == single.read_accesses
    assert sum(s.write_accesses for s in chain_stats) == single.write_accesses
    assert sum(s.read_misses for s in chain_stats) == single.read_misses
    assert sum(s.write_misses for s in chain_stats) == single.write_misses
    np.testing.assert_array_equal(state.tags, single_state.tags)
    np.testing.assert_array_equal(state.age, single_state.age)
    np.testing.assert_array_equal(state.fifo, single_state.fifo)
    assert state.tick == single_state.tick
    # the seeded RANDOM victim stream advanced to the same position
    assert state.rng.bit_generator.state == single_state.rng.bit_generator.state


@given(geometry=any_geometry, phased=phased_trace(max_cuts=3))
@settings(max_examples=60, deadline=None)
def test_replay_chain_state_extends_across_calls(geometry, phased):
    """Passing the returned state back in continues the same chain."""
    config = CacheConfig(**geometry)
    trace, bounds = phased
    addresses, writes = to_arrays(trace)
    views = phase_views(addresses, writes, bounds, config.linesize_bytes)

    one_call, one_state = replay_chain(views, config)

    split = len(views) // 2
    first, state = replay_chain(views[:split], config)
    second, state = replay_chain(views[split:], config, state=state)

    assert first + second == one_call
    np.testing.assert_array_equal(state.tags, one_state.tags)
    np.testing.assert_array_equal(state.age, one_state.age)
    assert state.tick == one_state.tick
    assert state.rng.bit_generator.state == one_state.rng.bit_generator.state


@given(geometry=any_geometry, phased=phased_trace(max_cuts=3))
@settings(max_examples=60, deadline=None)
def test_replay_phases_cold_equals_fresh_per_phase_replays(geometry, phased):
    """PhaseReplay.cold restarts each phase; .warm is the chain; totals agree."""
    config = CacheConfig(**geometry)
    trace, bounds = phased
    addresses, writes = to_arrays(trace)
    views = phase_views(addresses, writes, bounds, config.linesize_bytes)

    result = replay_phases(views, config)
    assert list(result.warm) == replay_chain(views, config)[0]
    assert list(result.cold) == [replay(view, config) for view in views]

    single = simulate_many(
        decode_trace(addresses, writes, linesize_bytes=config.linesize_bytes),
        [config])[0]
    assert result.warm_total() == single


def test_replay_chain_rejects_mismatched_linesize_views():
    config = CacheConfig(ways=2, setsize_kb=1, linesize_words=8)
    good = decode_trace(np.asarray([0, 64], dtype=np.int64), linesize_bytes=32)
    bad = decode_trace(np.asarray([0, 64], dtype=np.int64), linesize_bytes=16)
    with pytest.raises(ConfigurationError):
        replay_chain([good, bad], config)


def test_replay_chain_of_zero_phases_returns_cold_state():
    config = CacheConfig(ways=2, setsize_kb=1, linesize_words=4)
    stats, state = replay_chain([], config)
    assert stats == []
    assert state.tick == 0
    assert (state.tags == -1).all()


@pytest.mark.parametrize("replacement", sorted(Replacement.ALL))
def test_empty_phases_do_not_disturb_the_chain(replacement):
    """Empty phases replay to zero statistics and leave state untouched."""
    config = CacheConfig(ways=2, setsize_kb=1, linesize_words=4,
                         replacement=replacement)
    addresses = np.asarray([0, 1024, 0, 2048], dtype=np.int64)
    writes = np.zeros(4, dtype=bool)
    empty = decode_trace(
        np.empty(0, dtype=np.int64), linesize_bytes=config.linesize_bytes)
    full = decode_trace(addresses, writes, linesize_bytes=config.linesize_bytes)

    chain_stats, state = replay_chain([empty, full, empty], config)
    assert chain_stats[0].accesses == 0 and chain_stats[2].accesses == 0

    single_state = fresh_state(config)
    single = replay(full, config, state=single_state)
    assert chain_stats[1] == single
    assert_states_equal(state, single_state)


@pytest.mark.parametrize("geometry", [
    dict(ways=1, setsize_kb=1, linesize_words=4, replacement=Replacement.RANDOM),
    dict(ways=2, setsize_kb=1, linesize_words=8, replacement=Replacement.LRR),
    dict(ways=4, setsize_kb=1, linesize_words=8, replacement=Replacement.LRU),
    dict(ways=3, setsize_kb=2, linesize_words=4, replacement=Replacement.RANDOM),
])
def test_chain_matches_warm_oracle_on_paper_workload_traces(small_workload_map,
                                                           geometry):
    """Acceptance bar: warm chains of the real workload traces are exact.

    Each workload's data stream is cut into thirds (cutting straight
    through its loop structure) and chained; the scalar warm oracle must
    agree phase for phase, and the totals must equal the one-shot run.
    """
    config = CacheConfig(**geometry)
    for name, workload in small_workload_map.items():
        trace = workload.trace()
        addresses = trace.data_addresses
        writes = trace.data_is_write
        n = len(addresses)
        bounds = [0, n // 3, 2 * n // 3, n]

        views = phase_views(addresses, writes, bounds, config.linesize_bytes)
        chain_stats, state = replay_chain(views, config)

        oracle_stats, oracle_state = warm_oracle(config, addresses, writes, bounds)
        assert chain_stats == oracle_stats, f"chain diverged on {name}"
        assert_states_equal(state, oracle_state)

        single = replay(workload.columnar_view("dcache", config.linesize_bytes),
                        config)
        assert sum(s.misses for s in chain_stats) == single.misses, name


@given(geometry=geometry_strategy(ways=(2, 3, 4)), phased=phased_trace())
@settings(max_examples=40, deadline=None)
def test_warm_chain_after_batch_replay_matches_scalar_oracle(geometry, phased):
    """A batch replay shares one cold victim draw per (seed, ways) across
    its RANDOM configurations; the generators of later stateful replays
    must not notice.  A warm chain run after a batch over the same views
    still equals the scalar warm oracle, RANDOM stream position included."""
    config = CacheConfig(**geometry)
    trace, bounds = phased
    addresses, writes = to_arrays(trace)
    views = phase_views(addresses, writes, bounds, config.linesize_bytes)
    batch = [config, CacheConfig(**{**geometry, "setsize_kb": 1}),
             CacheConfig(**{**geometry, "replacement": Replacement.LRU})]
    for view in views:
        simulate_many(view, batch)

    chain_stats, state = replay_chain(views, config)

    oracle_stats, oracle_state = warm_oracle(config, addresses, writes, bounds)
    assert chain_stats == oracle_stats
    assert_states_equal(state, oracle_state)
    for view in views:
        assert simulate_many(view, batch) == [replay(view, c) for c in batch]
