"""Differential suite: the compiled replay loop against both oracles.

Every replay runs through one compiled C loop
(:mod:`repro.microarch.native`).  It must be indistinguishable from

* the scalar per-access loop, ``reference_replay.simulate_accesses``, and
* the per-event Python loop it was ported from
  (``reference_replay.replay_events_loop``),

in its statistics, field for field, with each configuration's seeded
RANDOM victim stream; the two oracles must also agree on the final
tag/age/FIFO state, the replay tick and the stream position.  The
hypothesis suites cover ways 1-4 under LRU, LRR and RANDOM, batches that
mix set counts, and degenerate (empty, write-only, single-event) traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import ALL_WAYS, assert_states_equal, to_arrays, trace_strategy
from reference_replay import cold_state, reference_replay, simulate_accesses

from repro.config import Replacement
from repro.errors import ConfigurationError
from repro.microarch.cache import CacheConfig
from repro.microarch.cachekernel import decode_trace, simulate_many


def config_batch_strategy(min_size=2, max_size=6, ways=ALL_WAYS,
                          replacements=Replacement.ALL):
    """Mixed-geometry batches sharing one line size (the grouping invariant).

    Way counts, way sizes (so set counts) and replacement policies vary
    freely within a batch, while the line size is drawn once because a
    decoded view is a property of the line size.
    """
    geometry = st.fixed_dictionaries({
        "ways": st.sampled_from(list(ways)),
        "setsize_kb": st.sampled_from([1, 2, 4]),
        "replacement": st.sampled_from(sorted(replacements)),
    })
    return st.tuples(
        st.sampled_from([4, 8]),
        st.lists(geometry, min_size=min_size, max_size=max_size),
    ).map(lambda drawn: [
        CacheConfig(linesize_words=drawn[0], **g) for g in drawn[1]])


def assert_matches_both_oracles(config, addresses, writes):
    """Compiled replay == event-loop oracle == scalar oracle; the oracles'
    final states agree."""
    view = decode_trace(addresses, writes, linesize_bytes=config.linesize_bytes)
    compiled = simulate_many(view, [config])[0]
    python_state = cold_state(config)
    python = reference_replay(addresses, writes, config, python_state)
    scalar_state = cold_state(config)
    scalar = simulate_accesses(config, addresses, writes, scalar_state)
    assert compiled == python == scalar
    assert_states_equal(python_state, scalar_state)


# -- single geometries against both oracles ----------------------------------------------

@given(configs=config_batch_strategy(min_size=1, max_size=3),
       trace=trace_strategy())
@settings(max_examples=60, deadline=None)
def test_compiled_loop_matches_both_oracles(configs, trace):
    addresses, writes = to_arrays(trace)
    for config in configs:
        assert_matches_both_oracles(config, addresses, writes)


@pytest.mark.parametrize("ways", ALL_WAYS)
@pytest.mark.parametrize("replacement", sorted(Replacement.ALL))
@pytest.mark.parametrize("trace", [
    [],
    [(0, False)],
    [(0, True)],
    [(a, True) for a in range(0, 4096, 4)],
    [(8, False)] * 5 + [(8, True)] * 3,
], ids=["empty", "single-read", "single-write", "write-only", "single-line-run"])
def test_degenerate_traces_match_both_oracles(ways, replacement, trace):
    config = CacheConfig(ways=ways, setsize_kb=1, linesize_words=4,
                         replacement=replacement)
    assert_matches_both_oracles(config, *to_arrays(trace))


# -- batches -----------------------------------------------------------------------------

@given(configs=config_batch_strategy(), trace=trace_strategy())
@settings(max_examples=40, deadline=None)
def test_crossconfig_batch_matches_scalar_oracle(configs, trace):
    """A mixed batch (set counts, ways, policies) equals the scalar loop."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)
    assert simulate_many(view, configs) == [
        simulate_accesses(config, addresses, writes) for config in configs]


@given(configs=config_batch_strategy(min_size=2, max_size=5),
       trace=trace_strategy(max_size=200))
@settings(max_examples=25, deadline=None)
def test_crossconfig_batch_matches_per_config_replay(configs, trace):
    """The batch (shared cold victim draws, no generators) and N event-loop
    oracle replays (each drawing from its own generator) agree."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)
    assert simulate_many(view, configs) == [
        reference_replay(addresses, writes, c, cold_state(c)) for c in configs]


@given(configs=config_batch_strategy(min_size=1, max_size=5,
                                     replacements=[Replacement.LRU]),
       seed=st.integers(0, 2**32 - 1),
       length=st.integers(200, 2500),
       words=st.sampled_from([1 << 9, 1 << 11, 1 << 13]))
@settings(max_examples=30, deadline=None)
def test_all_lru_batch_matches_per_config_replay(configs, seed, length, words):
    """Long traces over a wide address range fill every set and keep
    evicting from it, so LRU victim choice is exercised at depth."""
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, words, size=length) * 4
    writes = rng.random(length) < 0.3
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)
    batch = simulate_many(view, configs)
    for config, stat in zip(configs, batch):
        python_state, scalar_state = cold_state(config), cold_state(config)
        assert stat == reference_replay(addresses, writes, config, python_state)
        assert stat == simulate_accesses(config, addresses, writes, scalar_state)
        assert_states_equal(python_state, scalar_state)


@given(configs=config_batch_strategy(min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1),
       length=st.integers(200, 2000),
       words=st.sampled_from([1 << 9, 1 << 11]),
       run=st.sampled_from([1, 3]))
@settings(max_examples=30, deadline=None)
def test_long_traces_match_both_oracles(configs, seed, length, words, run):
    """Uniform traces that keep every set full, so each policy's victim
    choice decides most fills; ``run`` repeats accesses so chains have a
    first read well before their last access (RANDOM draws at the first)."""
    rng = np.random.default_rng(seed)
    addresses = np.repeat(rng.integers(0, words, size=length // run) * 4, run)
    writes = rng.random(len(addresses)) < 0.3
    for config in configs:
        assert_matches_both_oracles(config, addresses, writes)


def test_random_batch_shares_victim_draws_only_within_seed_and_ways():
    """Cold RANDOM configurations share one victim draw per (seed, ways):
    a batch mixing ways, set counts and seeds on a trace that evicts
    constantly must equal per-configuration oracle replays with their own
    generators."""
    rng = np.random.default_rng(7)
    addresses = np.repeat(rng.integers(0, 1 << 11, size=1500) * 4, 2)
    writes = rng.random(len(addresses)) < 0.3
    view = decode_trace(addresses, writes, linesize_bytes=16)
    configs = [CacheConfig(ways=ways, setsize_kb=size, linesize_words=4, seed=seed)
               for seed in (0xC0FFEE, 1) for ways in ALL_WAYS for size in (1, 2)]
    assert simulate_many(view, configs) == [
        reference_replay(addresses, writes, c, cold_state(c)) for c in configs]


def test_crossconfig_empty_trace_yields_cold_states():
    addresses = np.asarray([], dtype=np.int64)
    view = decode_trace(addresses, linesize_bytes=16)
    configs = [CacheConfig(ways=2, setsize_kb=1, linesize_words=4),
               CacheConfig(ways=4, setsize_kb=2, linesize_words=4,
                           replacement=Replacement.LRU)]
    assert all(s.accesses == 0 and s.misses == 0
               for s in simulate_many(view, configs))
    for config in configs:
        state = cold_state(config)
        reference_replay(addresses, None, config, state)
        assert (state.tags == -1).all()
        assert state.tick == 0


def test_set_view_of_an_eventless_trace_is_empty(arith_small):
    """Arith makes no data accesses, so its dcache views have no chains."""
    views = [arith_small.trace().columnar_view("dcache", 32),
             decode_trace(np.asarray([], dtype=np.int64), linesize_bytes=16)]
    for view in views:
        assert len(view) == 0
        for sets in (1024 // view.linesize_bytes, 256):
            assert view.set_view(sets).shape == (4, 0)


def test_batch_rejects_mismatched_linesize():
    view = decode_trace(np.asarray([0, 4, 8], dtype=np.int64), linesize_bytes=16)
    with pytest.raises(ConfigurationError):
        simulate_many(view, [CacheConfig(ways=2, setsize_kb=1, linesize_words=8)])
    with pytest.raises(ConfigurationError):
        simulate_many(view, [CacheConfig(ways=1, setsize_kb=1, linesize_words=8)])
