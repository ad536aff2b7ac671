"""Bit-identity of the cross-config and JIT replay lanes.

The round-3 kernel lanes must be indistinguishable from the scalar
reference loop (``Cache.simulate(vectorized=False)``) in every
observable: hit/miss statistics field for field, the final tag/age/FIFO
state of every configuration in a merged batch, the replay tick, and the
position of each configuration's seeded RANDOM victim stream.  The
hypothesis suites below drive the shared randomized geometries/traces
from ``conftest`` through:

* :func:`~repro.microarch.cachekernel.replay_many_associative` -- the
  rank-synchronous cross-config lane, on mixed-geometry batches;
* the JIT event loop (:func:`~repro.microarch.cachekernel._replay_events_loop`)
  run as plain Python, which pins the lane's semantics on hosts without
  Numba -- CI runs the same tests with Numba installed, where the
  identical function object is what gets compiled;
* :func:`~repro.microarch.cachekernel.simulate_many` under every lane
  selection, including the ``REPRO_KERNEL_LANE`` environment knob.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import SET_ASSOCIATIVE_WAYS, to_arrays, trace_strategy

from repro.config import Replacement
from repro.engine import ParallelEvaluator
from repro.errors import ConfigurationError
from repro.microarch import cachekernel
from repro.microarch.cache import Cache, CacheConfig
from repro.microarch.cachekernel import (
    DEFAULT_LANE,
    KERNEL_LANE_ENV,
    LANE_CROSSCONFIG,
    LANE_JIT,
    LANE_NUMPY,
    decode_trace,
    jit_available,
    kernel_lane,
    replay,
    replay_many_associative,
    simulate_many,
)
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload


def config_batch_strategy(min_size=2, max_size=5, ways=SET_ASSOCIATIVE_WAYS,
                          replacements=Replacement.ALL):
    """Mixed-geometry batches sharing one line size (the grouping invariant).

    Way counts, way sizes and replacement policies vary freely within a
    batch -- exactly the shape :func:`replay_many_associative` merges --
    while the line size is drawn once because a decoded view is a
    property of the line size.  ``replacements`` restricts the policies
    (a single one gives the homogeneous groups the kernel special-cases).
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


def scalar_oracle(config, addresses, writes):
    """The forced scalar loop: statistics plus the full final cache."""
    cache = Cache(config)
    stats = cache.simulate(addresses, writes, vectorized=False)
    return stats, cache


def assert_state_matches_oracle(state, cache):
    """A merged-replay ``KernelState`` must equal the oracle cache bit for bit."""
    np.testing.assert_array_equal(state.tags, cache._tags)
    np.testing.assert_array_equal(state.age, cache._age)
    np.testing.assert_array_equal(state.fifo, cache._fifo)
    assert state.tick == cache._tick
    assert state.rng.bit_generator.state == cache._rng.bit_generator.state


class _plain_jit_loop:
    """Context manager forcing the JIT lane to run the plain-Python loop.

    Hosts without Numba resolve ``lane="jit"`` to the default lane; the
    tests instead install :func:`cachekernel._replay_events_loop` as the
    "compiled" loop so the full JIT dispatch path runs everywhere.  When
    Numba *is* available (the CI leg) the real compiled loop is left in
    place -- same function, compiled.
    """

    def __enter__(self):
        self._saved = cachekernel._JIT_LOOP
        if not jit_available():
            cachekernel._JIT_LOOP = cachekernel._replay_events_loop
        return self

    def __exit__(self, *exc_info):
        cachekernel._JIT_LOOP = self._saved


# -- cross-config merged replay ----------------------------------------------------------

@given(configs=config_batch_strategy(), trace=trace_strategy())
@settings(max_examples=40, deadline=None)
def test_crossconfig_batch_matches_scalar_oracle(configs, trace):
    """Merged stats AND every unpadded final state equal the scalar loop's."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)

    stats, states = replay_many_associative(view, configs)

    assert len(stats) == len(states) == len(configs)
    for config, stat, state in zip(configs, stats, states):
        ref_stats, ref_cache = scalar_oracle(config, addresses, writes)
        assert stat == ref_stats
        assert_state_matches_oracle(state, ref_cache)


@given(configs=config_batch_strategy(min_size=2, max_size=4),
       trace=trace_strategy(max_size=200))
@settings(max_examples=25, deadline=None)
def test_crossconfig_hybrid_phases_each_match_oracle(configs, trace):
    """Both halves of the hybrid loop are the same machine.

    The merged replay runs a vectorized rank loop while ranks are wide
    and serializes the narrow tail.  Pinning the switch point to its
    extremes forces each phase to replay the *whole* stream -- tiny
    hypothesis traces would otherwise mostly exercise the tail -- and
    both must agree with the scalar oracle bit for bit.
    """
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)
    saved = cachekernel._TAIL_SWITCH
    results = []
    try:
        for switch in (0, 1 << 30):
            cachekernel._TAIL_SWITCH = switch
            results.append(replay_many_associative(view, configs))
    finally:
        cachekernel._TAIL_SWITCH = saved
    for stats, states in results:
        for config, stat, state in zip(configs, stats, states):
            ref_stats, ref_cache = scalar_oracle(config, addresses, writes)
            assert stat == ref_stats
            assert_state_matches_oracle(state, ref_cache)


@given(configs=config_batch_strategy(min_size=2, max_size=4),
       trace=trace_strategy(max_size=200))
@settings(max_examples=25, deadline=None)
def test_crossconfig_batch_matches_per_config_replay(configs, trace):
    """The merged loop and N independent replay() calls are interchangeable."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)

    merged_stats, merged_states = replay_many_associative(view, configs)
    for config, stat, state in zip(configs, merged_stats, merged_states):
        solo_state = cachekernel.fresh_state(config)
        solo_stat = replay(view, config, state=solo_state, lane=LANE_NUMPY)
        assert stat == solo_stat
        np.testing.assert_array_equal(state.tags, solo_state.tags)
        np.testing.assert_array_equal(state.age, solo_state.age)
        np.testing.assert_array_equal(state.fifo, solo_state.fifo)
        assert state.tick == solo_state.tick
        assert (state.rng.bit_generator.state
                == solo_state.rng.bit_generator.state)


@given(configs=config_batch_strategy(min_size=1, max_size=5,
                                     replacements=[Replacement.LRU]),
       seed=st.integers(0, 2**32 - 1),
       length=st.integers(200, 2500),
       words=st.sampled_from([1 << 9, 1 << 11, 1 << 13]),
       switch=st.sampled_from([2, 8, cachekernel._TAIL_SWITCH]))
@settings(max_examples=30, deadline=None)
def test_all_lru_batch_matches_per_config_replay(configs, seed, length, words, switch):
    """Homogeneous-LRU groups take the kernel's lean path through both loop halves.

    Long traces over a wide address range fill sets during the
    vectorized ranks and keep missing into them in the serial tail, so
    the tail must see every fill the lean path made: a set it took for
    cold would overwrite a valid way instead of evicting the LRU line.
    """
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, words, size=length) * 4
    writes = rng.random(length) < 0.3
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)
    saved = cachekernel._TAIL_SWITCH
    try:
        cachekernel._TAIL_SWITCH = switch
        merged_stats, merged_states = replay_many_associative(view, configs)
    finally:
        cachekernel._TAIL_SWITCH = saved
    for config, stat, state in zip(configs, merged_stats, merged_states):
        solo_state = cachekernel.fresh_state(config)
        assert stat == replay(view, config, state=solo_state, lane=LANE_NUMPY)
        np.testing.assert_array_equal(state.tags, solo_state.tags)
        np.testing.assert_array_equal(state.age, solo_state.age)


def test_crossconfig_rejects_direct_mapped_and_mismatched_linesize():
    view = decode_trace(np.asarray([0, 4, 8], dtype=np.int64), linesize_bytes=16)
    with pytest.raises(ConfigurationError):
        replay_many_associative(view, [CacheConfig(ways=1, setsize_kb=1,
                                                   linesize_words=4)])
    with pytest.raises(ConfigurationError):
        replay_many_associative(view, [CacheConfig(ways=2, setsize_kb=1,
                                                   linesize_words=8)])


def test_crossconfig_empty_trace_yields_cold_states():
    view = decode_trace(np.asarray([], dtype=np.int64), linesize_bytes=16)
    configs = [CacheConfig(ways=2, setsize_kb=1, linesize_words=4),
               CacheConfig(ways=4, setsize_kb=2, linesize_words=4,
                           replacement=Replacement.LRU)]
    stats, states = replay_many_associative(view, configs)
    for config, stat, state in zip(configs, stats, states):
        assert stat.accesses == 0 and stat.misses == 0
        assert (state.tags == -1).all()
        assert state.tick == 0


# -- lane selection and equivalence ------------------------------------------------------

@given(configs=config_batch_strategy(min_size=2, max_size=4,
                                     ways=(1,) + SET_ASSOCIATIVE_WAYS),
       trace=trace_strategy(max_size=250))
@settings(max_examples=25, deadline=None)
def test_simulate_many_identical_across_all_lanes(configs, trace):
    """numpy, crossconfig and jit lanes agree on mixed direct/associative batches."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)

    reference = simulate_many(view, configs, lane=LANE_NUMPY)
    assert simulate_many(view, configs, lane=LANE_CROSSCONFIG) == reference
    with _plain_jit_loop():
        assert simulate_many(view, configs, lane=LANE_JIT) == reference


@given(configs=config_batch_strategy(min_size=2, max_size=3),
       trace=trace_strategy(max_size=200))
@settings(max_examples=20, deadline=None)
def test_jit_event_loop_matches_scalar_oracle(configs, trace):
    """The (Numba-compilable) event loop is bit-identical, state included."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)
    with _plain_jit_loop():
        for config in configs:
            state = cachekernel.fresh_state(config)
            stats = replay(view, config, state=state, lane=LANE_JIT)
            ref_stats, ref_cache = scalar_oracle(config, addresses, writes)
            assert stats == ref_stats
            assert_state_matches_oracle(state, ref_cache)


class TestKernelLaneResolution:
    def test_default_lane_is_crossconfig(self, monkeypatch):
        monkeypatch.delenv(KERNEL_LANE_ENV, raising=False)
        assert kernel_lane() == LANE_CROSSCONFIG == DEFAULT_LANE

    def test_environment_selects_lane(self, monkeypatch):
        monkeypatch.setenv(KERNEL_LANE_ENV, "numpy")
        assert kernel_lane() == LANE_NUMPY

    def test_argument_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_LANE_ENV, "numpy")
        assert kernel_lane(LANE_CROSSCONFIG) == LANE_CROSSCONFIG

    def test_case_and_whitespace_insensitive(self, monkeypatch):
        monkeypatch.delenv(KERNEL_LANE_ENV, raising=False)
        assert kernel_lane(" NumPy ") == LANE_NUMPY

    def test_numba_is_an_alias_for_jit(self):
        with _plain_jit_loop():
            assert kernel_lane("numba") == LANE_JIT
            assert kernel_lane("jit") == LANE_JIT

    def test_unknown_lane_raises(self):
        with pytest.raises(ConfigurationError):
            kernel_lane("vulkan")

    def test_jit_falls_back_to_default_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(cachekernel, "_JIT_LOOP", False)
        assert not jit_available()
        assert kernel_lane(LANE_JIT) == DEFAULT_LANE

    def test_jit_resolves_when_available(self):
        with _plain_jit_loop():
            assert jit_available()
            assert kernel_lane(LANE_JIT) == LANE_JIT

    def test_environment_drives_simulate_many(self, monkeypatch):
        """The env knob reaches the dispatch itself, not just the resolver."""
        addresses = np.arange(0, 4096, 16, dtype=np.int64)
        view = decode_trace(addresses, linesize_bytes=16)
        configs = [CacheConfig(ways=2, setsize_kb=1, linesize_words=4),
                   CacheConfig(ways=4, setsize_kb=1, linesize_words=4,
                               replacement=Replacement.LRU)]
        monkeypatch.setenv(KERNEL_LANE_ENV, LANE_NUMPY)
        reference = simulate_many(view, configs)
        monkeypatch.setenv(KERNEL_LANE_ENV, LANE_CROSSCONFIG)
        assert simulate_many(view, configs) == reference

    def test_kernel_lane_recorded_in_stats(self):
        from repro.config import base_configuration

        base = base_configuration()
        configs = [base.replace(dcache_sets=2, dcache_replacement=Replacement.RANDOM),
                   base.replace(dcache_sets=4, dcache_replacement=Replacement.LRU)]
        with ParallelEvaluator(LiquidPlatform()) as engine:
            engine.measure_many(ArithWorkload(iterations=120), configs)
            assert engine.stats.kernel_lane == kernel_lane()
            assert engine.stats.as_dict()["kernel_lane"] == kernel_lane()
