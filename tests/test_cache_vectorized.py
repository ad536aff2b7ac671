"""Equivalence of the columnar cache kernel with the per-access oracle.

The kernel replay in :mod:`repro.microarch.cachekernel` (the vectorized
decode plus the compiled loop) must be bit-identical to the per-access
reference loop ``reference_replay.simulate_accesses`` -- the hit/miss
statistics field for field, with the seeded RANDOM victim stream -- for
any trace (mixed reads and writes), any replacement policy and any
associativity.  Every kernel replay is also checked against the
per-event oracle ``reference_replay.reference_replay``, whose final
tag/age/FIFO state must equal the per-access oracle's.  The hypothesis
tests below drive randomized traces through the oracle whole and, for
the direct-mapped corner, one access at a time.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import (
    SET_ASSOCIATIVE_WAYS,
    assert_states_equal,
    geometry_strategy,
    to_arrays,
    trace_strategy,
)
from reference_replay import cold_state, reference_replay, simulate_accesses

from repro.config import Replacement
from repro.errors import ConfigurationError
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.microarch.cachekernel import decode_trace, simulate_many


def kernel_replay(config: CacheConfig, addresses, writes, state):
    """Decode a raw trace and replay it cold through the kernel.

    The per-event oracle replays the same view from ``state`` (a
    :func:`cold_state`), must agree on the statistics, and leaves its
    final state there.
    """
    view = decode_trace(addresses, writes, linesize_bytes=config.linesize_bytes)
    stats = simulate_many(view, [config])[0]
    assert stats == reference_replay(view, config, state)
    return stats


def event_replay(config: CacheConfig, addresses, writes, state):
    """Decode a raw trace and replay it through the per-event oracle only."""
    view = decode_trace(addresses, writes, linesize_bytes=config.linesize_bytes)
    return reference_replay(view, config, state)


def total(stats):
    """The statistics of back-to-back replays, summed field by field."""
    return CacheStatistics(*map(sum, zip(*map(astuple, stats))))


def scalar_reference(config: CacheConfig, addresses, writes):
    """Hit/miss counts fed to the oracle one access at a time (the simplest form)."""
    state = cold_state(config)
    read_misses = write_misses = 0
    for address, write in zip(addresses, writes):
        stats = simulate_accesses(config, [address], [write], state)
        read_misses += stats.read_misses
        write_misses += stats.write_misses
    return read_misses, write_misses, state.tags.copy()


# wide addresses exercise tag widths; the shared default (1 << 10) forces conflicts
geometry = geometry_strategy(ways=(1,))
traces = trace_strategy(max_address=1 << 16)


@given(geometry=geometry, trace=traces)
@settings(max_examples=60, deadline=None)
def test_direct_mapped_vectorized_matches_scalar_access_loop(geometry, trace):
    config = CacheConfig(**geometry)
    addresses, writes = to_arrays(trace)

    ref_read, ref_write, ref_tags = scalar_reference(config, addresses, writes)

    state = cold_state(config)
    stats = kernel_replay(config, addresses, writes, state)

    assert stats.read_misses == ref_read
    assert stats.write_misses == ref_write
    assert stats.accesses == len(trace)
    assert stats.write_accesses == int(writes.sum())
    np.testing.assert_array_equal(state.tags, ref_tags)


@given(geometry=geometry, trace=traces)
@settings(max_examples=30, deadline=None)
def test_direct_mapped_vectorized_matches_forced_scalar_simulate(geometry, trace):
    config = CacheConfig(**geometry)
    addresses, writes = to_arrays(trace)

    scalar_state = cold_state(config)
    scalar_stats = simulate_accesses(config, addresses, writes, scalar_state)
    event_state = cold_state(config)
    kernel_stats = kernel_replay(config, addresses, writes, event_state)

    assert kernel_stats == scalar_stats
    np.testing.assert_array_equal(event_state.tags, scalar_state.tags)


def replay_twice(simulate, config, state, trace_a, trace_b):
    """Two back-to-back replays against one state; (statistics, state)."""
    stats = [simulate(config, *to_arrays(trace), state) for trace in (trace_a, trace_b)]
    return stats, state


@given(trace_a=traces, trace_b=traces)
@settings(max_examples=25, deadline=None)
def test_vectorized_path_preserves_state_across_calls(trace_a, trace_b):
    """The kernel's replay of two traces joined equals back-to-back oracle
    replays, the second seeing the tag store left by the first."""
    config = CacheConfig(ways=1, setsize_kb=1, linesize_words=4)
    kernel_stats = kernel_replay(config, *to_arrays(trace_a + trace_b), cold_state(config))
    event_stats, event_state = replay_twice(
        event_replay, config, cold_state(config), trace_a, trace_b)
    ref_stats, ref_state = replay_twice(
        simulate_accesses, config, cold_state(config), trace_a, trace_b)
    assert event_stats == ref_stats
    assert kernel_stats == total(ref_stats)
    np.testing.assert_array_equal(event_state.tags, ref_state.tags)


def test_read_only_trace_uses_direct_mapped_path():
    """A read-only direct-mapped trace with conflicts must count eviction misses."""
    config = CacheConfig(ways=1, setsize_kb=1, linesize_words=4)
    # two lines mapping to the same index, accessed alternately: all misses
    stride = config.lines_per_way * config.linesize_bytes
    addresses = np.asarray([0, stride] * 10, dtype=np.int64)
    view = decode_trace(addresses, linesize_bytes=config.linesize_bytes)
    stats = simulate_many(view, [config])[0]
    assert stats.read_misses == 20
    assert stats.hits == 0


# -- set-associative kernel equivalence --------------------------------------------------

set_associative_geometry = geometry_strategy(ways=SET_ASSOCIATIVE_WAYS)
# the shared default address space (1 << 10) forces conflicts, evictions
# and policy decisions
mixed_traces = trace_strategy()


@given(geometry=set_associative_geometry, trace=mixed_traces)
@settings(max_examples=120, deadline=None)
def test_set_associative_kernel_matches_scalar_reference(geometry, trace):
    """Kernel == scalar loop field for field; the oracles' states agree."""
    config = CacheConfig(**geometry)
    addresses, writes = to_arrays(trace)

    scalar_state = cold_state(config)
    scalar_stats = simulate_accesses(config, addresses, writes, scalar_state)
    event_state = cold_state(config)
    kernel_stats = kernel_replay(config, addresses, writes, event_state)

    assert kernel_stats == scalar_stats  # dataclass equality: every field
    assert_states_equal(event_state, scalar_state)


@given(geometry=set_associative_geometry, trace_a=mixed_traces, trace_b=mixed_traces)
@settings(max_examples=40, deadline=None)
def test_set_associative_kernel_preserves_state_across_calls(geometry, trace_a, trace_b):
    """The kernel's replay of two traces joined equals back-to-back oracle
    replays, the second seeing the warm state (and RANDOM stream) left by
    the first."""
    config = CacheConfig(**geometry)
    kernel_stats = kernel_replay(config, *to_arrays(trace_a + trace_b), cold_state(config))
    event_stats, event_state = replay_twice(
        event_replay, config, cold_state(config), trace_a, trace_b)
    scalar_stats, scalar_state = replay_twice(
        simulate_accesses, config, cold_state(config), trace_a, trace_b)
    assert event_stats == scalar_stats
    assert kernel_stats == total(scalar_stats)
    assert_states_equal(event_state, scalar_state)


@given(trace=mixed_traces)
@settings(max_examples=25, deadline=None)
def test_simulate_many_matches_fresh_per_config_simulation(trace):
    """One decoded view replayed against many geometries == N cold oracles."""
    addresses, writes = to_arrays(trace)
    configs = [
        CacheConfig(ways=ways, setsize_kb=size, linesize_words=8, replacement=policy)
        for ways in (1, 2, 4)
        for size in (1, 4)
        for policy in Replacement.ALL
    ]
    view = decode_trace(addresses, writes, linesize_bytes=32)
    batched = simulate_many(view, configs)
    reference = [simulate_accesses(config, addresses, writes) for config in configs]
    assert batched == reference


def test_decoded_view_compresses_consecutive_same_line_runs():
    """Sequential word accesses within a line collapse to one event."""
    config = CacheConfig(ways=2, setsize_kb=1, linesize_words=8)
    addresses = np.arange(256, dtype=np.int64) * 4  # walk 32 lines word by word
    view = decode_trace(addresses, linesize_bytes=config.linesize_bytes)
    assert view.accesses == 256
    assert len(view) == 32  # one event per 8-word line
    assert view.compression == pytest.approx(8.0)
    stats = simulate_many(view, [config])[0]
    assert stats == simulate_accesses(config, addresses)


def test_kernel_rejects_mismatched_linesize_view():
    config = CacheConfig(ways=2, setsize_kb=1, linesize_words=8)
    view = decode_trace(np.asarray([0, 4, 8], dtype=np.int64), linesize_bytes=16)
    with pytest.raises(ConfigurationError):
        simulate_many(view, [config])


@pytest.mark.parametrize("geometry", [
    dict(ways=1, setsize_kb=1, linesize_words=4, replacement=Replacement.RANDOM),
    dict(ways=2, setsize_kb=1, linesize_words=8, replacement=Replacement.LRR),
    dict(ways=2, setsize_kb=2, linesize_words=4, replacement=Replacement.RANDOM),
    dict(ways=4, setsize_kb=1, linesize_words=8, replacement=Replacement.LRU),
])
def test_kernel_matches_scalar_on_all_paper_workload_traces(small_workload_map,
                                                            geometry):
    """The acceptance bar: kernel == scalar on the four real workload traces.

    Both the instruction-fetch stream (read-only, long same-line runs)
    and the data stream (mixed loads/stores, write-through no-allocate)
    of every paper workload must replay bit-identically from the
    workload's own cached columnar views, the ones measurements replay.
    """
    config = CacheConfig(**geometry)
    for name, workload in small_workload_map.items():
        trace = workload.trace()
        for kind, addresses, writes in (
                ("icache", trace.pcs, None),
                ("dcache", trace.data_addresses, trace.data_is_write)):
            scalar_state = cold_state(config)
            scalar_stats = simulate_accesses(config, addresses, writes, scalar_state)
            view = workload.columnar_view(kind, config.linesize_bytes)
            kernel_stats = simulate_many(view, [config])[0]
            event_state = cold_state(config)
            assert kernel_stats == scalar_stats, f"kernel diverged on {name}"
            assert reference_replay(view, config, event_state) == scalar_stats
            assert_states_equal(event_state, scalar_state)
