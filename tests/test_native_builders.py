"""The C run decode, set grouping and batched cold replay against their oracles.

``decode_trace`` and ``ColumnarTrace.set_view`` run the compiled
``decode_runs`` and ``build_set_view`` of :mod:`repro.microarch.native`;
the NumPy statements they replaced live in ``tests/reference_replay.py``
(``reference_decode``, ``reference_set_view``).  Both must agree bit for
bit on every column, for any trace, line size and set count -- set
counts that are not powers of two included, since the C grouping uses
``%`` and ``/``.  A cold ``simulate_many`` replays every geometry of one
set count in one native call, sharing one process-wide RANDOM victim
draw per (seed, ways); its results must not depend on what ran before,
and its wrapper must reject a bad geometry or set view before the C
loop runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import to_arrays, trace_strategy
from reference_replay import cold_state, reference_decode, reference_replay, reference_set_view

from repro.config import Replacement
from repro.errors import ReplayKernelError
from repro.microarch import cachekernel, native
from repro.microarch.cache import CacheConfig
from repro.microarch.cachekernel import decode_trace, simulate_many
from repro.obs import disable_tracing, enable_tracing

LINES_PER_WAY = (1, 2, 3, 7, 64, 2048)

COLUMNS = ("event_line", "event_first_read", "event_last_pos",
           "event_writes_before_read")


def assert_same_decode(actual, expected):
    assert (actual.linesize_bytes, actual.accesses, actual.write_accesses) == (
        expected.linesize_bytes, expected.accesses, expected.write_accesses)
    for name in COLUMNS:
        column = getattr(actual, name)
        assert column.dtype == np.int64 and column.flags.c_contiguous, name
        np.testing.assert_array_equal(column, getattr(expected, name), err_msg=name)


@settings(max_examples=60, deadline=None)
@given(trace=trace_strategy(max_address=1 << 12), linesize=st.sampled_from([4, 16, 32]),
       reads_only=st.booleans())
def test_c_decode_equals_the_numpy_oracle(trace, linesize, reads_only):
    addresses, writes = to_arrays(trace)
    mask = None if reads_only else writes
    assert_same_decode(decode_trace(addresses, mask, linesize_bytes=linesize),
                       reference_decode(addresses, mask, linesize_bytes=linesize))


@settings(max_examples=60, deadline=None)
@given(trace=trace_strategy(max_address=1 << 14), linesize=st.sampled_from([16, 32]),
       lines_per_way=st.sampled_from(LINES_PER_WAY))
def test_c_set_view_equals_the_numpy_oracle(trace, linesize, lines_per_way):
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes, linesize_bytes=linesize)
    columns = view.set_view(lines_per_way).columns
    expected = reference_set_view(view, lines_per_way)
    assert columns.dtype == np.int64 and columns.shape == expected.shape
    np.testing.assert_array_equal(columns, expected)
    # exactly one column per chain: a cached view holds no slack
    assert columns.base is None and columns.nbytes == expected.nbytes


@pytest.mark.parametrize("lines_per_way", LINES_PER_WAY)
def test_set_views_of_a_standard_trace_equal_the_oracle(blastn_small, lines_per_way):
    trace = blastn_small.trace()
    for view in (trace.columnar_view("icache", 16), trace.columnar_view("dcache", 32)):
        np.testing.assert_array_equal(view.set_view(lines_per_way).columns,
                                      reference_set_view(view, lines_per_way))


@pytest.mark.parametrize("lines_per_way", LINES_PER_WAY)
def test_empty_traces_decode_and_group_to_nothing(lines_per_way):
    for writes in (None, np.zeros(0, dtype=bool)):
        view = decode_trace(np.zeros(0, dtype=np.int64), writes, linesize_bytes=16)
        assert_same_decode(view, reference_decode([], writes, linesize_bytes=16))
        assert view.set_view(lines_per_way).columns.shape == (5, 0)


def test_write_only_runs_keep_every_write_before_the_read():
    addresses = np.asarray([0, 4, 8, 64, 0, 4], dtype=np.int64)
    writes = np.asarray([True, True, False, True, True, False])
    view = decode_trace(addresses, writes, linesize_bytes=16)
    assert_same_decode(view, reference_decode(addresses, writes, linesize_bytes=16))
    for lines_per_way in LINES_PER_WAY:
        np.testing.assert_array_equal(view.set_view(lines_per_way).columns,
                                      reference_set_view(view, lines_per_way))


def test_negative_addresses_floor_like_numpy():
    addresses = np.asarray([-20, -17, -16, -1, 0, 15, 16, -33], dtype=np.int64)
    view = decode_trace(addresses, linesize_bytes=16)
    assert_same_decode(view, reference_decode(addresses, linesize_bytes=16))
    for lines_per_way in (3, 7):
        np.testing.assert_array_equal(view.set_view(lines_per_way).columns,
                                      reference_set_view(view, lines_per_way))


# -- one native call per set count ------------------------------------------------------


def test_a_cold_batch_makes_one_native_call_per_set_count(monkeypatch):
    calls = []
    real = native.replay_cold

    def counting(view, accesses, lines_per_way, geometries):
        calls.append((lines_per_way, len(geometries)))
        return real(view, accesses, lines_per_way, geometries)

    monkeypatch.setattr(native, "replay_cold", counting)
    rng = np.random.default_rng(3)
    view = decode_trace(rng.integers(0, 3000, size=20000) * 4, rng.random(20000) < 0.2,
                        linesize_bytes=16)
    # every policy in every group: each replay of a call must start cold
    configs = [CacheConfig(ways=ways, setsize_kb=size, linesize_words=4,
                           replacement=replacement)
               for size in (1, 2, 4) for ways in (1, 2, 4)
               for replacement in (Replacement.LRR, Replacement.LRU, Replacement.RANDOM)]
    tracer = enable_tracing()
    try:
        assert simulate_many(view, configs) == [
            reference_replay(view, c, cold_state(c)) for c in configs]
    finally:
        disable_tracing()
    # the batch: one call per set count; the per-config replays are the oracle's
    assert sorted(calls) == [(64, 9), (128, 9), (256, 9)]
    [span] = [r for r in tracer.records if r.name == "replay"]
    assert span.attrs["native_calls"] == 3
    assert span.attrs["configs"] == len(configs) == 27
    assert span.attrs["set_views_built"] == 3


# -- the process-wide cold victim memo ---------------------------------------------------


@pytest.mark.parametrize("ways", [2, 3, 4, 8])
def test_a_short_victim_draw_is_the_prefix_of_a_longer_one(ways):
    longer = np.random.default_rng(0xC0FFEE).integers(0, ways, size=5001)
    for size in (0, 1, 2, 3, 999, 5000):
        shorter = np.random.default_rng(0xC0FFEE).integers(0, ways, size=size)
        np.testing.assert_array_equal(shorter, longer[:size])


def test_cold_results_do_not_depend_on_an_earlier_longer_batch(monkeypatch):
    monkeypatch.setattr(cachekernel, "_COLD_VICTIMS", {})
    rng = np.random.default_rng(7)
    short = decode_trace(rng.integers(0, 4096, size=300) * 4, rng.random(300) < 0.3,
                         linesize_bytes=16)
    long = decode_trace(rng.integers(0, 4096, size=3000) * 4, rng.random(3000) < 0.3,
                        linesize_bytes=16)
    configs = [CacheConfig(ways=ways, setsize_kb=1, linesize_words=4, seed=seed,
                           replacement=Replacement.RANDOM)
               for ways in (2, 3, 4) for seed in (0xC0FFEE, 11)]
    fresh = [reference_replay(short, c, cold_state(c)) for c in configs]
    before = simulate_many(short, configs)
    simulate_many(long, configs)  # grows every (seed, ways) draw to 3000
    assert all(len(v) == 3000 for v in cachekernel._COLD_VICTIMS.values())
    after = simulate_many(short, configs)
    assert before == after == fresh
    assert simulate_many(long, configs) == [
        reference_replay(long, c, cold_state(c)) for c in configs]
    assert len(cachekernel._COLD_VICTIMS) == len(configs)


# -- the wrapper guards the C loop's trusted indices -------------------------------------


@pytest.mark.parametrize("corrupt", [
    lambda view, n: (view, [(0, native.POLICY_LRU, None)]),
    lambda view, n: (view, [(2, 7, None)]),
    lambda view, n: (view, [(2, native.POLICY_RANDOM, None)]),
    lambda view, n: (view, [(2, native.POLICY_RANDOM, np.zeros(n - 1, dtype=np.int64))]),
    lambda view, n: (view.astype(np.int32), [(2, native.POLICY_LRU, None)]),
    lambda view, n: (np.asfortranarray(view), [(2, native.POLICY_LRU, None)]),
], ids=["no-ways", "unknown-policy", "no-victims", "short-victims", "int32-view",
        "fortran-view"])
def test_cold_replay_inputs_are_checked_before_the_library_loads(monkeypatch, corrupt):
    view = decode_trace(np.arange(0, 8192, 4, dtype=np.int64), linesize_bytes=16)
    columns, accesses = view.set_view(8).columns, view.accesses
    assert columns.shape[1] > 1  # a Fortran-ordered copy is then not C-contiguous

    def no_load():
        raise AssertionError("the C library was reached")

    monkeypatch.setattr(native, "_load", no_load)
    bad_view, geometries = corrupt(columns, accesses)
    with pytest.raises(ReplayKernelError):
        native.replay_cold(bad_view, accesses, 8, geometries)
