"""The C decode, set-view derivation and batched cold replay against their oracles.

``decode_trace`` runs the compiled ``decode_view`` of
:mod:`repro.microarch.native` (run decode and set grouping at the floor
set count, 1 KB of lines per way), and ``ColumnarTrace.set_view`` derives
every larger set count from that floor view with ``group_sets``.  The
NumPy statements they replaced live in ``tests/reference_replay.py``: the
decoded view must equal ``reference_set_view(reference_decode(...),
1024 // linesize)`` and every derived view ``reference_set_view`` at its
own set count, bit for bit, for any trace and line size.  A cold
``simulate_many`` replays a whole batch in one native call, after one
derivation per set count the view has not cached, sharing one
process-wide RANDOM victim draw per (seed, ways); its results must not
depend on what ran before, and the wrappers must reject a bad address
column, geometry or set view before the C code runs.
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
from repro.workloads import BlastnWorkload

#: Set counts as multiples of the floor (the sets of a 1 KB way).
MULTIPLES = (1, 2, 4, 64, 2048)


def assert_view_equals_oracle(view, addresses, writes, sets):
    """``view.set_view(sets)`` is the NumPy grouping of the NumPy run decode."""
    decoded = reference_decode(addresses, writes, linesize_bytes=view.linesize_bytes)
    assert (view.accesses, view.write_accesses) == (decoded.accesses, decoded.write_accesses)
    rows = view.set_view(sets)
    expected = reference_set_view(decoded, sets)
    assert rows.dtype == np.int64 and rows.flags.c_contiguous
    np.testing.assert_array_equal(rows, expected)
    # exactly one column per chain: a cached view owns its memory and holds no slack
    assert rows.base is None and rows.nbytes == expected.nbytes


@settings(max_examples=60, deadline=None)
@given(trace=trace_strategy(max_address=1 << 12), linesize=st.sampled_from([4, 16, 32]),
       reads_only=st.booleans())
def test_c_decode_equals_the_numpy_oracle(trace, linesize, reads_only):
    addresses, writes = to_arrays(trace)
    mask = None if reads_only else writes
    view = decode_trace(addresses, mask, linesize_bytes=linesize)
    assert view.linesize_bytes == linesize
    assert len(view) == view.floor.shape[1]
    assert view.set_view(1024 // linesize) is view.floor
    assert_view_equals_oracle(view, addresses, mask, 1024 // linesize)


@settings(max_examples=60, deadline=None)
@given(trace=trace_strategy(max_address=1 << 14), linesize=st.sampled_from([16, 32]),
       multiples=st.lists(st.sampled_from([1, 2, 4, 8, 64]), min_size=1, max_size=4))
def test_c_set_view_equals_the_numpy_oracle(trace, linesize, multiples):
    """Any order of derivation: each set count is grouped from the floor."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes, linesize_bytes=linesize)
    for multiple in multiples:
        assert_view_equals_oracle(view, addresses, writes, multiple * 1024 // linesize)


@pytest.mark.parametrize("multiple", MULTIPLES)
def test_set_views_of_a_standard_trace_equal_the_oracle(blastn_small, multiple):
    trace = blastn_small.trace()
    for kind, linesize, addresses, writes in (
            ("icache", 16, trace.pcs, None),
            ("dcache", 32, trace.data_addresses, trace.data_is_write)):
        assert_view_equals_oracle(trace.columnar_view(kind, linesize), addresses, writes,
                                  multiple * 1024 // linesize)


@pytest.mark.parametrize("multiple", MULTIPLES)
def test_empty_traces_decode_and_group_to_nothing(multiple):
    for writes in (None, np.zeros(0, dtype=bool)):
        addresses = np.zeros(0, dtype=np.int64)
        view = decode_trace(addresses, writes, linesize_bytes=16)
        assert len(view) == 0
        assert_view_equals_oracle(view, addresses, writes, 64 * multiple)


def test_write_only_runs_keep_every_write_before_the_read():
    addresses = np.asarray([0, 4, 8, 1024, 0, 4, 2048, 1024], dtype=np.int64)
    writes = np.asarray([True, True, False, True, True, False, True, True])
    view = decode_trace(addresses, writes, linesize_bytes=16)
    for multiple in MULTIPLES:
        assert_view_equals_oracle(view, addresses, writes, 64 * multiple)


# -- the address contract ----------------------------------------------------------------


def test_a_uint32_trace_column_reaches_the_library_untouched(monkeypatch):
    seen = []
    real = native.decode_view

    def recording(addresses, *args):
        seen.append(addresses)
        return real(addresses, *args)

    monkeypatch.setattr(native, "decode_view", recording)
    column = np.arange(0, 4096, 4, dtype=np.uint32)
    wide = decode_trace(column.astype(np.int64), linesize_bytes=16)
    assert decode_trace(column, linesize_bytes=16).floor.tolist() == wide.floor.tolist()
    assert seen[1] is column


@pytest.mark.parametrize("addresses", [
    np.asarray([0, -4, 8], dtype=np.int64),
    np.asarray([0, 1 << 32], dtype=np.int64),
    np.asarray([0, 1 << 40], dtype=np.uint64),
    np.asarray([0.0, 4.0]),
], ids=["negative", "past-32-bits", "wide-unsigned", "float"])
def test_addresses_outside_32_bits_are_refused_before_the_library_loads(
        monkeypatch, addresses):
    def no_load():
        raise AssertionError("the C library was reached")

    monkeypatch.setattr(native, "_load", no_load)
    with pytest.raises(ReplayKernelError):
        decode_trace(addresses, linesize_bytes=16)


@pytest.mark.parametrize("linesize", [-16, 12, 24])
def test_a_line_size_that_is_no_power_of_two_is_refused(monkeypatch, linesize):
    monkeypatch.setattr(native, "_load", lambda: pytest.fail("the C library was reached"))
    with pytest.raises(ReplayKernelError):
        decode_trace(np.arange(0, 64, 4, dtype=np.uint32), linesize_bytes=linesize)


# -- one replay call per decoded view ----------------------------------------------------


def counting_native(monkeypatch):
    """Count the calls of each native entry point the kernel makes."""
    calls = {"decode_view": 0, "derive_view": 0, "replay_cold": 0}
    for name in calls:
        def counted(*args, _real=getattr(native, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(native, name, counted)
    return calls


def geometries(sizes, linesize_words=4):
    """Every way count and policy at each way size: each replay must start cold."""
    return [CacheConfig(ways=ways, setsize_kb=size, linesize_words=linesize_words,
                        replacement=replacement)
            for size in sizes for ways in (1, 2, 4)
            for replacement in (Replacement.LRR, Replacement.LRU, Replacement.RANDOM)]


def test_a_batch_makes_one_replay_call_after_deriving_missing_set_counts(monkeypatch):
    calls = counting_native(monkeypatch)
    rng = np.random.default_rng(3)
    addresses = rng.integers(0, 3000, size=20000) * 4
    writes = rng.random(20000) < 0.2
    view = decode_trace(addresses, writes, linesize_bytes=16)
    configs = geometries((1, 2, 4))
    tracer = enable_tracing()
    try:
        assert simulate_many(view, configs) == [
            reference_replay(addresses, writes, c, cold_state(c)) for c in configs]
        # again, shuffled: every set view is cached, so only the replay call
        shuffled = [configs[i] for i in rng.permutation(len(configs))]
        assert simulate_many(view, shuffled) == [
            reference_replay(addresses, writes, c, cold_state(c)) for c in shuffled]
    finally:
        disable_tracing()
    # the 1 KB floor (64 sets) came with the decode; 2 KB and 4 KB were derived once
    assert calls == {"decode_view": 1, "derive_view": 2, "replay_cold": 2}
    first, second = [r for r in tracer.records if r.name == "replay"]
    assert first.attrs["configs"] == second.attrs["configs"] == len(configs) == 27
    assert (first.attrs["views_derived"], first.attrs["native_calls"]) == (2, 3)
    assert (second.attrs["views_derived"], second.attrs["native_calls"]) == (0, 1)


def test_each_trace_kind_and_line_size_decodes_once_and_derives_once(monkeypatch):
    """Per (trace, kind, line size): one decode on first use, one derivation
    per set count not yet cached, and exactly one replay call per batch."""
    calls = counting_native(monkeypatch)
    trace = BlastnWorkload(database_length=1200, query_length=48, query_count=1).trace()
    expected = {"decode_view": 0, "derive_view": 0, "replay_cold": 0}
    for kind in ("icache", "dcache"):
        for linesize_words in (4, 8):
            # partial, then wider batches: 1 KB is the floor, each new size derives once
            for sizes, derivations in (((1, 4), 1), ((1, 2, 4, 8), 2), ((2, 8), 0)):
                view = trace.columnar_view(kind, 4 * linesize_words)
                simulate_many(view, geometries(sizes, linesize_words))
                expected["derive_view"] += derivations
                expected["replay_cold"] += 1
            expected["decode_view"] += 1
            assert calls == expected, (kind, linesize_words)
            assert trace.columnar_view(kind, 4 * linesize_words) is view


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
    short_trace = rng.integers(0, 4096, size=300) * 4, rng.random(300) < 0.3
    long_trace = rng.integers(0, 4096, size=3000) * 4, rng.random(3000) < 0.3
    short = decode_trace(*short_trace, linesize_bytes=16)
    long = decode_trace(*long_trace, linesize_bytes=16)
    configs = [CacheConfig(ways=ways, setsize_kb=1, linesize_words=4, seed=seed,
                           replacement=Replacement.RANDOM)
               for ways in (2, 3, 4) for seed in (0xC0FFEE, 11)]
    fresh = [reference_replay(*short_trace, c, cold_state(c)) for c in configs]
    before = simulate_many(short, configs)
    simulate_many(long, configs)  # grows every (seed, ways) draw to 3000
    assert all(len(v) == 3000 for v in cachekernel._COLD_VICTIMS.values())
    after = simulate_many(short, configs)
    assert before == after == fresh
    assert simulate_many(long, configs) == [
        reference_replay(*long_trace, c, cold_state(c)) for c in configs]
    assert len(cachekernel._COLD_VICTIMS) == len(configs)


# -- the wrappers guard the C code's trusted indices -------------------------------------


@pytest.mark.parametrize("corrupt", [
    lambda view, n: [(view, 64, 0, native.POLICY_LRU, None)],
    lambda view, n: [(view, 64, 2, 7, None)],
    lambda view, n: [(view, 64, 2, native.POLICY_RANDOM, None)],
    lambda view, n: [(view, 64, 2, native.POLICY_RANDOM, np.zeros(n - 1, dtype=np.int64))],
    lambda view, n: [(view, 48, 2, native.POLICY_LRU, None)],
    lambda view, n: [(view, 1 << 31, 4, native.POLICY_LRU, None)],
    lambda view, n: [(view, 64, 2, native.POLICY_LRU, None),
                     (view.astype(np.int32), 64, 2, native.POLICY_LRU, None)],
    lambda view, n: [(np.asfortranarray(view), 64, 2, native.POLICY_LRU, None)],
    lambda view, n: [(np.vstack([view, view[:1]]), 64, 2, native.POLICY_LRU, None)],
], ids=["no-ways", "unknown-policy", "no-victims", "short-victims", "sets-not-power-of-two",
        "too-many-lines", "int32-view", "fortran-view", "five-row-view"])
def test_cold_replay_inputs_are_checked_before_the_library_loads(monkeypatch, corrupt):
    view = decode_trace(np.arange(0, 8192, 4, dtype=np.uint32), linesize_bytes=16)
    assert len(view) > 1  # a Fortran-ordered copy is then not C-contiguous

    def no_load():
        raise AssertionError("the C library was reached")

    monkeypatch.setattr(native, "_load", no_load)
    with pytest.raises(ReplayKernelError):
        native.replay_cold(view.accesses, corrupt(view.floor, view.accesses))
    with pytest.raises(ReplayKernelError):
        native.derive_view(view.floor, view.accesses, 96)


def test_a_view_with_a_negative_line_is_refused_by_the_grouping():
    """-1 marks a set with no chain yet, so no line may be negative."""
    view = decode_trace(np.arange(0, 8192, 4, dtype=np.uint32), linesize_bytes=16)
    bad = view.floor.copy()
    bad[0, 0] = -1
    with pytest.raises(ReplayKernelError):
        native.derive_view(bad, view.accesses, 128)
