"""Tests for the set-associative cache geometry, statistics and replay behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import address_strategy

from repro.config import Replacement, base_configuration
from repro.errors import ConfigurationError
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.microarch.cachekernel import decode_trace, simulate_many


def simulate(config: CacheConfig, addresses, writes=None) -> CacheStatistics:
    """Cold-cache statistics of one geometry through the production replay."""
    view = decode_trace(np.asarray(addresses, dtype=np.int64), writes,
                        linesize_bytes=config.linesize_bytes)
    return simulate_many(view, [config])[0]


class TestCacheConfig:
    def test_geometry_properties(self):
        cfg = CacheConfig(ways=2, setsize_kb=4, linesize_words=8)
        assert cfg.linesize_bytes == 32
        assert cfg.lines_per_way == 128
        assert cfg.total_bytes == 8192

    def test_from_configuration(self):
        base = base_configuration().replace(
            dcache_sets=3, dcache_setsize_kb=8, dcache_linesize_words=4,
            dcache_replacement=Replacement.LRU)
        cfg = CacheConfig.dcache_from(base)
        assert (cfg.ways, cfg.setsize_kb, cfg.linesize_words) == (3, 8, 4)
        assert cfg.replacement == Replacement.LRU
        icfg = CacheConfig.icache_from(base)
        assert icfg.setsize_kb == 4

    @pytest.mark.parametrize("kwargs", [
        dict(ways=0, setsize_kb=1, linesize_words=8),
        dict(ways=1, setsize_kb=0, linesize_words=8),
        dict(ways=1, setsize_kb=1, linesize_words=0),
        dict(ways=1, setsize_kb=1, linesize_words=8, replacement="mru"),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CacheConfig(**kwargs)


class TestBasicBehaviour:
    def test_repeated_access_hits(self):
        cfg = CacheConfig(ways=1, setsize_kb=1, linesize_words=8)
        stats = simulate(cfg, [0, 0, 0, 0])
        assert stats.read_misses == 1
        assert stats.hits == 3

    def test_spatial_locality_within_a_line(self):
        cfg = CacheConfig(ways=1, setsize_kb=1, linesize_words=8)
        stats = simulate(cfg, [0, 4, 8, 28, 31])   # all within the first 32-byte line
        assert stats.read_misses == 1

    def test_direct_mapped_conflict(self):
        cfg = CacheConfig(ways=1, setsize_kb=1, linesize_words=8)
        way_bytes = 1024
        stats = simulate(cfg, [0, way_bytes, 0, way_bytes])   # same index, different tags
        assert stats.read_misses == 4

    def test_two_way_cache_absorbs_the_same_conflict(self):
        cfg = CacheConfig(ways=2, setsize_kb=1, linesize_words=8, replacement=Replacement.LRU)
        stats = simulate(cfg, [0, 1024, 0, 1024])
        assert stats.read_misses == 2

    def test_write_through_no_allocate(self):
        cfg = CacheConfig(ways=1, setsize_kb=1, linesize_words=8)
        addresses = [0, 0, 64, 64]
        writes = [True, False, True, True]
        stats = simulate(cfg, addresses, np.asarray(writes))
        # first write misses and does NOT allocate, so the read also misses;
        # the writes to line 64 never allocate either.
        assert stats.write_misses == 3
        assert stats.read_misses == 1
        assert stats.write_accesses == 3

    def test_write_hits_after_read_allocation(self):
        cfg = CacheConfig(ways=1, setsize_kb=1, linesize_words=8)
        stats = simulate(cfg, [0, 0], np.asarray([False, True]))
        assert stats.read_misses == 1
        assert stats.write_misses == 0

    def test_statistics_derived_quantities(self):
        stats = CacheStatistics(accesses=10, read_accesses=8, write_accesses=2,
                                read_misses=2, write_misses=1)
        assert stats.misses == 3
        assert stats.hits == 7
        assert stats.miss_rate == pytest.approx(0.3)
        assert stats.read_miss_rate == pytest.approx(0.25)

    def test_mismatched_writes_mask_rejected(self):
        cfg = CacheConfig(ways=1, setsize_kb=1, linesize_words=8)
        with pytest.raises(ConfigurationError):
            simulate(cfg, [0, 32], np.asarray([True]))


class TestReplacementPolicies:
    def test_lru_evicts_least_recently_used(self):
        cfg = CacheConfig(ways=2, setsize_kb=1, linesize_words=8, replacement=Replacement.LRU)
        way = 1024
        # lines A, B fill both ways of index 0; touching A makes B the LRU victim for C.
        stats = simulate(cfg, [0, way, 0, 2 * way, 0])
        # A(miss) B(miss) A(hit) C(miss, evicts B) A(hit)
        assert stats.read_misses == 3

    def test_lrr_evicts_in_fill_order(self):
        cfg = CacheConfig(ways=2, setsize_kb=1, linesize_words=8, replacement=Replacement.LRR)
        way = 1024
        # LRR ignores the recent touch of A: it evicts the oldest fill (A) for C.
        stats = simulate(cfg, [0, way, 0, 2 * way, 0])
        # A(miss) B(miss) A(hit) C(miss, evicts A) A(miss again)
        assert stats.read_misses == 4

    def test_random_replacement_is_deterministic_per_seed(self):
        cfg = CacheConfig(ways=4, setsize_kb=1, linesize_words=4, replacement=Replacement.RANDOM)
        rng = np.random.default_rng(3)
        addresses = rng.integers(0, 1 << 16, size=2000) & ~3
        first = simulate(cfg, addresses)
        second = simulate(cfg, addresses)
        assert first.read_misses == second.read_misses

    def test_fully_resident_working_set_has_only_compulsory_misses(self):
        cfg = CacheConfig(ways=1, setsize_kb=4, linesize_words=8)
        addresses = list(range(0, 2048, 4)) * 3      # 2 KB working set, 3 passes
        stats = simulate(cfg, addresses)
        assert stats.read_misses == 2048 // 32


class TestLruInclusion:
    """LRU caches obey the inclusion property: more capacity never adds misses."""

    @settings(max_examples=30, deadline=None)
    @given(addresses=address_strategy())
    def test_larger_lru_cache_never_misses_more(self, addresses):
        small = CacheConfig(ways=2, setsize_kb=1, linesize_words=4, replacement=Replacement.LRU)
        large = CacheConfig(ways=2, setsize_kb=4, linesize_words=4, replacement=Replacement.LRU)
        small_misses = simulate(small, addresses).read_misses
        large_misses = simulate(large, addresses).read_misses
        assert large_misses <= small_misses

    @settings(max_examples=30, deadline=None)
    @given(addresses=address_strategy())
    def test_higher_lru_associativity_never_misses_more(self, addresses):
        low = CacheConfig(ways=2, setsize_kb=2, linesize_words=4, replacement=Replacement.LRU)
        high = CacheConfig(ways=4, setsize_kb=2, linesize_words=4, replacement=Replacement.LRU)
        assert (simulate(high, addresses).read_misses
                <= simulate(low, addresses).read_misses)


class TestFastPath:
    """The read-only fast path must agree with the general simulation loop."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fast_path_matches_slow_path(self, data):
        ways = data.draw(st.sampled_from([1, 2, 4]))
        replacement = data.draw(st.sampled_from(
            [Replacement.RANDOM, Replacement.LRU] if ways > 1 else [Replacement.RANDOM]))
        cfg = CacheConfig(ways=ways, setsize_kb=2, linesize_words=8, replacement=replacement)
        # small footprint (distinct indices) so the per-index count stays <= ways
        lines = data.draw(st.lists(st.integers(0, ways * 4 - 1), min_size=1, max_size=200))
        addresses = [line * 32 for line in lines]
        fast = simulate(cfg, addresses)
        # force the slow path by adding a single write at an untouched address
        slow_addresses = list(addresses) + [1 << 20]
        writes = np.asarray([False] * len(addresses) + [True])
        slow = simulate(cfg, slow_addresses, writes)
        assert fast.read_misses == slow.read_misses

    def test_fast_path_counts_distinct_lines(self):
        cfg = CacheConfig(ways=1, setsize_kb=4, linesize_words=8)
        addresses = [0, 32, 64, 0, 32, 64]
        stats = simulate(cfg, addresses)
        assert stats.read_misses == 3
        assert stats.accesses == 6
