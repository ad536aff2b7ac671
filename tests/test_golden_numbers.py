"""Golden-number regression: pinned cache statistics per workload.

The property suites (``test_cache_vectorized.py``, ``test_warm_replay.py``)
prove the kernel equivalent to the scalar oracle, but they are slow and
randomized.  This suite pins the *absolute* hit/miss numbers of a small
fixed configuration grid per workload in a committed JSON fixture, so a
kernel refactor that silently changes results -- e.g. by perturbing the
seeded RANDOM victim stream -- fails fast and points at the exact
(workload, cache, configuration) cell that moved.

It also pins the trace fingerprint of each workload, at test size and at
the default (standard) size, keyed by ``SIMULATOR_VERSION``.  Result
stores and campaign databases key their rows on these digests, and map
workload recipes (which cover the simulator version) to them, so a
functional simulator change that alters any trace column fails here
instead of silently orphaning (or mis-serving) every persisted row.

To regenerate the fixtures after an *intentional* behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_numbers.py

and commit the diff together with the change that explains it.  The
cache fixture is rewritten; the fingerprint fixture only gains an entry
for a new ``SIMULATOR_VERSION`` -- new trace semantics under an
unchanged version are refused, because persisted recipe rows would then
name fingerprints the simulator no longer produces.
"""

import json
import os
import pathlib

import pytest

from repro.config import Replacement
from repro.microarch.cache import Cache, CacheConfig
from repro.microarch.functional import SIMULATOR_VERSION
from repro.workloads import standard_workloads

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "cache_golden.json"
FINGERPRINT_PATH = pathlib.Path(__file__).parent / "golden" / "trace_fingerprints.json"

#: The pinned configuration grid: every replacement policy, the
#: direct-mapped corner, odd associativity, and both line sizes.
GOLDEN_CONFIGS = [
    CacheConfig(ways=1, setsize_kb=1, linesize_words=4, replacement=Replacement.RANDOM),
    CacheConfig(ways=1, setsize_kb=4, linesize_words=8, replacement=Replacement.LRU),
    CacheConfig(ways=2, setsize_kb=1, linesize_words=8, replacement=Replacement.LRR),
    CacheConfig(ways=2, setsize_kb=2, linesize_words=4, replacement=Replacement.RANDOM),
    CacheConfig(ways=3, setsize_kb=1, linesize_words=4, replacement=Replacement.LRU),
    CacheConfig(ways=4, setsize_kb=2, linesize_words=8, replacement=Replacement.RANDOM),
]


def config_label(config: CacheConfig) -> str:
    return (f"{config.ways}w-{config.setsize_kb}kb-"
            f"{config.linesize_words}words-{config.replacement}")


def stats_dict(stats) -> dict:
    return {
        "accesses": stats.accesses,
        "read_accesses": stats.read_accesses,
        "write_accesses": stats.write_accesses,
        "read_misses": stats.read_misses,
        "write_misses": stats.write_misses,
    }


def compute_golden(workloads) -> dict:
    golden = {}
    for name, workload in sorted(workloads.items()):
        trace = workload.trace()
        per_workload = {}
        for config in GOLDEN_CONFIGS:
            icache = Cache(config).simulate(trace.pcs)
            dcache = Cache(config).simulate(trace.data_addresses, trace.data_is_write)
            per_workload[config_label(config)] = {
                "icache": stats_dict(icache),
                "dcache": stats_dict(dcache),
            }
        golden[name] = {
            "instructions": trace.instruction_count,
            "configs": per_workload,
        }
    return golden


def test_cache_statistics_match_committed_golden_numbers(small_workload_map):
    actual = compute_golden(small_workload_map)
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}; commit the diff")
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; regenerate with "
        "REPRO_UPDATE_GOLDEN=1")
    expected = json.loads(GOLDEN_PATH.read_text())

    assert sorted(actual) == sorted(expected), "workload set changed"
    for name in expected:
        assert actual[name]["instructions"] == expected[name]["instructions"], (
            f"{name}: trace length changed -- workload generation is no longer "
            "deterministic")
        for label, caches in expected[name]["configs"].items():
            for kind in ("icache", "dcache"):
                assert actual[name]["configs"][label][kind] == caches[kind], (
                    f"golden mismatch: {name} / {label} / {kind}")


def test_trace_fingerprints_match_committed_golden(small_workload_map):
    actual = {name: workload.fingerprint()
              for name, workload in sorted(small_workload_map.items())}
    # the default-size applications the benchmarks and the paper's tables run
    actual.update({f"{name}-standard": workload.fingerprint()
                   for name, workload in standard_workloads().items()})
    version = str(SIMULATOR_VERSION)
    golden = json.loads(FINGERPRINT_PATH.read_text())
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        assert golden.get(version, actual) == actual, (
            f"trace fingerprints changed under SIMULATOR_VERSION {version}; "
            "bump the version in repro/microarch/functional.py to record new "
            "trace semantics")
        golden[version] = actual
        FINGERPRINT_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {FINGERPRINT_PATH}; commit the diff")
    assert version in golden, (
        f"no golden fingerprints for SIMULATOR_VERSION {version}; regenerate "
        "with REPRO_UPDATE_GOLDEN=1")
    assert actual == golden[version]


def test_golden_grid_covers_the_policy_and_associativity_space():
    """The pinned grid must keep covering every policy and 1..4 ways."""
    policies = {c.replacement for c in GOLDEN_CONFIGS}
    assert policies == set(Replacement.ALL)
    assert {c.ways for c in GOLDEN_CONFIGS} == {1, 2, 3, 4}
    assert {c.linesize_words for c in GOLDEN_CONFIGS} == {4, 8}
