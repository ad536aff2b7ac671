"""Golden-number regression: pinned cache statistics per workload.

The property suites (``test_cache_vectorized.py``, ``test_warm_replay.py``)
prove the kernel equivalent to the scalar oracle, but they are slow and
randomized.  This suite pins the *absolute* hit/miss numbers of a small
fixed configuration grid per workload in a committed JSON fixture, so a
kernel refactor that silently changes results -- e.g. by perturbing the
seeded RANDOM victim stream -- fails fast and points at the exact
(workload, cache, configuration) cell that moved.  The numbers come from
:meth:`LiquidPlatform.simulate_cache_jobs
<repro.platform.liquid.LiquidPlatform.simulate_cache_jobs>`, the replay
every measurement uses.

It also pins the trace fingerprint of each workload, at test size and at
the default (standard) size, keyed by ``SIMULATOR_VERSION``.  Result
stores and campaign databases key their rows on these digests, so a
functional simulator change that alters any trace column fails here
instead of silently orphaning every persisted row.

To regenerate the fixtures after an *intentional* behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_numbers.py

and commit the diff together with the change that explains it.  The
cache fixture is rewritten; the fingerprint fixture only gains an entry
for a new ``SIMULATOR_VERSION`` -- new trace semantics under an
unchanged version are refused, because the version is what declares the
simulator's semantics: a fingerprint pinned under it must stay the trace
that version produces, so a trace change is a deliberate bump (which
also moves every input key) and never an unnoticed side effect.

Result stores persist cache statistics and trace summaries under
:data:`~repro.microarch.cachekernel.KERNEL_VERSION`, so every golden
file's sha256 is pinned per kernel version as well: a golden file that
changes without a version bump fails here, before any store can serve a
row of the old semantics.  The persisted trace summaries (feature vector
and the register-window trap table of the timing model's trap walk) are
pinned the same way, as one sha256 of their ``summaries`` rows over the
small workloads and a deep-recursion trace (the paper workloads never
nest deep enough to trap).  After bumping the version, add its hashes to
:data:`GOLDEN_SHA256` and :data:`SUMMARY_SHA256`.
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro.config import Replacement
from repro.engine.store import _summary_row
from repro.microarch.cache import CacheConfig
from repro.microarch.cachekernel import KERNEL_VERSION
from repro.microarch.functional import SIMULATOR_VERSION
from repro.microarch.trace import ExecutionTrace
from repro.platform import LiquidPlatform
from repro.workloads import standard_workloads

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "cache_golden.json"
FINGERPRINT_PATH = pathlib.Path(__file__).parent / "golden" / "trace_fingerprints.json"

#: sha256 of every ``golden/*.json`` file, per ``KERNEL_VERSION``.
GOLDEN_SHA256 = {
    1: {
        "cache_golden.json":
            "ea6b35cb22543b9e8596e2f2235db19964f5c54e43207316043dabfc15e93b38",
        "trace_fingerprints.json":
            "4944b413690010ebe5a44f29cf43bd9bd4dcd08447b7cd2b739bc1d098500e6a",
    },
}

#: sha256 of the ``summaries`` rows of the small workloads and
#: :func:`deep_recursion_trace`, per ``KERNEL_VERSION``.
SUMMARY_SHA256 = {
    1: "9413f716514dab8c00c8fabe01042604432e66e3befd1a91696b8f5127b88040",
}

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
    platform = LiquidPlatform()
    golden = {}
    for name, workload in sorted(workloads.items()):
        key = workload.fingerprint()
        jobs = [(key, kind, config)
                for config in GOLDEN_CONFIGS for kind in ("icache", "dcache")]
        runs = platform.simulate_cache_jobs(workload, jobs)
        golden[name] = {
            "instructions": workload.trace().instruction_count,
            "configs": {
                config_label(config): {
                    kind: stats_dict(runs[(key, kind, config)])
                    for kind in ("icache", "dcache")}
                for config in GOLDEN_CONFIGS},
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


def test_golden_files_are_pinned_to_the_kernel_version():
    """Changing a golden file requires a KERNEL_VERSION bump."""
    assert KERNEL_VERSION in GOLDEN_SHA256, (
        f"no golden hashes for KERNEL_VERSION {KERNEL_VERSION}; add them")
    actual = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(GOLDEN_PATH.parent.glob("*.json"))}
    assert actual == GOLDEN_SHA256[KERNEL_VERSION], (
        "a golden file changed under an unchanged KERNEL_VERSION: bump it in "
        "repro/microarch/cachekernel.py so stores stop serving old rows")


def deep_recursion_trace(like: ExecutionTrace) -> ExecutionTrace:
    """``like``'s instruction stream with a call depth that traps at every window count.

    Nests 40 frames deep twice, then oscillates at the spill boundary of
    the smallest register file, so the trap table has no zero row.
    """
    events = np.array(([1] * 40 + [-1] * 40) * 2 + [1] * 8 + [-1, 1] * 5 + [-1] * 8,
                      dtype=np.int8)
    return ExecutionTrace(
        pcs=like.pcs, op_classes=like.op_classes, mem_addrs=like.mem_addrs,
        load_use_hazard=like.load_use_hazard, cc_branch_hazard=like.cc_branch_hazard,
        window_events=events, name="deep_recursion")


def test_summary_rows_are_pinned_to_the_kernel_version(small_workload_map):
    """Changing a persisted summary (features or trap table) requires a bump."""
    rows = {name: _summary_row(workload.trace().summary())
            for name, workload in sorted(small_workload_map.items())}
    deep = deep_recursion_trace(small_workload_map["arith"].trace()).summary()
    assert all(overflows and underflows for _, overflows, underflows in deep.window_traps)
    rows["deep_recursion"] = _summary_row(deep)
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == SUMMARY_SHA256.get(KERNEL_VERSION), (
        "a persisted trace summary changed under an unchanged KERNEL_VERSION: "
        "bump it in repro/microarch/cachekernel.py so stores stop serving old "
        f"rows, then pin {digest} for the new version")
