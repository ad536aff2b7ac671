"""Reference replay loops: the oracles of the compiled C replay.

Two scalar statements of the replay semantics, each independent of the
production path but the decoded view:

* :func:`simulate_accesses` walks the raw address trace one access at a
  time against a :class:`~repro.microarch.cachekernel.KernelState`; it
  shares nothing with the kernel but the state layout, and repeated
  calls on one state continue against the warm cache.
* :func:`replay_events_loop` walks a set-grouped
  :class:`~repro.microarch.cachekernel._SetView`; it is the plain Python
  source the C loop in :mod:`repro.microarch.native` was ported from
  line for line (:func:`reference_replay` drives it like
  :func:`~repro.microarch.cachekernel.replay`).

The differential suites (``test_crossconfig_replay.py``,
``test_cache_vectorized.py``, ``test_warm_replay.py``) compare the
compiled loop with both; the replay benchmarks time it against
:func:`simulate_accesses`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import Replacement
from repro.errors import ConfigurationError
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.microarch.cachekernel import KernelState

__all__ = ["cold_state", "reference_replay", "replay_events_loop", "simulate_accesses"]

_POLICY_CODES = {Replacement.LRU: 0, Replacement.LRR: 1, Replacement.RANDOM: 2}


def replay_events_loop(set_index, tag, first_read, last_pos, w_pre, has_read,
                       tags, age, fifo, random_victims, tick0, ways, policy):
    """Scalar per-event replay over a set-grouped set view.

    Mutates ``tags``/``age``/``fifo`` in place and returns
    ``(read_misses, write_misses)``.
    """
    read_misses = 0
    write_misses = 0
    for e in range(set_index.shape[0]):
        s = set_index[e]
        t = tag[e]
        hit = False
        for w in range(ways):
            if tags[s, w] == t:
                if policy == 0:  # LRU promotes on hit
                    age[s, w] = tick0 + last_pos[e]
                hit = True
                break
        if hit:
            continue
        write_misses += w_pre[e]
        if not has_read[e]:
            continue
        read_misses += 1
        victim = -1
        for w in range(ways):
            if tags[s, w] == -1:
                victim = w
                break
        if victim < 0:
            if ways == 1:  # direct mapped: the only way
                victim = 0
            elif policy == 0:  # LRU
                victim = 0
                best = age[s, 0]
                for w in range(1, ways):
                    if age[s, w] < best:
                        best = age[s, w]
                        victim = w
            elif policy == 1:  # LRR: FIFO pointer advances only on eviction
                victim = fifo[s]
                fifo[s] = (victim + 1) % ways
            else:  # RANDOM: positional pre-drawn victim of the fill access
                victim = random_victims[first_read[e]]
        tags[s, victim] = t
        if policy == 0:
            age[s, victim] = tick0 + last_pos[e]
        else:
            age[s, victim] = tick0 + first_read[e]
    return read_misses, write_misses


def reference_replay(view, config, state) -> CacheStatistics:
    """:func:`repro.microarch.cachekernel.replay` with the Python loop.

    Draws the victim stream from ``state.rng`` exactly like the kernel
    (one per access, for every policy, when ``ways > 1``) and mutates
    ``state`` the same way.
    """
    n = view.accesses
    victims = (state.rng.integers(0, config.ways, size=n)
               if config.ways > 1 else None)
    if n == 0:
        return CacheStatistics(0, 0, 0, 0, 0)
    sv = view.set_view(config.lines_per_way)
    read_misses, write_misses = replay_events_loop(
        sv.set_index, sv.tag, sv.first_read, sv.last_pos, sv.w_pre,
        sv.first_read < n, state.tags, state.age, state.fifo, victims,
        state.tick + 1, config.ways, _POLICY_CODES[config.replacement])
    state.tick += n
    return CacheStatistics(
        accesses=n,
        read_accesses=n - view.write_accesses,
        write_accesses=view.write_accesses,
        read_misses=int(read_misses),
        write_misses=int(write_misses),
    )


def cold_state(config: CacheConfig) -> KernelState:
    """An empty cache: every way invalid, the geometry's seeded generator.

    Built here rather than with ``cachekernel.fresh_state``, so the
    oracle shares only the state layout with the kernel it checks.
    """
    lines = config.lines_per_way
    return KernelState(
        tags=np.full((lines, config.ways), -1, dtype=np.int64),
        age=np.zeros((lines, config.ways), dtype=np.int64),
        fifo=np.zeros(lines, dtype=np.int64),
        rng=np.random.default_rng(config.seed),
    )


def simulate_accesses(
    config: CacheConfig,
    addresses: np.ndarray,
    writes: Optional[np.ndarray] = None,
    state: Optional[KernelState] = None,
) -> CacheStatistics:
    """Simulate an address trace one access at a time, mutating ``state``.

    ``writes`` is the optional store mask aligned with ``addresses``
    (omitted: every access is a read).  ``state`` defaults to a
    :func:`cold_state`; passing the same state again continues against
    the warm cache, its tags, ages, FIFO pointers, tick and RANDOM
    victim stream (one pre-drawn victim per access when ``ways > 1``).
    Write misses do not allocate (write-through, no write-allocate).
    """
    if state is None:
        state = cold_state(config)
    lines_per_way = config.lines_per_way
    line_numbers = np.asarray(addresses, dtype=np.int64) // config.linesize_bytes
    indices = line_numbers % lines_per_way
    tags = line_numbers // lines_per_way
    if writes is None:
        writes_arr = np.zeros(len(line_numbers), dtype=bool)
    else:
        writes_arr = np.asarray(writes, dtype=bool)
        if writes_arr.shape != line_numbers.shape:
            raise ConfigurationError("writes mask must match the address trace length")

    read_misses = 0
    write_misses = 0
    write_total = int(np.count_nonzero(writes_arr))

    # local bindings for speed in the hot loop
    tag_store = state.tags
    age = state.age
    fifo = state.fifo
    ways = config.ways
    lru = config.replacement == Replacement.LRU
    lrr = config.replacement == Replacement.LRR
    tick = state.tick
    # pre-draw random victims to keep the loop allocation free
    random_victims = (
        state.rng.integers(0, ways, size=len(line_numbers)) if ways > 1 else None)

    for i in range(len(line_numbers)):
        index = indices[i]
        tag = tags[i]
        row = tag_store[index]
        tick += 1
        hit = False
        for way in range(ways):
            if row[way] == tag:
                hit = True
                if lru:
                    age[index, way] = tick
                break
        if hit:
            continue
        if writes_arr[i]:
            write_misses += 1
            continue  # no write allocate
        read_misses += 1
        # fill: invalid way first, then policy victim
        victim = -1
        for way in range(ways):
            if row[way] == -1:
                victim = way
                break
        if victim < 0:
            if lru:
                victim = int(np.argmin(age[index]))
            elif lrr:
                victim = int(fifo[index])
                fifo[index] = (victim + 1) % ways
            else:
                victim = int(random_victims[i]) if random_victims is not None else 0
        row[victim] = tag
        age[index, victim] = tick

    state.tick = tick
    accesses = len(line_numbers)
    return CacheStatistics(
        accesses=accesses,
        read_accesses=accesses - write_total,
        write_accesses=write_total,
        read_misses=read_misses,
        write_misses=write_misses,
    )
