"""Reference replay paths: the oracles of the compiled C library.

NumPy and scalar statements of the replay semantics, each independent of
the production path (:mod:`repro.microarch.native`):

* :func:`reference_decode` is the NumPy run decode the C ``decode_runs``
  replaced, and :func:`reference_set_view` the NumPy set grouping (a
  stable argsort by set, then chain collapse) that ``build_set_view``
  replaced; ``test_native_builders.py`` checks both bit for bit.
* :func:`simulate_accesses` walks the raw address trace one access at a
  time against a :class:`KernelState`; it shares nothing with the
  kernel, and repeated calls on one state continue against the warm
  cache.
* :func:`replay_events_loop` walks a set-grouped
  :class:`~repro.microarch.cachekernel._SetView`; it is the plain Python
  source the C loop was ported from line for line
  (:func:`reference_replay` drives it over one geometry).

Both oracles start from a :func:`cold_state` and leave their final
state in it, so the suites can compare the two states as well as the
statistics, and replay back-to-back traces against one warm state.
The differential suites (``test_crossconfig_replay.py``,
``test_cache_vectorized.py``) compare
:func:`~repro.microarch.cachekernel.simulate_many` with both replay
oracles; the replay benchmarks time it against :func:`simulate_accesses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import Replacement
from repro.errors import ConfigurationError
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.microarch.cachekernel import ColumnarTrace

__all__ = ["KernelState", "cold_state", "reference_decode", "reference_replay",
           "reference_set_view", "replay_events_loop", "simulate_accesses"]

_POLICY_CODES = {Replacement.LRU: 0, Replacement.LRR: 1, Replacement.RANDOM: 2}


@dataclass
class KernelState:
    """Mutable per-geometry cache state that the oracles carry."""

    #: ``(lines_per_way, ways)`` tag store; -1 marks an invalid way.
    tags: np.ndarray
    #: Per-way replacement ages (LRU recency; fill tick otherwise).
    age: np.ndarray
    #: Per-set LRR/FIFO replacement pointer.
    fifo: np.ndarray
    #: RANDOM-victim stream position.
    rng: np.random.Generator
    #: Accesses replayed so far (ages are ticks: position + tick + 1).
    tick: int = 0


def reference_decode(addresses, writes=None, *, linesize_bytes) -> ColumnarTrace:
    """NumPy run decode: one event per maximal run of same-line accesses."""
    addresses = np.asarray(addresses, dtype=np.int64)
    n = len(addresses)
    writes_arr = (np.zeros(n, dtype=bool) if writes is None
                  else np.asarray(writes, dtype=bool))
    lines = addresses // linesize_bytes
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return ColumnarTrace(linesize_bytes, 0, 0, empty, empty, empty, empty)

    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = lines[1:] != lines[:-1]
    run_start = np.flatnonzero(boundary)
    run_end = np.append(run_start[1:], n)  # exclusive

    positions = np.arange(n, dtype=np.int64)
    # first read of each run: min over read positions, n as "no read" sentinel
    read_positions = np.where(writes_arr, n, positions)
    first_read = np.minimum.reduceat(read_positions, run_start)
    # every access before a run's first read is a write by construction
    writes_before = np.where(first_read < n, first_read - run_start, run_end - run_start)
    return ColumnarTrace(
        linesize_bytes=linesize_bytes,
        accesses=n,
        write_accesses=int(np.count_nonzero(writes_arr)),
        event_line=lines[run_start],
        event_first_read=first_read,
        event_last_pos=run_end - 1,
        event_writes_before_read=writes_before,
    )


def reference_set_view(view: ColumnarTrace, lines_per_way: int) -> np.ndarray:
    """NumPy set grouping: ``(5, chains)`` rows like ``_SetView.columns``.

    A stable argsort of the events by set, then maximal chains of
    consecutive same-line events within a set collapse into one event.
    """
    if len(view) == 0:
        return np.empty((5, 0), dtype=np.int64)
    n = view.accesses
    indices = view.event_line % lines_per_way
    order = np.argsort(indices, kind="stable")
    idx_s = indices[order]
    line_s = view.event_line[order]
    first_read_s = view.event_first_read[order]
    w_pre_s = view.event_writes_before_read[order]
    events = len(idx_s)

    # chains: consecutive events on the same line within the same set
    chain_start = np.empty(events, dtype=bool)
    chain_start[0] = True
    chain_start[1:] = (idx_s[1:] != idx_s[:-1]) | (line_s[1:] != line_s[:-1])
    starts = np.flatnonzero(chain_start)
    ends = np.append(starts[1:], events) - 1
    chain_id = np.cumsum(chain_start) - 1

    # a chain member's leading writes can only miss while no earlier chain
    # member carried a read; compute "read seen before me, within my chain"
    # with a per-chain running minimum (the id*big offset confines the
    # accumulate to one chain: earlier chains' values are strictly larger)
    big = n + 1
    running_min = np.minimum.accumulate(first_read_s - chain_id * big)
    prior = np.empty(events, dtype=np.int64)
    prior[0] = big
    prior[1:] = running_min[:-1] + chain_id[1:] * big
    no_read_before = prior >= n

    return np.stack([
        idx_s[starts],
        line_s[starts] // lines_per_way,
        np.minimum.reduceat(first_read_s, starts),
        view.event_last_pos[order][ends],
        np.add.reduceat(np.where(no_read_before, w_pre_s, 0), starts),
    ])


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
    """Replay a decoded trace against one geometry with the Python loop.

    Draws the victim stream from ``state.rng`` exactly like the kernel's
    cold draw (one per access, for every policy, when ``ways > 1``) and
    mutates ``state``.
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
    """An empty cache: every way invalid, the geometry's seeded generator."""
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
