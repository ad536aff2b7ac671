"""Reference per-event replay loop: the oracle for the compiled C loop.

:func:`replay_events_loop` is the scalar statement of the replay
semantics over a set-grouped :class:`~repro.microarch.cachekernel._SetView`,
kept here in plain Python as the source the C loop in
:mod:`repro.microarch.native` was ported from line for line.  The
differential suite (``test_crossconfig_replay.py``) compares the compiled
loop with it and with the per-access scalar loop of
``Cache.simulate(vectorized=False)``.
"""

from __future__ import annotations

import numpy as np

from repro.config import Replacement
from repro.microarch.cache import CacheStatistics

__all__ = ["reference_replay", "replay_events_loop"]

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
