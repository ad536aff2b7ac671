"""Columnar cache-simulation kernel: decode once, replay many.

Every cache statistic the platform measures comes from this module,
replayed over :meth:`ExecutionTrace.columnar_view
<repro.microarch.trace.ExecutionTrace.columnar_view>`.  It splits
trace-driven cache simulation into two stages with very different
sharing profiles:

* **Decode** (:func:`decode_trace`) is a property of the *trace and the
  line size only*: byte addresses become cache-line numbers, and maximal
  runs of consecutive accesses to the same line are compressed into one
  *event* each.  Within such a run the line's presence cannot change
  except at the run's first read (write misses do not allocate in the
  LEON2 write-through, no-write-allocate data cache), so an event fully
  describes the run with its line number, the position of its first
  read, the number of leading writes and its last access position.  A
  decoded :class:`ColumnarTrace` is therefore shared by *every* cache
  geometry and replacement policy with that line size -- the paper's
  exhaustive dcache sweep decodes each workload trace twice (one per
  line size) instead of once per configuration.

* **Replay** (:func:`simulate_many`) turns the surviving potential-miss
  events into hit/miss statistics for concrete geometries, each from a
  cold cache.  Events are grouped by set once per set count
  (:meth:`ColumnarTrace.set_view`), then one compiled C loop walks them
  with LRU / LRR(FIFO) / RANDOM victim selection, for every
  associativity, direct mapped included.  A batch replays every
  geometry of one set count in one native call.

Decode, grouping and replay all run in the C library of
:mod:`repro.microarch.native`; this module plans the calls.  Three
things are cached, none of which can go stale: a trace's decoded views
(per line size, on the :class:`~repro.microarch.trace.ExecutionTrace`,
which is immutable), each view's set views (per set count, on the
frozen :class:`ColumnarTrace`, each array exactly one entry per chain),
and the cold RANDOM victim streams (:data:`_COLD_VICTIMS`, one per
(seed, ways), a pure function of the two).

The replay is bit-identical to the two scalar oracles in
``tests/reference_replay.py``, the per-access loop and the per-event
loop the C source was ported from: statistics and the seeded RANDOM
stream (victims are pre-drawn positionally, one per *access*, exactly
like the reference) match, which ``tests/test_crossconfig_replay.py``
property-tests for every policy and associativity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.leon_space import Replacement
from repro.errors import ConfigurationError
from repro.microarch import native
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.obs.tracer import span

__all__ = ["KERNEL_VERSION", "ColumnarTrace", "decode_trace", "simulate_many"]

#: Version of every trace reduction a result store persists: the replay
#: statistics of a cache geometry and the trace summary the timing model
#: reads (feature vector and the window-trap table of
#: :func:`~repro.microarch.timing.window_trap_table`).  Stores key their
#: rows on it and read only rows of the current version, so bump it
#: whenever replay, feature or trap-walk semantics change (the golden-file
#: and summary-row pins in ``tests/test_golden_numbers.py`` enforce this):
#: rows written before the change are then never served.
KERNEL_VERSION = 1

_POLICY_CODES = {Replacement.LRU: native.POLICY_LRU,
                 Replacement.LRR: native.POLICY_LRR,
                 Replacement.RANDOM: native.POLICY_RANDOM}


@dataclass(frozen=True)
class ColumnarTrace:
    """Run-compressed columnar view of one address trace at one line size.

    One *event* per maximal run of consecutive same-line accesses.  The
    positions stored per event index into the original access stream, so
    tick accounting and the positional RANDOM victim stream of the
    scalar reference are reproducible without the uncompressed arrays.
    """

    #: Line size the addresses were decoded against.
    linesize_bytes: int
    #: Length of the original access stream.
    accesses: int
    #: Number of writes in the original access stream.
    write_accesses: int
    #: Cache-line number of each event's run.
    event_line: np.ndarray
    #: Original position of the run's first read; ``accesses`` when the run has none.
    event_first_read: np.ndarray
    #: Original position of the run's last access.
    event_last_pos: np.ndarray
    #: Number of writes preceding the run's first read (the whole run if no read).
    event_writes_before_read: np.ndarray
    #: Name of the workload the trace came from (span attribute only).
    workload: str = field(default="", compare=False)
    #: Cached per-set potential-miss views, keyed by ``lines_per_way``.
    _set_views: Dict[int, "_SetView"] = field(
        default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.event_line.shape[0])

    def set_view(self, lines_per_way: int) -> "_SetView":
        """Chain-collapsed per-set event stream for one set count (cached).

        Shared by every associativity and replacement policy with this
        ``lines_per_way``: the mapping of lines to sets -- and therefore
        which events can possibly miss -- depends only on the set count.
        """
        view = self._set_views.get(lines_per_way)
        if view is None:
            view = _SetView(native.build_set_view(
                self.event_line, self.event_first_read, self.event_last_pos,
                self.event_writes_before_read, self.accesses, lines_per_way))
            self._set_views[lines_per_way] = view
        return view

    @property
    def compression(self) -> float:
        """Accesses per event (1.0 means no consecutive same-line runs)."""
        return self.accesses / len(self) if len(self) else 1.0


def decode_trace(
    addresses: np.ndarray,
    writes: Optional[np.ndarray] = None,
    *,
    linesize_bytes: int,
    workload: str = "",
) -> ColumnarTrace:
    """Decode an address trace into a :class:`ColumnarTrace` for one line size.

    ``writes`` is the optional store mask aligned with ``addresses``
    (omitted for the read-only instruction-cache case).  The result is
    geometry- and policy-independent: every configuration with this line
    size replays the same decoded view.  ``workload`` names the trace's
    workload on the ``decode`` and ``replay`` spans.
    """
    addresses = np.ascontiguousarray(addresses, dtype=np.int64)
    if writes is not None:
        writes = np.ascontiguousarray(writes, dtype=bool)
        if writes.shape != addresses.shape:
            raise ConfigurationError("writes mask must match the address trace length")
    with span("decode", workload=workload, linesize=linesize_bytes) as decode_span:
        columns, write_count = native.decode_runs(addresses, writes, linesize_bytes)
        view = ColumnarTrace(linesize_bytes, len(addresses), write_count, *columns,
                             workload=workload)
        decode_span.set(accesses=view.accesses, events=len(view))
        return view


#: Cold RANDOM victim streams, one per ``(seed, ways)``: the draw
#: ``default_rng(seed).integers(0, ways, size=n)`` at the longest ``n``
#: requested so far.  A shorter draw is a prefix of a longer one (bounded
#: integers consume the bit stream value by value), so slicing serves
#: every trace exactly.  Worst case: 8 bytes per access of the longest
#: trace replayed cold, per distinct ``(seed, ways)`` -- 3.7 MB per pair
#: for a 464k-access trace.  Replaced, never mutated, so a reader keeps
#: a valid array whatever another thread stores.
_COLD_VICTIMS: Dict[Tuple[int, int], np.ndarray] = {}


def _cold_victims(config: CacheConfig, accesses: int) -> Optional[np.ndarray]:
    """RANDOM victims of a cold replay whose state is thrown away.

    A cold stream depends only on (seed, ways) and the access count.  LRU
    and LRR never read the victims, so nothing is drawn: no one sees
    their generator.
    """
    if config.ways == 1 or config.replacement != Replacement.RANDOM:
        return None
    key = (config.seed, config.ways)
    victims = _COLD_VICTIMS.get(key)
    if victims is None or len(victims) < accesses:
        victims = np.random.default_rng(config.seed).integers(
            0, config.ways, size=accesses)
        _COLD_VICTIMS[key] = victims
    return victims[:accesses]


def simulate_many(
    view: ColumnarTrace, configs: Sequence[CacheConfig]
) -> List[CacheStatistics]:
    """Replay one decoded trace against many cold-cache configurations.

    Each configuration replays from a cold cache.  No configuration
    seeds a generator of its own (the cold RANDOM victim draw is shared
    per (seed, ways) and cold LRU/LRR configurations draw nothing), and
    the configurations of one set count replay in one native call.
    Every configuration must share the view's line size
    (group by line size before calling; :meth:`LiquidPlatform.simulate_cache_jobs
    <repro.platform.liquid.LiquidPlatform.simulate_cache_jobs>` does).
    """
    configs = list(configs)
    for config in configs:
        if view.linesize_bytes != config.linesize_bytes:
            raise ConfigurationError(
                f"decoded view has linesize {view.linesize_bytes}, "
                f"configuration expects {config.linesize_bytes}")
    groups: Dict[int, List[int]] = {}
    for position, config in enumerate(configs):
        groups.setdefault(config.lines_per_way, []).append(position)
    results: List[Optional[CacheStatistics]] = [None] * len(configs)
    with span("replay", workload=view.workload, configs=len(configs),
              linesize=view.linesize_bytes) as replay_span:
        built = sum(lines_per_way not in view._set_views for lines_per_way in groups)
        for lines_per_way, positions in groups.items():
            misses = native.replay_cold(
                view.set_view(lines_per_way).columns, view.accesses, lines_per_way,
                [(configs[p].ways, _POLICY_CODES[configs[p].replacement],
                  _cold_victims(configs[p], view.accesses)) for p in positions])
            for position, (read_misses, write_misses) in zip(positions, misses):
                results[position] = CacheStatistics(
                    accesses=view.accesses,
                    read_accesses=view.accesses - view.write_accesses,
                    write_accesses=view.write_accesses,
                    read_misses=read_misses,
                    write_misses=write_misses,
                )
        replay_span.set(set_views_built=built, native_calls=len(groups))
    return results


# -- per-set potential-miss views --------------------------------------------------------


@dataclass(frozen=True)
class _SetView:
    """Chain-collapsed per-set event stream for one ``lines_per_way``.

    Events are grouped by set (per-set temporal order preserved) and
    maximal chains of *consecutive same-line events within a set* are
    collapsed into one potential-miss event each: between chain members
    no other line of that set is accessed, so the line's presence cannot
    change except at the chain's first read -- the same algebra that
    collapses same-line runs at decode time, applied after the set
    mapping is known.  A chain without a read has ``first_read ==
    accesses``.  Built by :func:`native.build_set_view
    <repro.microarch.native.build_set_view>`; the oracle is
    ``reference_set_view`` in ``tests/reference_replay.py``.
    """

    #: ``(5, chains)`` int64 rows, exactly one column per chain.
    columns: np.ndarray

    set_index = property(lambda self: self.columns[0], doc="Set of each chain.")
    tag = property(lambda self: self.columns[1], doc="Tag of each chain's line.")
    first_read = property(lambda self: self.columns[2], doc="First read position.")
    last_pos = property(lambda self: self.columns[3], doc="Last access position.")
    w_pre = property(lambda self: self.columns[4], doc="Writes before any read.")
