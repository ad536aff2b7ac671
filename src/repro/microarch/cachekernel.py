"""Columnar cache-simulation kernel: decode once, replay many.

Every cache statistic the platform measures comes from this module,
replayed over :meth:`ExecutionTrace.columnar_view
<repro.microarch.trace.ExecutionTrace.columnar_view>`.  A cache sees a
trace as per-set streams of *chains*: maximal sequences of consecutive
accesses to one line within one set.  Between a chain's accesses no other
line of its set is touched, so the line's presence cannot change except
at the chain's first read (write misses do not allocate in the LEON2
write-through, no-write-allocate data cache), and a chain is fully
described by four numbers: its line, the position of its first read, its
last position and the writes before that read.  A *set view* holds them
as four int64 rows, sets ascending (a chain's set is ``line & (sets -
1)``), each set's chains in trace order.

* **Decode** (:func:`decode_trace`) depends on the *trace and the line
  size only*: the accesses are grouped into the set view at
  :func:`floor_sets`, the sets of a 1 KB way, the smallest
  :class:`~repro.microarch.cache.CacheConfig` allows.  A decoded
  :class:`ColumnarTrace` serves *every* geometry and policy with that
  line size.
* **Derivation** (:meth:`ColumnarTrace.set_view`): every set count is a
  power-of-two multiple of the floor, and its view is the floor view
  grouped again by the wider mask (each new set's chains come from one
  floor set, in trace order, and consecutive same-line chains merge by
  the rule that made them).  Derived views are cached on the view.
* **Replay** (:func:`simulate_many`) turns the chains into cold-cache
  statistics with one compiled loop (LRU / LRR(FIFO) / RANDOM, any
  associativity): one native call per batch, whatever its set counts.

Decode, grouping and replay run in the C library of
:mod:`repro.microarch.native`; this module plans the calls.  What it
caches cannot go stale: the decoded views (per line size, on the
immutable :class:`~repro.microarch.trace.ExecutionTrace`), their set
views (per set count, on the frozen :class:`ColumnarTrace`, exactly one
entry per chain) and the cold RANDOM victim streams
(:data:`_COLD_VICTIMS`, a pure function of (seed, ways)).

The replay is bit-identical to the two scalar oracles in
``tests/reference_replay.py``, the per-access loop and the per-event
loop the C source was ported from (which groups with its own NumPy
decode and set grouping): statistics and the seeded RANDOM stream
(pre-drawn positionally, one victim per *access*, like the reference)
match, which ``tests/test_crossconfig_replay.py`` property-tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.leon_space import Replacement
from repro.errors import ConfigurationError, ReplayKernelError
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


def floor_sets(linesize_bytes: int) -> int:
    """Sets of a 1 KB way of ``linesize_bytes`` lines: the set count of a decoded view."""
    return max(1, 1024 // linesize_bytes)


@dataclass(frozen=True)
class ColumnarTrace:
    """Decoded view of one address trace at one line size: its set views.

    Built at :func:`floor_sets` sets by :func:`decode_trace`; every
    other set count is derived from it on first use.  The positions a
    chain stores index into the original access stream, so tick
    accounting and the positional RANDOM victim stream of the scalar
    reference are reproducible without the uncompressed arrays.
    """

    #: Line size the addresses were decoded against.
    linesize_bytes: int
    #: Length of the original access stream.
    accesses: int
    #: Number of writes in the original access stream.
    write_accesses: int
    #: The set view at :func:`floor_sets` sets: ``(4, chains)`` int64 rows.
    floor: np.ndarray = field(repr=False)
    #: Name of the workload the trace came from (span attribute only).
    workload: str = field(default="", compare=False)
    #: Set views by set count, the floor's included.
    _set_views: Dict[int, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._set_views[floor_sets(self.linesize_bytes)] = self.floor

    def __len__(self) -> int:
        """Chains of the floor view."""
        return int(self.floor.shape[1])

    def set_view(self, sets: int) -> np.ndarray:
        """The ``(4, chains)`` set view at ``sets`` sets (derived once, then cached).

        Shared by every associativity and replacement policy with this
        set count.  ``sets`` must be a power-of-two multiple of the floor.
        """
        view = self._set_views.get(sets)
        if view is None:
            if sets < floor_sets(self.linesize_bytes) or sets & (sets - 1):
                raise ConfigurationError(
                    f"{sets} sets is not a power-of-two multiple of "
                    f"{floor_sets(self.linesize_bytes)}")
            view = native.derive_view(self.floor, self.accesses, sets)
            self._set_views[sets] = view
        return view


def decode_trace(
    addresses: np.ndarray,
    writes: Optional[np.ndarray] = None,
    *,
    linesize_bytes: int,
    workload: str = "",
) -> ColumnarTrace:
    """Decode an address trace into a :class:`ColumnarTrace` for one line size.

    ``addresses`` is a ``uint32`` column (passed to C untouched) or any
    integer array whose every address lies in ``[0, 2**32)``; anything
    else raises :class:`~repro.errors.ReplayKernelError`.  ``writes`` is
    the optional store mask aligned with ``addresses`` (omitted for the
    read-only instruction-cache case).  The result is geometry- and
    policy-independent: every configuration with this line size replays
    the same decoded view.  ``workload`` names the trace's workload on
    the ``decode`` and ``replay`` spans.
    """
    addresses = np.asarray(addresses)
    if addresses.dtype != np.uint32:
        if addresses.dtype.kind not in "iu" or (addresses.size and (
                addresses.min() < 0 or addresses.max() >= 1 << 32)):
            raise ReplayKernelError(
                f"addresses must be integers in [0, 2**32), got {addresses.dtype}")
        addresses = addresses.astype(np.uint32)
    addresses = np.ascontiguousarray(addresses)
    if writes is not None:
        writes = np.ascontiguousarray(writes, dtype=bool)
        if writes.shape != addresses.shape:
            raise ConfigurationError("writes mask must match the address trace length")
    with span("decode", workload=workload, linesize=linesize_bytes) as decode_span:
        floor = native.decode_view(addresses, writes, linesize_bytes,
                                   floor_sets(linesize_bytes))
        write_count = 0 if writes is None else int(np.count_nonzero(writes))
        view = ColumnarTrace(linesize_bytes, len(addresses), write_count, floor,
                             workload=workload)
        decode_span.set(accesses=view.accesses, chains=len(view))
        return view


#: Cold RANDOM victim streams, one per ``(seed, ways)``: the draw
#: ``default_rng(seed).integers(0, ways, size=n)`` at the longest ``n``
#: requested so far.  A shorter draw is a prefix of a longer one (bounded
#: integers consume the bit stream value by value), so the longest draw
#: serves every trace exactly: a replay reads a victim only at a position
#: below its access count.  Worst case: 8 bytes per access of the longest
#: trace replayed cold, per distinct ``(seed, ways)`` -- 3.7 MB per pair
#: for a 464k-access trace.  Replaced, never mutated, so a reader keeps
#: a valid array whatever another thread stores.
_COLD_VICTIMS: Dict[Tuple[int, int], np.ndarray] = {}


def _cold_victims(config: CacheConfig, accesses: int) -> Optional[np.ndarray]:
    """RANDOM victims (at least ``accesses``) of a cold replay whose state is thrown away.

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
    return victims


def simulate_many(
    view: ColumnarTrace, configs: Sequence[CacheConfig]
) -> List[CacheStatistics]:
    """Replay one decoded trace against many cold-cache configurations.

    Each configuration replays from a cold cache.  No configuration
    seeds a generator of its own (the cold RANDOM victim draw is shared
    per (seed, ways) and cold LRU/LRR configurations draw nothing).  The
    set views the batch lacks are derived first, one native call each,
    then the whole batch replays in one native call.  Every
    configuration must share the view's line size (group by line size
    before calling; :meth:`LiquidPlatform.simulate_cache_jobs
    <repro.platform.liquid.LiquidPlatform.simulate_cache_jobs>` does).
    """
    configs = list(configs)
    for config in configs:
        if view.linesize_bytes != config.linesize_bytes:
            raise ConfigurationError(
                f"decoded view has linesize {view.linesize_bytes}, "
                f"configuration expects {config.linesize_bytes}")
    with span("replay", workload=view.workload, configs=len(configs),
              linesize=view.linesize_bytes) as replay_span:
        derived = len({c.lines_per_way for c in configs} - view._set_views.keys())
        misses = native.replay_cold(view.accesses, [
            (view.set_view(c.lines_per_way), c.lines_per_way, c.ways,
             _POLICY_CODES[c.replacement], _cold_victims(c, view.accesses))
            for c in configs])
        replay_span.set(views_derived=derived, native_calls=derived + 1)
    reads = view.accesses - view.write_accesses
    return [CacheStatistics(accesses=view.accesses, read_accesses=reads,
                            write_accesses=view.write_accesses,
                            read_misses=read_misses, write_misses=write_misses)
            for read_misses, write_misses in misses]
