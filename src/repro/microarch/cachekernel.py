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

* **Replay** (:func:`replay`) turns the surviving potential-miss events
  into hit/miss statistics for one concrete geometry.  Events are
  grouped by set once per set count (:meth:`ColumnarTrace.set_view`),
  then one compiled C loop (:mod:`repro.microarch.native`) walks them
  with LRU / LRR(FIFO) / RANDOM victim selection, for every
  associativity, direct mapped included.

The replay is bit-identical to the two scalar oracles in
``tests/reference_replay.py``, the per-access loop and the per-event
loop the C source was ported from: statistics,
final tag/age/FIFO state, and the seeded RANDOM stream (victims are
pre-drawn positionally, one per *access*, exactly like the reference)
all match, which ``tests/test_crossconfig_replay.py`` property-tests for
every policy and associativity.

Replay is *warm-chainable*: :func:`replay` mutates the
:class:`KernelState` it is given, and the run/chain compression algebra
is closed under trace splitting -- a same-line run cut at a phase
boundary replays to the same statistics and state as the uncut run.
:func:`replay_chain` exploits this to replay a sequence of
:class:`ColumnarTrace` views (program phases) against one
continuously-warm cache; the result is bit-identical -- statistics,
tag/age/FIFO state, and the seeded RANDOM victim stream (NumPy bounded
integer draws consume the bit stream value by value, so per-phase
batches concatenate to the single-shot batch) -- to replaying the
concatenated trace in one shot, which ``tests/test_warm_replay.py``
property-tests against the scalar warm oracle.
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

__all__ = [
    "KERNEL_VERSION",
    "ColumnarTrace",
    "KernelState",
    "PhaseReplay",
    "decode_trace",
    "fresh_state",
    "replay",
    "replay_chain",
    "replay_phases",
    "simulate_many",
]

#: Version of every trace reduction a result store persists: the replay
#: statistics of a cache geometry and the trace summary the timing model
#: reads (feature vector and the window-trap table of
#: :func:`~repro.microarch.timing.count_window_traps`).  Stores key their
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
            view = _build_set_view(self, lines_per_way)
            self._set_views[lines_per_way] = view
        return view

    @property
    def event_has_read(self) -> np.ndarray:
        """Boolean mask of events whose run contains at least one read."""
        return self.event_first_read < self.accesses

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
    with span("decode", workload=workload, linesize=linesize_bytes) as decode_span:
        view = _decode_trace(addresses, writes, linesize_bytes=linesize_bytes,
                             workload=workload)
        decode_span.set(accesses=view.accesses, events=len(view))
        return view


def _decode_trace(
    addresses: np.ndarray,
    writes: Optional[np.ndarray],
    *,
    linesize_bytes: int,
    workload: str,
) -> ColumnarTrace:
    addresses = np.asarray(addresses, dtype=np.int64)
    n = len(addresses)
    if writes is None:
        writes_arr = np.zeros(n, dtype=bool)
    else:
        writes_arr = np.asarray(writes, dtype=bool)
        if writes_arr.shape != addresses.shape:
            raise ConfigurationError("writes mask must match the address trace length")
    write_total = int(np.count_nonzero(writes_arr))
    lines = addresses // linesize_bytes
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return ColumnarTrace(linesize_bytes, 0, 0, empty, empty, empty, empty,
                             workload)

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
        write_accesses=write_total,
        event_line=lines[run_start],
        event_first_read=first_read,
        event_last_pos=run_end - 1,
        event_writes_before_read=writes_before,
        workload=workload,
    )


@dataclass
class KernelState:
    """Mutable per-geometry cache state that a warm :func:`replay` carries."""

    #: ``(lines_per_way, ways)`` tag store; -1 marks an invalid way.
    tags: np.ndarray
    #: Per-way replacement ages (LRU recency; fill tick otherwise).
    age: np.ndarray
    #: Per-set LRR/FIFO replacement pointer.
    fifo: np.ndarray
    #: Accesses replayed so far (ages are ticks: position + tick + 1).
    tick: int = 0
    #: RANDOM-victim stream position, carried so a chained replay keeps
    #: drawing where the previous phase stopped.  :func:`replay` always
    #: draws from it; ``None`` only in the throwaway states of cold batch
    #: replays, which never draw from a state.
    rng: Optional[np.random.Generator] = None


def _cold_state(config: CacheConfig) -> KernelState:
    """Cold tag/age/FIFO stores without a generator (for discarded states)."""
    lines = config.lines_per_way
    return KernelState(
        tags=np.full((lines, config.ways), -1, dtype=np.int64),
        age=np.zeros((lines, config.ways), dtype=np.int64),
        fifo=np.zeros(lines, dtype=np.int64),
    )


def fresh_state(config: CacheConfig) -> KernelState:
    """Cold-cache state for one geometry with its own seeded generator."""
    state = _cold_state(config)
    state.rng = np.random.default_rng(config.seed)
    return state


def replay(
    view: ColumnarTrace,
    config: CacheConfig,
    state: Optional[KernelState] = None,
) -> CacheStatistics:
    """Replay a decoded trace against one geometry, mutating ``state``.

    With ``state`` omitted the replay starts from a cold cache with the
    geometry's own seeded PRNG (:func:`fresh_state`).  Passing the state
    of a previous replay continues against the warm cache; its ``rng``
    keeps the RANDOM victim stream in step.
    """
    _check_linesize(view, config)
    if state is None:
        state = fresh_state(config)
    # the scalar reference pre-draws one victim per *access* regardless of
    # policy or use; match it so the stream position stays identical
    random_victims = (state.rng.integers(0, config.ways, size=view.accesses)
                      if config.ways > 1 else None)
    return _replay(view, config, state, random_victims)


def _cold_victims(view: ColumnarTrace, config: CacheConfig,
                  draws: Dict[Tuple[int, int, int], np.ndarray]) -> Optional[np.ndarray]:
    """RANDOM victims of a cold replay whose state is thrown away.

    A cold stream depends only on (seed, ways) and the access count, so
    one batch shares one draw per (seed, ways, accesses).  LRU and LRR
    never read the victims, so nothing is drawn: no one sees their
    generator.
    """
    if config.ways == 1 or config.replacement != Replacement.RANDOM:
        return None
    key = (config.seed, config.ways, view.accesses)
    victims = draws.get(key)
    if victims is None:
        victims = np.random.default_rng(config.seed).integers(
            0, config.ways, size=view.accesses)
        draws[key] = victims
    return victims


def _replay_cold(view: ColumnarTrace, config: CacheConfig,
                 draws: Dict[Tuple[int, int, int], np.ndarray]) -> CacheStatistics:
    """Statistics of a cold replay whose final state nobody reads."""
    _check_linesize(view, config)
    return _replay(view, config, _cold_state(config),
                   _cold_victims(view, config, draws))


def _check_linesize(view: ColumnarTrace, config: CacheConfig) -> None:
    if view.linesize_bytes != config.linesize_bytes:
        raise ConfigurationError(
            f"decoded view has linesize {view.linesize_bytes}, "
            f"configuration expects {config.linesize_bytes}")


def _replay(view: ColumnarTrace, config: CacheConfig, state: KernelState,
            random_victims: Optional[np.ndarray]) -> CacheStatistics:
    n = view.accesses
    if n == 0:
        return CacheStatistics(0, 0, 0, 0, 0)
    read_misses, write_misses = native.replay_events(
        view.set_view(config.lines_per_way), n, state.tags, state.age, state.fifo,
        random_victims, state.tick + 1, config.lines_per_way, config.ways,
        _POLICY_CODES[config.replacement])
    state.tick += n
    return CacheStatistics(
        accesses=n,
        read_accesses=n - view.write_accesses,
        write_accesses=view.write_accesses,
        read_misses=read_misses,
        write_misses=write_misses,
    )


def simulate_many(
    view: ColumnarTrace, configs: Sequence[CacheConfig]
) -> List[CacheStatistics]:
    """Replay one decoded trace against many cold-cache configurations.

    Equivalent to ``[replay(view, c) for c in configs]``, but no
    configuration seeds a generator: the cold RANDOM victim draw is shared
    per (seed, ways) and cold LRU/LRR configurations draw nothing.
    Every configuration must share the view's line size
    (group by line size before calling; :meth:`LiquidPlatform.simulate_cache_jobs
    <repro.platform.liquid.LiquidPlatform.simulate_cache_jobs>` does).
    """
    configs = list(configs)
    draws: Dict[Tuple[int, int, int], np.ndarray] = {}
    with span("replay", workload=view.workload, configs=len(configs),
              linesize=view.linesize_bytes):
        return [_replay_cold(view, config, draws) for config in configs]


def replay_chain(
    views: Sequence[ColumnarTrace],
    config: CacheConfig,
    state: Optional[KernelState] = None,
) -> Tuple[List[CacheStatistics], KernelState]:
    """Replay a sequence of phase views against one continuously-warm cache.

    Every view must share the configuration's line size.  Returns the
    per-phase statistics and the final :class:`KernelState`, which can be
    passed back in to extend the chain.  The chain is bit-identical --
    per-phase statistics sum to the one-shot statistics, and the final
    tag/age/FIFO state and RANDOM victim stream match exactly -- to
    replaying the concatenated trace in a single :func:`replay` call:
    run compression never merges events across phase boundaries, but a
    run split at a boundary replays to the same misses and state because
    presence can only change at a run's first read, which stays at the
    same global position.
    """
    if state is None:
        state = fresh_state(config)
    statistics = [replay(view, config, state=state) for view in views]
    return statistics, state


@dataclass(frozen=True)
class PhaseReplay:
    """Per-phase statistics of one geometry, warm-chained and cold-started.

    ``warm`` replays the phases against one continuously-warm cache (the
    deployment view: cache state carries across program phases);
    ``cold`` replays each phase from a cold cache with a freshly seeded
    PRNG (the paper's per-measurement view).  The warm statistics sum to
    the single-shot replay of the concatenated trace; the cold ones do
    not, and the difference is exactly the phase-transition effect the
    phase benchmarks report.
    """

    warm: Tuple[CacheStatistics, ...]
    cold: Tuple[CacheStatistics, ...]

    def warm_total(self) -> CacheStatistics:
        """Sum of the warm per-phase statistics (== the one-shot replay)."""
        return CacheStatistics(
            accesses=sum(s.accesses for s in self.warm),
            read_accesses=sum(s.read_accesses for s in self.warm),
            write_accesses=sum(s.write_accesses for s in self.warm),
            read_misses=sum(s.read_misses for s in self.warm),
            write_misses=sum(s.write_misses for s in self.warm),
        )


def replay_phases(
    views: Sequence[ColumnarTrace], config: CacheConfig
) -> PhaseReplay:
    """Warm-chained plus cold-started per-phase replay of one geometry.

    The expensive part -- decoding each phase -- is shared between the
    two replays (and with every other geometry at this line size), so
    asking for both costs two cheap replays of the same views.
    """
    workload = views[0].workload if views else ""
    with span("replay_phases", workload=workload, phases=len(views),
              ways=config.ways):
        warm, _ = replay_chain(views, config)
        draws: Dict[Tuple[int, int, int], np.ndarray] = {}
        return PhaseReplay(
            warm=tuple(warm),
            cold=tuple(_replay_cold(view, config, draws) for view in views),
        )


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
    accesses``.
    """

    set_index: np.ndarray
    tag: np.ndarray
    first_read: np.ndarray
    last_pos: np.ndarray
    w_pre: np.ndarray


def _build_set_view(view: ColumnarTrace, lines_per_way: int) -> _SetView:
    if len(view) == 0:
        empty = np.empty(0, dtype=np.int64)
        return _SetView(empty, empty, empty, empty, empty)
    n = view.accesses
    indices = view.event_line % lines_per_way
    # the narrowest unsigned dtype lets NumPy's stable sort use radix
    # sort (8/16-bit keys): ~10x faster than sorting int64 set indices
    order = np.argsort(indices.astype(np.min_scalar_type(lines_per_way - 1)),
                       kind="stable")
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

    return _SetView(
        set_index=idx_s[starts],
        tag=line_s[starts] // lines_per_way,
        first_read=np.minimum.reduceat(first_read_s, starts),
        last_pos=view.event_last_pos[order][ends],
        w_pre=np.add.reduceat(np.where(no_read_before, w_pre_s, 0), starts),
    )
