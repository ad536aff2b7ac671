"""Parallel batch evaluator: dedup, fan out cache simulations, persist.

The expensive part of a measurement is the trace-driven cache simulation;
synthesis and the timing model are vectorised/analytic and cheap.  The
:class:`ParallelEvaluator` therefore plans a batch as follows:

1. collapse duplicate configurations (first-appearance order preserved);
2. answer what it can from the persistent
   :class:`~repro.engine.store.ResultStore` and the wrapped platform's
   in-process memo stores;
3. compute the set of *distinct missing cache simulations* across every
   workload in the batch and fan them out over a
   :class:`~concurrent.futures.ProcessPoolExecutor`;
4. install the results into the platform's memo store **in deterministic
   job order** (completion order never leaks into results) and let the
   platform assemble the final measurements.

Because every cache job replays a fresh cold-cache state whose PRNG is
seeded from its own geometry, a parallel batch is bit-identical to the
sequential path -- including RANDOM replacement.

Worker processes receive the (configuration-independent) execution traces
once, through the pool initializer, and then only exchange small job
chunks and hit/miss counters.  Jobs are planned as *shared-decode
groups*: every job chunk shares one ``(trace fingerprint, kind,
linesize)`` key, so a worker decodes the trace into its columnar
:class:`~repro.microarch.cachekernel.ColumnarTrace` view once (cached
per process) and replays the whole configuration list against it.
"""

from __future__ import annotations

import logging
import math
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config.configuration import Configuration
from repro.engine import arena as arena_mod
from repro.engine.arena import ArenaBlock, TraceArena, arena_available
from repro.engine.backend import EngineStats
from repro.engine.store import ResultStoreBase
from repro.fpga.report import ResourceReport
from repro.microarch.cache import CacheStatistics
from repro.microarch.cachekernel import (
    ColumnarTrace,
    PhaseReplay,
    decode_trace,
    kernel_lane,
    replay_phases,
    simulate_many,
)
from repro.microarch.statistics import ExecutionStatistics
from repro.obs.metrics import get_registry
from repro.obs.tracer import (
    SpanRecord,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)
from repro.platform.liquid import CacheJob, LiquidPlatform, PhaseJob
from repro.platform.measurement import Measurement, PhasedMeasurement
from repro.workloads.base import Workload
from repro.workloads.phased import PhasedWorkload

__all__ = ["ParallelEvaluator"]

_LOG = logging.getLogger(__name__)

#: Per-worker trace registry, populated by the pool initializer.  Values are
#: either the pickled ``(pcs, data_addresses, data_is_write)`` arrays or an
#: :class:`~repro.engine.arena.ArenaBlock` naming the shared-memory segment
#: holding them (attached lazily, zero-copy).
_WORKER_TRACES: Dict[str, object] = {}
#: Per-worker phase boundaries of phased workloads: fingerprint ->
#: (instruction-stream bounds, data-access-stream bounds).
_WORKER_PHASES: Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
#: Per-worker decoded columnar views, keyed by (workload, kind, linesize).
_WORKER_VIEWS: Dict[Tuple[str, str, int], ColumnarTrace] = {}
#: Per-worker decoded per-phase views, keyed like :data:`_WORKER_VIEWS`.
_WORKER_PHASE_VIEWS: Dict[Tuple[str, str, int], List[ColumnarTrace]] = {}


#: Telemetry payload shipped home with every worker task: the spans the
#: task produced (empty when tracing is off) and the worker registry's
#: metric deltas since the last task.
Telemetry = Tuple[List[SpanRecord], Dict[str, Dict[str, Any]]]


def _init_worker(
    traces: Dict[str, object],
    phases: Optional[Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]]] = None,
    tracing: bool = False,
) -> None:
    global _WORKER_TRACES, _WORKER_PHASES, _WORKER_VIEWS, _WORKER_PHASE_VIEWS
    # fork-started workers inherit the parent's signal handlers; a resident
    # server routes SIGTERM/SIGINT into a graceful-drain flag, and a worker
    # that inherits that handler swallows the executor's own terminate()
    # during broken-pool cleanup and parks forever.  Workers are anonymous
    # compute processes: restore the default dispositions.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    _WORKER_TRACES = traces
    _WORKER_PHASES = phases or {}
    _WORKER_VIEWS = {}
    _WORKER_PHASE_VIEWS = {}
    if tracing:
        # the worker traces into its own process tracer; tasks drain it at
        # their boundary and ship the spans home inside the result tuple
        enable_tracing()


def _worker_telemetry() -> Telemetry:
    """Drain this worker's spans and metric deltas (task boundary)."""
    tracer = get_tracer()
    events = tracer.drain() if tracer.enabled else []
    return events, get_registry().drain()


def _worker_arrays(workload_key: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve a registered trace to arrays, attaching arena blocks lazily."""
    entry = _WORKER_TRACES[workload_key]
    if isinstance(entry, ArenaBlock):
        arrays = arena_mod.attach(entry)
        return arrays["pcs"], arrays["data_addresses"], arrays["data_is_write"]
    return entry


def _worker_view(workload_key: str, kind: str, linesize_bytes: int) -> ColumnarTrace:
    key = (workload_key, kind, linesize_bytes)
    view = _WORKER_VIEWS.get(key)
    if view is None:
        pcs, data_addresses, data_is_write = _worker_arrays(workload_key)
        if kind == "icache":
            view = decode_trace(pcs, linesize_bytes=linesize_bytes)
        else:
            view = decode_trace(
                data_addresses, data_is_write, linesize_bytes=linesize_bytes)
        _WORKER_VIEWS[key] = view
    return view


def _worker_phase_views(
    workload_key: str, kind: str, linesize_bytes: int
) -> List[ColumnarTrace]:
    """Per-phase views of a phased workload, decoded once per worker."""
    key = (workload_key, kind, linesize_bytes)
    views = _WORKER_PHASE_VIEWS.get(key)
    if views is None:
        pcs, data_addresses, data_is_write = _worker_arrays(workload_key)
        pc_bounds, data_bounds = _WORKER_PHASES[workload_key]
        views = []
        if kind == "icache":
            for lo, hi in zip(pc_bounds, pc_bounds[1:]):
                views.append(decode_trace(pcs[lo:hi], linesize_bytes=linesize_bytes))
        else:
            for lo, hi in zip(data_bounds, data_bounds[1:]):
                views.append(decode_trace(
                    data_addresses[lo:hi], data_is_write[lo:hi],
                    linesize_bytes=linesize_bytes))
        _WORKER_PHASE_VIEWS[key] = views
    return views


def _run_cache_group(
    chunk: Tuple[CacheJob, ...]
) -> Tuple[Tuple[CacheJob, ...], List[CacheStatistics], int, float, Telemetry]:
    """Replay one shared-decode job chunk; results align with the chunk.

    Also returns the fresh-decode count / wall-clock this call paid (zero
    when this worker already held the group's view), so the engine's
    decode accounting stays truthful across the pool, and the task's
    telemetry (spans plus metric deltas) for the host to merge.
    """
    workload_key, kind, first_cfg = chunk[0]
    fresh = (workload_key, kind, first_cfg.linesize_bytes) not in _WORKER_VIEWS
    decode_start = time.perf_counter()
    view = _worker_view(workload_key, kind, first_cfg.linesize_bytes)
    decode_seconds = time.perf_counter() - decode_start if fresh else 0.0
    statistics = simulate_many(view, [job[2] for job in chunk])
    return chunk, statistics, (1 if fresh else 0), decode_seconds, _worker_telemetry()


def _run_cache_group_arena(
    chunk: Tuple[CacheJob, ...], block: ArenaBlock
) -> Tuple[Tuple[CacheJob, ...], List[CacheStatistics], int, float, Telemetry]:
    """Replay one job chunk against a host-published decoded view.

    The view was decoded once in the parent and published to the arena;
    this worker attaches it zero-copy, so the decode count is always
    zero -- which is exactly what the one-decode-per-host assertion of
    the sweep benchmark measures.
    """
    view = arena_mod.attach_view(block)
    statistics = simulate_many(view, [job[2] for job in chunk])
    return chunk, statistics, 0, 0.0, _worker_telemetry()


def _run_phase_group(
    chunk: Tuple[PhaseJob, ...]
) -> Tuple[Tuple[PhaseJob, ...], List[PhaseReplay], int, float, Telemetry]:
    """Replay one shared-decode chunk of warm phase chains.

    The worker decodes the group's phases once and keeps each
    configuration's :class:`~repro.microarch.cachekernel.KernelState`
    resident across its whole chain.  Returns the chunk, its replays,
    the fresh-decode count / wall-clock this call paid (zero when this
    worker already held the group's views) so the engine's decode
    accounting stays truthful across the pool, and the task telemetry.
    """
    workload_key, kind, first_cfg = chunk[0]
    fresh = (workload_key, kind, first_cfg.linesize_bytes) not in _WORKER_PHASE_VIEWS
    decode_start = time.perf_counter()
    views = _worker_phase_views(workload_key, kind, first_cfg.linesize_bytes)
    decode_seconds = time.perf_counter() - decode_start if fresh else 0.0
    decodes = len(views) if fresh else 0
    replays = [replay_phases(views, job[2]) for job in chunk]
    return chunk, replays, decodes, decode_seconds, _worker_telemetry()


class ParallelEvaluator:
    """Batched :class:`~repro.engine.backend.EvaluationBackend` over a platform.

    Parameters
    ----------
    platform:
        The sequential build-and-measure platform to accelerate.  All
        memoisation and effort accounting stays on the platform, so the
        evaluator can be dropped into any consumer that previously held a
        bare :class:`~repro.platform.LiquidPlatform`.
    workers:
        Worker-process budget; ``None`` uses the CPU count.  With one
        worker (or tiny batches) simulations run inline.
    store:
        Optional persistent result store (JSON-lines
        :class:`~repro.engine.store.ResultStore` or
        :class:`~repro.engine.store.SqliteResultStore`); measurements
        found there skip simulation entirely and newly computed ones are
        appended, which makes campaigns resumable.
    arena:
        ``True`` forces the zero-copy shared-memory trace arena on for
        every batch, ``False`` disables it, ``None`` (default) probes the
        host and then applies the adaptive cost model: a batch publishes
        (and fans out to the worker pool) only when
        :func:`~repro.engine.arena.publish_worthwhile` says the shared
        trace bytes x job count clears the threshold; smaller batches
        replay inline, which keeps tiny sweeps from paying pool and
        publish overhead for nothing (``EngineStats.arena_skipped``
        audits those decisions).  With the arena on, worker pools receive
        trace columns and decoded columnar views through
        :class:`~repro.engine.arena.TraceArena` segments instead of
        pickles, so a batch decodes once per host; every segment is
        unlinked deterministically when the evaluator closes.
    arena_threshold:
        Override for the adaptive publish threshold (product of trace
        bytes and cache-job count); ``0`` publishes always, ``None``
        (default) uses :data:`~repro.engine.arena.DEFAULT_PUBLISH_THRESHOLD`
        or the ``REPRO_ARENA_THRESHOLD`` environment variable.  Ignored
        when ``arena=True`` forces publishing.
    """

    def __init__(
        self,
        platform: Optional[LiquidPlatform] = None,
        *,
        workers: Optional[int] = None,
        store: Optional[ResultStoreBase] = None,
        min_parallel_jobs: int = 2,
        arena: Optional[bool] = None,
        arena_threshold: Optional[int] = None,
    ):
        self.platform = platform or LiquidPlatform()
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.store = store
        if store is not None:
            store.bind_platform(self.platform.device, self.platform.timing_parameters)
        self.min_parallel_jobs = max(2, min_parallel_jobs)
        self.stats = EngineStats(workers=self.workers)
        # The pool lives as long as the evaluator so consecutive batches skip
        # process startup and trace pickling; it is rebuilt only when a batch
        # introduces a workload (identified by trace fingerprint, not name)
        # the current workers have never seen.
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_traces: Dict[str, object] = {}
        self._pool_phases: Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        #: Whether the current pool was spawned with tracing workers; a
        #: toggle of the process tracer forces a respawn so worker spans
        #: start (or stop) flowing without surprising stale pools.
        self._pool_tracing = False
        self._arena_enabled = arena_available() if arena is None else bool(arena)
        self._arena_forced = arena is True
        # adaptive mode: only the probed default applies the cost model;
        # explicit True/False are contracts the caller asked for
        self._arena_adaptive = arena is None and self._arena_enabled
        self._arena_threshold = arena_threshold
        self._arena: Optional[TraceArena] = None
        #: Published decoded views: (fingerprint, kind, linesize) -> ArenaBlock.
        self._view_blocks: Dict[Tuple[str, str, int], ArenaBlock] = {}
        #: Observer invoked after a worker pool is lost to
        #: ``BrokenProcessPool``/``OSError`` (the batch that saw the break
        #: has already completed inline by then).  A supervisor installs
        #: its restart/backoff policy here; the evaluator itself only
        #: accounts the break and respawns lazily on the next batch.
        self.pool_break_hook: Optional[Any] = None

    def _get_arena(self) -> Optional[TraceArena]:
        """The live arena, created lazily; ``None`` when unavailable/disabled."""
        if not self._arena_enabled:
            return None
        if self._arena is None:
            try:
                self._arena = TraceArena()
            except OSError:  # pragma: no cover - restricted sandboxes
                self._arena_enabled = False
                return None
        return self._arena

    def _shutdown_pool(self, *, wait: bool = True) -> None:
        """Stop the worker pool only (arena segments stay published)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None

    def _pool_failed(self) -> None:
        """A worker pool died mid-batch: account the break, drop the pool.

        ``wait=False``: the broken executor's processes are gone (or
        wedged); joining them is exactly the hang this path exists to
        avoid.  The next batch respawns lazily -- published arena
        segments stay up, so the respawned workers re-attach the same
        views without a republish.

        The dead worker's *siblings* are killed explicitly: when the
        executor's manager thread loses the race against our
        ``shutdown(wait=False)``, a surviving worker never receives its
        exit sentinel and parks on the call queue forever -- and the
        non-daemon manager thread joining it then blocks interpreter
        exit (a resident server that "stopped" but never exits).  Their
        results are discarded either way, so SIGKILL is safe.
        """
        self.stats.pool_breaks += 1
        pool, self._pool = self._pool, None
        if pool is not None:
            # capture the workers BEFORE shutdown(): the executor drops its
            # _processes reference there even with wait=False
            survivors = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False)
            for process in survivors:
                try:
                    if process.is_alive():
                        process.kill()
                except (OSError, ValueError):  # already reaped / closed handle
                    pass

    def close(self, *, wait: bool = True) -> None:
        """Shut down the worker pool and unlink every arena segment.

        The evaluator stays usable: pools restart lazily and traces/views
        are republished on the next batch.  After this call no shared
        memory segment published by this evaluator exists on the host.
        ``wait=False`` skips joining the worker processes (the finalizer
        path: joining from ``__del__`` can block interpreter teardown).
        """
        self._shutdown_pool(wait=wait)
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self.stats.arena_segments = 0
        self.stats.arena_bytes = 0
        self._view_blocks.clear()
        # registered traces referenced arena segments; force a clean respawn
        self._pool_traces.clear()
        self._pool_phases.clear()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering varies
        # never join workers from a finalizer: GC (or interpreter
        # teardown) must not block on pool shutdown -- explicit close()
        # keeps waiting, the finalizer only swallows and logs
        try:
            self.close(wait=False)
        except Exception as exc:
            try:
                _LOG.debug("evaluator finalizer teardown failed: %r", exc)
            except Exception:
                pass

    def _ensure_pool(
        self,
        traces: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]],
        phases: Optional[Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]]] = None,
    ) -> ProcessPoolExecutor:
        phases = phases or {}
        new_workloads = [key for key in traces if key not in self._pool_traces]
        new_phases = [key for key in phases if key not in self._pool_phases]
        tracing = tracing_enabled()
        if (self._pool is None or new_workloads or new_phases
                or tracing != self._pool_tracing):
            self._shutdown_pool()
            for key, entry in traces.items():
                if key in self._pool_traces:
                    continue
                arena = self._get_arena()
                if arena is not None:
                    # workers then attach the columns zero-copy instead of
                    # unpickling their own copies
                    pcs, data_addresses, data_is_write = entry
                    entry = arena.publish_trace(pcs, data_addresses, data_is_write)
                self._pool_traces[key] = entry
            self._sync_arena_stats()
            self._pool_phases.update(phases)
            self._pool_tracing = tracing
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self._pool_traces, self._pool_phases, tracing),
            )
            self.stats.pool_spawns += 1
        return self._pool

    def _sync_arena_stats(self) -> None:
        if self._arena is not None:
            self.stats.arena_segments = self._arena.segment_count
            self.stats.arena_bytes = self._arena.published_bytes

    @contextmanager
    def _stage(self, name: str, **attrs):
        """Time one pipeline stage: a span plus the ``stage_seconds`` sum.

        The span and the accumulated stage share one clock read, so the
        span tree of a traced run reconciles with ``stats.stage_seconds``
        exactly (a property the observability tests assert).
        """
        with span(name, **attrs):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.stats.add_stage(name, time.perf_counter() - start)

    def _absorb_telemetry(self, telemetry: Telemetry) -> None:
        """Merge one worker task's spans and metric deltas into this engine."""
        events, deltas = telemetry
        if events:
            get_tracer().absorb(events)
        if deltas:
            self.stats.registry.merge(deltas)

    def _merge_host_metrics(self) -> None:
        """Fold the process-global metrics into this engine's registry.

        Library layers without an engine reference (arena publish/attach,
        store lock retries) count into the process registry; draining it
        at batch end parents those metrics under the run's
        :attr:`EngineStats.registry` without double counting across
        batches or evaluators.
        """
        deltas = get_registry().drain()
        if deltas:
            self.stats.registry.merge(deltas)

    def _skip_small_batch(self, trace_bytes: int, job_count: int) -> bool:
        """Adaptive cost model: ``True`` means replay this batch inline.

        Applies only in the probed-default arena mode: publishing the
        traces *and* fanning the jobs out both cost time that scales with
        the shared trace bytes, so when ``trace bytes x job count`` falls
        below the publish threshold the whole batch runs inline instead
        (``stats.arena_skipped`` audits each skip).  The threshold is the
        per-host calibrated one (:func:`~repro.engine.arena.calibrate_threshold`)
        unless the constructor or the environment pinned an explicit
        value; either way ``stats.arena_threshold`` records what was
        applied.  Forced arenas (``arena=True``) and explicit
        ``arena=False`` pools never skip.
        """
        if not self._arena_adaptive or self._arena_forced:
            return False
        threshold = self._arena_threshold
        if threshold is None:
            threshold = arena_mod.calibrate_threshold()
        self.stats.arena_threshold = arena_mod.publish_threshold(threshold)
        if arena_mod.publish_worthwhile(trace_bytes, job_count, threshold):
            return False
        self.stats.arena_skipped += 1
        return True

    # -- delegated single-shot API ---------------------------------------------------------

    @property
    def device(self):
        return self.platform.device

    def build(self, config: Configuration) -> ResourceReport:
        return self.platform.build(config)

    def profile(self, workload: Workload, config: Configuration) -> ExecutionStatistics:
        return self.platform.profile(workload, config)

    def fits(self, config: Configuration) -> bool:
        return self.platform.fits(config)

    def effort(self) -> Dict[str, int]:
        return self.platform.effort()

    def measure(self, workload: Workload, config: Configuration) -> Measurement:
        return self.measure_many(workload, [config])[0]

    # -- batched API -----------------------------------------------------------------------

    def measure_many(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Measure a batch for one workload; results align with ``configs``."""
        return self.measure_many_multi({workload: configs})[workload]

    def measure_many_multi(
        self, batches: Mapping[Workload, Sequence[Configuration]]
    ) -> Dict[Workload, List[Measurement]]:
        """Measure several workloads' batches concurrently.

        The cache simulations of *all* workloads form one job pool, so a
        campaign over four workloads keeps every worker busy even when a
        single workload has few distinct geometries.  Results are keyed by
        the workload *instances* (names may legitimately repeat across
        differently scaled variants of one benchmark).
        """
        start = time.perf_counter()
        self.stats.batches += 1

        plan = self._plan_batches(batches)
        jobs: List[CacheJob] = []
        seen_jobs = set()
        for workload, missing, _ in plan:
            for job in self.platform.cache_requests(workload, missing):
                if job not in seen_jobs:
                    seen_jobs.add(job)
                    jobs.append(job)

        with self._stage("cache_simulation", jobs=len(jobs)):
            self._execute_cache_jobs(
                {workload: missing for workload, missing, _ in plan}, jobs)

        with self._stage("model_build"):
            results: Dict[Workload, List[Measurement]] = {}
            for workload, missing, ready in plan:
                for config in missing:
                    measurement = self.platform.measure(workload, config)
                    ready[config] = measurement
                    if self.store is not None and self.store.put(workload, measurement):
                        self.stats.store_writes += 1
                results[workload] = [ready[c] for c in batches[workload]]

        self.stats.wall_seconds += time.perf_counter() - start
        self._merge_host_metrics()
        return results

    def _plan_batches(
        self, batches: Mapping[Workload, Sequence[Configuration]]
    ) -> List[Tuple[Workload, List[Configuration], Dict[Configuration, Measurement]]]:
        """Plan several workloads' batches, simulating only what must run.

        Shared by :meth:`measure_many_multi` and :meth:`measure_sweep`.
        A workload the store has seen resolves its trace fingerprint from
        its :meth:`~repro.workloads.base.Workload.recipe` and is planned
        without simulating; the functional simulator then runs only if
        some configuration misses the store, and its trace checks the
        adopted fingerprint before anything is evaluated.  Every other
        workload simulates before planning (its fingerprint keys the
        lookups), and the store records its recipe for the next run.
        """
        unresolved: List[Workload] = []
        unrecorded: List[Tuple[Workload, str]] = []
        for workload in batches:
            if workload.has_fingerprint():
                continue
            recipe = workload.recipe() if self.store is not None else None
            fingerprint = None if recipe is None else self.store.trace_fingerprint(recipe)
            if fingerprint is not None:
                self.stats.recipe_hits += 1
                workload.adopt_fingerprint(fingerprint)
                continue
            unresolved.append(workload)
            if recipe is not None:
                self.stats.recipe_misses += 1
                unrecorded.append((workload, recipe))
        self._simulate(unresolved)
        for workload, recipe in unrecorded:
            self.store.put_trace(recipe, workload.fingerprint())

        plan = [(workload, *self._plan_workload_batch(workload, configs))
                for workload, configs in batches.items()]
        self._simulate([workload for workload, missing, _ in plan if missing])
        return plan

    def _simulate(self, workloads: Sequence[Workload]) -> None:
        """Run the functional simulator for the workloads that lack a trace.

        The ``trace_generation`` stage opens only when one does, tagged
        with their names, so a run served entirely by recipe rows and
        store hits reports no trace-generation time at all.
        """
        pending = [workload for workload in workloads if not workload.has_trace()]
        if pending:
            with self._stage("trace_generation",
                             workload=",".join(w.name for w in pending)):
                for workload in pending:
                    workload.trace()

    def _plan_workload_batch(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> Tuple[List[Configuration], Dict[Configuration, Measurement]]:
        """Collapse duplicates and consult the store for one workload's batch.

        Returns the configurations still needing simulation (first-appearance
        order) and the measurements already answered, keyed by the
        configuration itself (hashing a :class:`Configuration` reuses its
        cached key hash, where hashing the raw key tuple would rewalk every
        parameter on each planning pass).
        """
        self.stats.requested += len(configs)
        seen = set()
        ready: Dict[Configuration, Measurement] = {}
        missing: List[Configuration] = []
        consult_store = self.store is not None
        for config in configs:
            if config in seen:
                self.stats.dedup_hits += 1
                continue
            seen.add(config)
            stored = self._from_store(workload, config) if consult_store else None
            if stored is not None:
                ready[config] = stored
                self.stats.store_hits += 1
            else:
                missing.append(config)
        return missing, ready

    def measure_sweep(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Measure a configuration grid through the broadcast-batched path.

        Planning matches :meth:`measure_many` exactly -- duplicates are
        collapsed, the persistent store is consulted, and the distinct
        missing cache simulations fan out over the worker pool (with the
        shared-memory arena supplying host-decoded views when enabled).
        The difference is the assembly stage: instead of a per-config
        Python loop, the remaining configurations are evaluated in one
        :meth:`LiquidPlatform.measure_sweep
        <repro.platform.liquid.LiquidPlatform.measure_sweep>` broadcast,
        bit-identical to the scalar path.
        """
        start = time.perf_counter()
        self.stats.batches += 1

        [(_, missing, ready)] = self._plan_batches({workload: configs})

        with self._stage("cache_simulation"):
            # one planning pass: the pairs feed the platform sweep below so
            # it never rewalks the grid's parameter keys after the fan-out
            key_pairs, jobs = self.platform.cache_plan(workload, missing)
            self._execute_cache_jobs({workload: missing}, jobs)

        with self._stage("sweep_evaluate", configs=len(missing)):
            for config, measurement in zip(
                    missing, self.platform.measure_sweep(
                        workload, missing, cache_pairs=key_pairs)):
                ready[config] = measurement
                if self.store is not None and self.store.put(workload, measurement):
                    self.stats.store_writes += 1
            self.stats.sweep_batches += 1
            self.stats.sweep_evaluations += len(missing)

        self.stats.wall_seconds += time.perf_counter() - start
        self._merge_host_metrics()
        return [ready[config] for config in configs]

    # -- phased batches --------------------------------------------------------------------

    def measure_phases(
        self, workload: PhasedWorkload, configs: Sequence[Configuration]
    ) -> List[PhasedMeasurement]:
        """Measure a phased batch: overall measurements plus per-phase views.

        The overall measurements run through :meth:`measure_many`
        unchanged (store lookups, dedup and the shared-decode cache-job
        pool all apply -- warm-chain totals are bit-identical to the
        single-shot concatenated replay, so persisted results stay
        valid).  The warm phase chains are planned as their own jobs,
        grouped by ``(trace fingerprint, kind, linesize)`` so a worker
        decodes each phase once per group and keeps every
        configuration's cache state resident across its chain.
        """
        # register the phase bounds before the pool first spawns so one pool
        # serves both the overall cache jobs and the phase chains (a late
        # registration would force a full worker respawn mid-batch)
        self._register_phase_bounds(workload)
        overall = self.measure_many(workload, configs)

        jobs = self.platform.phase_requests(workload, configs)
        with self._stage("phase_chain", jobs=len(jobs)):
            self._execute_phase_jobs(workload, jobs)
        self._merge_host_metrics()

        results = []
        for config, measurement in zip(configs, overall):
            icache, dcache = self.platform.phase_replays(workload, config)
            results.append(PhasedMeasurement(
                measurement=measurement,
                phases=workload.phase_names,
                icache=icache,
                dcache=dcache,
            ))
        return results

    def _register_phase_bounds(self, workload: PhasedWorkload) -> None:
        """Make a phased workload's bounds part of the next pool spawn.

        Called before any pool use in a phased batch: if the bounds are
        new and a pool is already running without them, it is closed so
        the next :meth:`_ensure_pool` spawn ships traces and bounds
        together instead of respawning between the cache-job and
        phase-chain stages.
        """
        key = workload.fingerprint()
        if key in self._pool_phases:
            return
        self._pool_phases[key] = (
            tuple(workload.phase_bounds()), tuple(workload.data_bounds()))
        if self._pool is not None:
            self._shutdown_pool()

    def _decode_phase_views(self, workload: PhasedWorkload, jobs: Sequence[PhaseJob]
                            ) -> None:
        """Materialise (and account) the per-phase decodes the jobs share.

        Decodes are keyed by ``(kind, linesize, phase)`` only, never by
        configuration; :attr:`EngineStats.phase_decodes` counts each
        fresh decode so the phase benchmarks can assert the warm path
        re-decodes nothing as the configuration sweep grows.
        """
        with self._stage("phase_decode"):
            for kind, linesize in {(kind, cfg.linesize_bytes) for _, kind, cfg in jobs}:
                if not workload.has_phase_views(kind, linesize):
                    self.stats.phase_decodes += workload.phase_count
                workload.phase_views(kind, linesize)

    def _execute_phase_jobs(
        self, workload: PhasedWorkload, jobs: List[PhaseJob]
    ) -> None:
        """Run outstanding phase-chain jobs, pooled when it pays off."""
        if not jobs:
            return
        self.stats.phase_chains += len(jobs)
        groups = self._plan_groups(jobs)
        trace = workload.trace()
        if (self.workers <= 1 or len(jobs) < self.min_parallel_jobs
                or self._skip_small_batch(trace.transfer_nbytes(), len(jobs))):
            self._decode_phase_views(workload, jobs)
            for group in groups:
                for job, result in self.platform.simulate_phase_chains(
                        workload, group).items():
                    self.platform.install_phase_run(job, result)
            return

        key = workload.fingerprint()
        traces = {key: (trace.pcs, trace.data_addresses, trace.data_is_write)}
        phases = {key: (tuple(workload.phase_bounds()), tuple(workload.data_bounds()))}

        completed: Dict[PhaseJob, PhaseReplay] = {}
        try:
            pool = self._ensure_pool(traces, phases)
            futures = [pool.submit(_run_phase_group, chunk)
                       for chunk in self._chunk_groups(groups)]
            for future in as_completed(futures):
                chunk, replays, decodes, decode_seconds, telemetry = future.result()
                self._absorb_telemetry(telemetry)
                completed.update(zip(chunk, replays))
                if decodes:
                    # worker-side decode accounting: fresh decodes per worker
                    # per group (cumulative wall-clock across workers)
                    self.stats.phase_decodes += decodes
                    self.stats.add_stage("phase_decode", decode_seconds)
        except (OSError, BrokenProcessPool):
            # restricted sandboxes or killed workers: finish inline
            self._pool_failed()
            self._decode_phase_views(workload, jobs)
            for job in jobs:
                if job not in completed:
                    completed[job] = self.platform.simulate_phase_chain(workload, job)
            if self.pool_break_hook is not None:
                self.pool_break_hook()
        # deterministic merge: install in request order, not completion order
        for job in jobs:
            self.platform.install_phase_run(job, completed[job])

    # -- internals -------------------------------------------------------------------------

    def _from_store(self, workload: Workload, config: Configuration) -> Optional[Measurement]:
        if self.store is None:
            return None
        if self.platform.is_measured(workload, config):
            return None  # in-process memo is cheaper and already counted
        return self.store.get(workload, config)

    @staticmethod
    def _plan_groups(jobs: Sequence[CacheJob]) -> List[List[CacheJob]]:
        """Group pending jobs by their shared decode: (trace, kind, linesize).

        Every group's jobs replay one decoded columnar view; order within
        a group and across groups follows first-need order, so the plan
        is deterministic for a given batch.
        """
        groups: Dict[Tuple[str, str, int], List[CacheJob]] = {}
        for job in jobs:
            workload_key, kind, cache_cfg = job
            groups.setdefault(
                (workload_key, kind, cache_cfg.linesize_bytes), []).append(job)
        return list(groups.values())

    def _chunk_groups(self, groups: List[List[CacheJob]]) -> List[Tuple[CacheJob, ...]]:
        """Split large shared-decode groups so one group can span all workers.

        The per-process view cache makes the duplicated decode cheap (one
        per worker per group), while chunking keeps e.g. the Figure-2
        sweep -- one workload, one linesize, dozens of geometries --
        from serialising on a single worker.
        """
        chunks: List[Tuple[CacheJob, ...]] = []
        for group in groups:
            size = max(1, math.ceil(len(group) / self.workers))
            chunks.extend(
                tuple(group[i:i + size]) for i in range(0, len(group), size))
        return chunks

    def _group_key(self, group: Sequence[CacheJob]) -> Tuple[str, str, int]:
        workload_key, kind, cache_cfg = group[0]
        return (workload_key, kind, cache_cfg.linesize_bytes)

    def _run_cache_groups_inline(
        self,
        workloads_by_key: Mapping[str, Workload],
        groups: Sequence[Sequence[CacheJob]],
    ) -> None:
        """Replay the planned groups in-process (no pool, no publish)."""
        self._count_host_decodes(workloads_by_key, groups)
        for group in groups:
            workload = workloads_by_key[group[0][0]]
            for job, statistics in self.platform.simulate_cache_jobs(
                    workload, group).items():
                self.platform.install_cache_run(job, statistics)

    def _count_host_decodes(
        self,
        workloads_by_key: Mapping[str, Workload],
        groups: Sequence[Sequence[CacheJob]],
    ) -> None:
        """Account the fresh in-parent decodes the coming groups will pay."""
        for group in groups:
            workload_key, kind, linesize = self._group_key(group)
            trace = workloads_by_key[workload_key].trace()
            if not trace.has_columnar_view(kind, linesize):
                self.stats.host_decodes += 1

    def _publish_group_views(
        self,
        workloads_by_key: Mapping[str, Workload],
        groups: Sequence[Sequence[CacheJob]],
    ) -> Optional[Dict[Tuple[str, str, int], ArenaBlock]]:
        """Decode every group once in the parent and publish to the arena.

        Returns the per-group view blocks, or ``None`` when the arena is
        unavailable (callers then fall back to worker-side decodes).  The
        decode is paid at most once per host: the columnar view is cached
        on the trace and the published block is memoised per group key.
        """
        arena = self._get_arena()
        if arena is None:
            return None
        blocks: Dict[Tuple[str, str, int], ArenaBlock] = {}
        try:
            with self._stage("arena_publish", groups=len(groups)):
                for group in groups:
                    key = self._group_key(group)
                    block = self._view_blocks.get(key)
                    if block is None:
                        workload_key, kind, linesize = key
                        trace = workloads_by_key[workload_key].trace()
                        if not trace.has_columnar_view(kind, linesize):
                            self.stats.host_decodes += 1
                        view = trace.columnar_view(kind, linesize)
                        block = arena.publish_view(view)
                        self._view_blocks[key] = block
                    blocks[key] = block
        except OSError:  # pragma: no cover - /dev/shm exhausted or revoked
            self._arena_enabled = False
            return None
        finally:
            self._sync_arena_stats()
        return blocks

    def _execute_cache_jobs(
        self, batches: Mapping[Workload, Sequence[Configuration]], jobs: List[CacheJob]
    ) -> None:
        """Run outstanding cache jobs, in parallel when it pays off."""
        if not jobs:
            return
        self.stats.cache_simulations += len(jobs)
        self.stats.kernel_lane = kernel_lane()
        workloads_by_key = {w.fingerprint(): w for w in batches}
        groups = self._plan_groups(jobs)
        self.stats.cache_groups += len(groups)
        if self.workers <= 1 or len(jobs) < self.min_parallel_jobs:
            self._run_cache_groups_inline(workloads_by_key, groups)
            return

        needed = {key for key, _, _ in jobs}
        # decide before materialising anything: the masked data columns cost
        # real time to build, and a skipped batch never needs them
        trace_bytes = sum(
            workloads_by_key[key].trace().transfer_nbytes() for key in needed)
        if self._skip_small_batch(trace_bytes, len(jobs)):
            self._run_cache_groups_inline(workloads_by_key, groups)
            return
        traces = {}
        for key in sorted(needed):
            trace = workloads_by_key[key].trace()
            traces[key] = (trace.pcs, trace.data_addresses, trace.data_is_write)
        view_blocks = self._publish_group_views(workloads_by_key, groups)

        completed: Dict[CacheJob, CacheStatistics] = {}
        try:
            pool = self._ensure_pool(traces)
            futures = []
            for group in groups:
                block = None if view_blocks is None else view_blocks[self._group_key(group)]
                for chunk in self._chunk_groups([list(group)]):
                    if block is not None:
                        futures.append(
                            pool.submit(_run_cache_group_arena, chunk, block))
                    else:
                        futures.append(pool.submit(_run_cache_group, chunk))
            for future in as_completed(futures):
                chunk, statistics, decodes, decode_seconds, telemetry = future.result()
                self._absorb_telemetry(telemetry)
                completed.update(zip(chunk, statistics))
                if decodes:
                    # worker-side decode accounting: fresh decodes per worker
                    # per group (cumulative wall-clock across workers)
                    self.stats.worker_decodes += decodes
                    self.stats.add_stage("worker_decode", decode_seconds)
            self.stats.parallel_simulations += len(jobs)
        except (OSError, BrokenProcessPool):
            # restricted sandboxes or killed workers: finish inline
            self._pool_failed()
            for job in jobs:
                if job not in completed:
                    completed[job] = self.platform.simulate_cache_job(
                        workloads_by_key[job[0]], job)
            if self.pool_break_hook is not None:
                self.pool_break_hook()
        # deterministic merge: install in request order, not completion order
        for job in jobs:
            self.platform.install_cache_run(job, completed[job])
