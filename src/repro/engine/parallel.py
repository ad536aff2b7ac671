"""Batch evaluator: dedup, plan, read the store once, simulate once, write once.

The expensive part of a measurement is the trace and the trace-driven
cache simulation; synthesis and the timing model are vectorised/analytic
and cheap.  The :class:`ParallelEvaluator` measures one workload's batch
in these steps:

1. resolve the workload's trace fingerprint (from a store recipe row
   when it has one, otherwise by simulating);
2. collapse duplicate configurations (first-appearance order preserved)
   and plan the batch: the distinct cache geometries and the trace
   summary it needs that the platform's memos lack;
3. if anything is lacking, read the workload's stored rows once (the
   ``store_io`` stage) and install them into the platform's memos --
   what the store holds is never simulated;
4. replay what is still missing as *shared-decode groups* (the
   ``cache_simulation`` stage): every job of a group shares one ``(trace
   fingerprint, kind, linesize)`` key, so the trace is decoded into its
   columnar :class:`~repro.microarch.cachekernel.ColumnarTrace` view once
   and the whole configuration list replays against it;
5. let the platform assemble the measurements from the same plan, one
   broadcast timing evaluation for the batch (``sweep_evaluate``);
6. write the new geometry rows, and the summary if it is new, in one
   transaction (``store_io`` again).

The evaluator runs in the calling process.  A campaign scales out as
more independent row claimers (``run_experiments.py --claim``) sharing
one campaign database, not as a worker pool inside one evaluator.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.config.configuration import Configuration
from repro.engine.backend import EngineStats
from repro.engine.store import ResultStore
from repro.fpga.report import ResourceReport
from repro.obs.metrics import get_registry
from repro.obs.tracer import span
from repro.platform.liquid import CacheJob, LiquidPlatform, PhaseJob, job_group_key
from repro.platform.measurement import Measurement, PhasedMeasurement
from repro.workloads.base import Workload
from repro.workloads.phased import PhasedWorkload

__all__ = ["ParallelEvaluator"]


class ParallelEvaluator:
    """Batched :class:`~repro.engine.backend.EvaluationBackend` over a platform.

    Parameters
    ----------
    platform:
        The build-and-measure platform to wrap.  All memoisation, the
        measurement assembly and effort accounting stay on the platform, so the
        evaluator can be dropped into any consumer that previously held a
        bare :class:`~repro.platform.LiquidPlatform`.
    store:
        Optional persistent :class:`~repro.engine.store.ResultStore`;
        the trace summaries and cache geometries found there are never
        simulated, and new ones are written back, which makes campaigns
        resumable.
    """

    def __init__(
        self,
        platform: Optional[LiquidPlatform] = None,
        *,
        store: Optional[ResultStore] = None,
    ):
        self.platform = platform or LiquidPlatform()
        self.store = store
        if store is not None:
            store.bind_platform(self.platform.device, self.platform.timing_parameters)
        self.stats = EngineStats()
        #: cache runs installed from the store (not simulated here): a
        #: configuration measured from these alone is a store hit
        self._stored: Set[CacheJob] = set()
        #: fingerprint -> recipe of simulated workloads whose identity row
        #: is not written yet (it goes out with the batch's rows)
        self._recipes: Dict[str, str] = {}

    def close(self) -> None:
        """Nothing to release: the evaluator owns no process or segment.

        Kept, with the context-manager protocol, because callers --
        scripts, benchmarks and the pinned benchmark harness -- manage
        the evaluator's lifetime with ``with``.
        """

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def _stage(self, name: str, **attrs):
        """Time one pipeline stage: a span plus the ``stage_seconds`` sum.

        The span and the accumulated stage share one clock read, so the
        span tree of a traced run reconciles with ``stats.stage_seconds``
        exactly (a property the observability tests assert).
        """
        with span(name, **attrs) as opened:
            start = time.perf_counter()
            try:
                yield opened
            finally:
                self.stats.add_stage(name, time.perf_counter() - start)

    def _merge_host_metrics(self) -> None:
        """Fold the process-global metrics into this engine's registry.

        Library layers without an engine reference (store lock retries)
        count into the process registry; draining it at batch end
        parents those metrics under the run's :attr:`EngineStats.registry`
        without double counting across batches or evaluators.
        """
        deltas = get_registry().drain()
        if deltas:
            self.stats.registry.merge(deltas)

    # -- delegated single-shot API ---------------------------------------------------------

    @property
    def device(self):
        return self.platform.device

    def build(self, config: Configuration) -> ResourceReport:
        return self.platform.build(config)

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
        """Measure a batch for one workload; results align with ``configs``.

        The batch is planned once: duplicates collapse, the store's rows
        for the workload are read once if the memos lack anything, the
        distinct cache runs still missing replay in shared-decode groups
        (the ``cache_simulation`` stage), :meth:`LiquidPlatform.assemble
        <repro.platform.liquid.LiquidPlatform.assemble>` evaluates the
        batch in one broadcast from the same plan (``sweep_evaluate``),
        and the new rows are written in one transaction.
        """
        start = time.perf_counter()
        stats = self.stats
        stats.batches += 1
        self._resolve(workload)
        unique = list(dict.fromkeys(configs))
        stats.requested += len(configs)
        stats.dedup_hits += len(configs) - len(unique)
        platform = self.platform
        key_pairs, jobs = platform.cache_plan(workload, unique)
        summary_unstored, unstored = False, []
        if self.store is not None and (jobs or not platform.has_summary(workload)):
            summary_unstored, unstored = self._load(workload, key_pairs)
            jobs = platform.pending_jobs(jobs)
        stored = self._stored
        stats.store_hits += sum(
            1 for config, (ikey, dkey) in zip(unique, key_pairs)
            if ikey in stored and dkey in stored
            and not platform.is_measured(workload, config))
        if jobs or not platform.has_summary(workload):
            self._simulate(workload)

        with self._stage("cache_simulation", workload=workload.name) as stage:
            stage.set(jobs=len(jobs))
            if jobs:
                stats.cache_simulations += len(jobs)
                stats.cache_groups += len({job_group_key(job) for job in jobs})
                platform.install_cache_runs(platform.simulate_cache_jobs(workload, jobs))

        with self._stage("sweep_evaluate", configs=len(unique)):
            runs_before = platform.run_count
            measured = dict(zip(unique, platform.assemble(workload, unique, key_pairs)))
            stats.sweep_evaluations += platform.run_count - runs_before
        if self.store is not None:
            self._write(workload, summary_unstored, unstored)

        stats.wall_seconds += time.perf_counter() - start
        self._merge_host_metrics()
        return [measured[config] for config in configs]

    def _resolve(self, workload: Workload) -> None:
        """Make the workload's trace fingerprint known, simulating only if needed.

        A workload the store has seen resolves its fingerprint from its
        :meth:`~repro.workloads.base.Workload.recipe` without simulating;
        the functional simulator then runs only if some row is missing,
        and its trace checks the adopted fingerprint before anything is
        evaluated.  Any other workload simulates here (its fingerprint
        keys the rows), and its recipe row is written with the batch.
        """
        if workload.has_fingerprint():
            return
        store = self.store
        recipe = workload.recipe() if store is not None else None
        fingerprint = None if recipe is None else store.trace_fingerprint(recipe)
        if fingerprint is not None:
            self.stats.recipe_hits += 1
            workload.adopt_fingerprint(fingerprint)
            return
        self._simulate(workload)
        if recipe is not None:
            self.stats.recipe_misses += 1
            self._recipes[workload.fingerprint()] = recipe

    def _load(self, workload: Workload, key_pairs: Sequence[Tuple[CacheJob, CacheJob]]
              ) -> Tuple[bool, List[CacheJob]]:
        """Read the workload's stored rows once and install them in the memos.

        Returns what the store lacks of this batch: whether the summary
        row is missing, and the batch's cache jobs that have no row.
        :meth:`_write` persists both after the batch, whether the batch
        computes them or the platform's memos already held them (a
        platform that measured before this evaluator wrapped it).
        """
        fingerprint = workload.fingerprint()
        with self._stage("store_io", workload=workload.name) as stage:
            summary, runs = self.store.load(fingerprint)
            stage.set(rows_read=len(runs) + (summary is not None), rows_written=0)
        if summary is not None:
            self.platform.install_summary(fingerprint, summary)
        self._stored.update(self.platform.pending_jobs(runs))
        self.platform.install_cache_runs(runs)
        needed = dict.fromkeys(job for pair in key_pairs for job in pair)
        return summary is None, [job for job in needed if job not in runs]

    def _write(self, workload: Workload, summary_unstored: bool,
               unstored: Sequence[CacheJob]) -> None:
        """Write what the store lacked (and a pending recipe row) in one transaction."""
        fingerprint = workload.fingerprint()
        recipe = self._recipes.get(fingerprint)
        if not unstored and not summary_unstored and recipe is None:
            return
        platform = self.platform
        with self._stage("store_io", workload=workload.name) as stage:
            written = self.store.write(
                fingerprint, platform.cache_runs(unstored),
                summary=platform.summary(workload) if summary_unstored else None,
                recipe=recipe)
            stage.set(rows_read=0, rows_written=written)
        self._recipes.pop(fingerprint, None)
        self.stats.store_writes += written

    def _simulate(self, workload: Workload) -> None:
        """Run the functional simulator if the workload lacks a trace.

        The ``trace_generation`` stage opens only when it does, tagged
        with the workload's name, so a batch served entirely by recipe
        rows and store hits reports no trace-generation time at all.
        """
        if not workload.has_trace():
            with self._stage("trace_generation", workload=workload.name):
                workload.trace()

    # -- phased batches --------------------------------------------------------------------

    def measure_phases(
        self, workload: PhasedWorkload, configs: Sequence[Configuration]
    ) -> List[PhasedMeasurement]:
        """Measure a phased batch: overall measurements plus per-phase views.

        The overall measurements run through :meth:`measure_many`
        unchanged (store lookups, dedup and the shared-decode cache jobs
        all apply -- warm-chain totals are bit-identical to the
        single-shot concatenated replay, so persisted results stay
        valid).  The warm phase chains are planned as their own jobs,
        grouped by ``(trace fingerprint, kind, linesize)`` so each phase
        is decoded once per group and every configuration's cache state
        stays resident across its chain.
        """
        overall = self.measure_many(workload, configs)

        jobs = self.platform.phase_requests(workload, configs)
        with self._stage("phase_chain", jobs=len(jobs)):
            self._execute_phase_jobs(workload, jobs)
        self._merge_host_metrics()
        return self.platform.phased(workload, configs, overall)

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
        """Run the outstanding phase-chain jobs and install their replays."""
        if not jobs:
            return
        self.stats.phase_chains += len(jobs)
        self._decode_phase_views(workload, jobs)
        self.platform.install_phase_runs(self.platform.simulate_phase_chains(workload, jobs))
