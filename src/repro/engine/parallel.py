"""Batch evaluator: dedup, plan, simulate once, persist.

The expensive part of a measurement is the trace-driven cache simulation;
synthesis and the timing model are vectorised/analytic and cheap.  The
:class:`ParallelEvaluator` therefore plans a batch as follows:

1. collapse duplicate configurations (first-appearance order preserved);
2. answer what it can from the persistent
   :class:`~repro.engine.store.ResultStore` and the wrapped platform's
   in-process memo stores;
3. compute the set of *distinct missing cache simulations* across every
   workload in the batch and replay them as *shared-decode groups*: every
   job of a group shares one ``(trace fingerprint, kind, linesize)`` key,
   so the trace is decoded into its columnar
   :class:`~repro.microarch.cachekernel.ColumnarTrace` view once and the
   whole configuration list replays against it;
4. install the results into the platform's memo store in job order and
   let the platform assemble the final measurements.

The evaluator runs in the calling process.  A campaign scales out as
more independent row claimers (``run_experiments.py --claim``) sharing
one campaign database, not as a worker pool inside one evaluator.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config.configuration import Configuration
from repro.engine.backend import EngineStats
from repro.engine.store import ResultStoreBase
from repro.fpga.report import ResourceReport
from repro.microarch.cachekernel import kernel_lane
from repro.microarch.statistics import ExecutionStatistics
from repro.obs.metrics import get_registry
from repro.obs.tracer import span
from repro.platform.liquid import CacheJob, LiquidPlatform, PhaseJob, plan_job_groups
from repro.platform.measurement import Measurement, PhasedMeasurement
from repro.workloads.base import Workload
from repro.workloads.phased import PhasedWorkload

__all__ = ["ParallelEvaluator"]


class ParallelEvaluator:
    """Batched :class:`~repro.engine.backend.EvaluationBackend` over a platform.

    Parameters
    ----------
    platform:
        The sequential build-and-measure platform to accelerate.  All
        memoisation and effort accounting stays on the platform, so the
        evaluator can be dropped into any consumer that previously held a
        bare :class:`~repro.platform.LiquidPlatform`.
    store:
        Optional persistent result store (JSON-lines
        :class:`~repro.engine.store.ResultStore` or
        :class:`~repro.engine.store.SqliteResultStore`); measurements
        found there skip simulation entirely and newly computed ones are
        appended, which makes campaigns resumable.
    """

    def __init__(
        self,
        platform: Optional[LiquidPlatform] = None,
        *,
        store: Optional[ResultStoreBase] = None,
    ):
        self.platform = platform or LiquidPlatform()
        self.store = store
        if store is not None:
            store.bind_platform(self.platform.device, self.platform.timing_parameters)
        self.stats = EngineStats()

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
        """Measure several workloads' batches in one planning pass.

        The cache simulations of *all* workloads are collected into one
        deduplicated job list before any replay runs.  Results are keyed
        by the workload *instances* (names may legitimately repeat across
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

        with self._stage("cache_simulation",
                         workload=",".join(w.name for w, _, _ in plan),
                         jobs=len(jobs)):
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
        missing cache simulations replay in shared-decode groups.  The
        difference is the assembly stage: instead of a per-config
        Python loop, the remaining configurations are evaluated in one
        :meth:`LiquidPlatform.measure_sweep
        <repro.platform.liquid.LiquidPlatform.measure_sweep>` broadcast,
        bit-identical to the scalar path.
        """
        start = time.perf_counter()
        self.stats.batches += 1

        [(_, missing, ready)] = self._plan_batches({workload: configs})

        with self._stage("cache_simulation", workload=workload.name) as stage:
            # one planning pass: the pairs feed the platform sweep below so
            # it never rewalks the grid's parameter keys after the replays
            key_pairs, jobs = self.platform.cache_plan(workload, missing)
            stage.set(jobs=len(jobs))
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
        for job, replay in self.platform.simulate_phase_chains(workload, jobs).items():
            self.platform.install_phase_run(job, replay)

    # -- internals -------------------------------------------------------------------------

    def _from_store(self, workload: Workload, config: Configuration) -> Optional[Measurement]:
        if self.store is None:
            return None
        if self.platform.is_measured(workload, config):
            return None  # in-process memo is cheaper and already counted
        return self.store.get(workload, config)

    def _execute_cache_jobs(
        self, batches: Mapping[Workload, Sequence[Configuration]], jobs: List[CacheJob]
    ) -> None:
        """Replay the outstanding cache jobs, one shared decode per group."""
        if not jobs:
            return
        self.stats.cache_simulations += len(jobs)
        self.stats.kernel_lane = kernel_lane()
        workloads_by_key = {w.fingerprint(): w for w in batches}
        groups = plan_job_groups(jobs)
        self.stats.cache_groups += len(groups)
        for (workload_key, _, _), group in groups.items():
            for job, statistics in self.platform.simulate_cache_jobs(
                    workloads_by_key[workload_key], group).items():
                self.platform.install_cache_run(job, statistics)
