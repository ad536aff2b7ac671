"""Batch evaluator: dedup, plan, simulate once, persist.

The expensive part of a measurement is the trace-driven cache simulation;
synthesis and the timing model are vectorised/analytic and cheap.  The
:class:`ParallelEvaluator` measures one workload's batch in five steps:

1. resolve the workload's trace fingerprint (from a store recipe row
   when it has one, otherwise by simulating);
2. collapse duplicate configurations (first-appearance order preserved)
   and answer what it can from the persistent
   :class:`~repro.engine.store.ResultStore`;
3. plan the *distinct missing cache simulations* once and replay them as
   *shared-decode groups* (the ``cache_simulation`` stage): every job of
   a group shares one ``(trace fingerprint, kind, linesize)`` key, so the
   trace is decoded into its columnar
   :class:`~repro.microarch.cachekernel.ColumnarTrace` view once and the
   whole configuration list replays against it;
4. let the platform assemble the measurements from the same plan, one
   broadcast timing evaluation for the batch (``sweep_evaluate``);
5. write the new measurements to the store.

The evaluator runs in the calling process.  A campaign scales out as
more independent row claimers (``run_experiments.py --claim``) sharing
one campaign database, not as a worker pool inside one evaluator.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.configuration import Configuration
from repro.engine.backend import EngineStats
from repro.engine.store import ResultStoreBase
from repro.fpga.report import ResourceReport
from repro.obs.metrics import get_registry
from repro.obs.tracer import span
from repro.platform.liquid import LiquidPlatform, PhaseJob, job_group_key
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

        The batch is planned once: duplicates collapse, the store answers
        what it holds, the distinct missing cache runs replay in
        shared-decode groups (the ``cache_simulation`` stage), and
        :meth:`LiquidPlatform.assemble
        <repro.platform.liquid.LiquidPlatform.assemble>` evaluates the
        rest in one broadcast from the same plan (``sweep_evaluate``)
        before the new measurements are written to the store.
        """
        start = time.perf_counter()
        stats = self.stats
        stats.batches += 1
        missing, ready = self._plan(workload, configs)
        platform = self.platform

        with self._stage("cache_simulation", workload=workload.name) as stage:
            key_pairs, jobs = platform.cache_plan(workload, missing)
            stage.set(jobs=len(jobs))
            if jobs:
                stats.cache_simulations += len(jobs)
                stats.cache_groups += len({job_group_key(job) for job in jobs})
                platform.install_cache_runs(platform.simulate_cache_jobs(workload, jobs))

        with self._stage("sweep_evaluate", configs=len(missing)):
            runs_before = platform.run_count
            for config, measurement in zip(
                    missing, platform.assemble(workload, missing, key_pairs)):
                ready[config] = measurement
                if self.store is not None and self.store.put(workload, measurement):
                    stats.store_writes += 1
            stats.sweep_evaluations += platform.run_count - runs_before

        stats.wall_seconds += time.perf_counter() - start
        self._merge_host_metrics()
        return [ready[config] for config in configs]

    def _plan(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> Tuple[List[Configuration], Dict[Configuration, Measurement]]:
        """Resolve the workload's trace identity, then dedup and consult the store.

        A workload the store has seen resolves its trace fingerprint from
        its :meth:`~repro.workloads.base.Workload.recipe` and is planned
        without simulating; the functional simulator then runs only if
        some configuration misses the store, and its trace checks the
        adopted fingerprint before anything is evaluated.  Any other
        workload simulates before planning (its fingerprint keys the
        lookups), and the store records its recipe for the next run.

        Returns the configurations still to measure (first-appearance
        order) and the measurements already answered, keyed by the
        configuration itself (hashing a :class:`Configuration` reuses its
        cached key hash).
        """
        stats = self.stats
        store = self.store
        if not workload.has_fingerprint():
            recipe = workload.recipe() if store is not None else None
            fingerprint = None if recipe is None else store.trace_fingerprint(recipe)
            if fingerprint is not None:
                stats.recipe_hits += 1
                workload.adopt_fingerprint(fingerprint)
            else:
                self._simulate(workload)
                if recipe is not None:
                    stats.recipe_misses += 1
                    store.put_trace(recipe, workload.fingerprint())

        stats.requested += len(configs)
        seen = set()
        ready: Dict[Configuration, Measurement] = {}
        missing: List[Configuration] = []
        for config in configs:
            if config in seen:
                stats.dedup_hits += 1
                continue
            seen.add(config)
            stored = self._from_store(workload, config)
            if stored is not None:
                ready[config] = stored
                stats.store_hits += 1
            else:
                missing.append(config)
        if missing:
            self._simulate(workload)
        return missing, ready

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

    # -- internals -------------------------------------------------------------------------

    def _from_store(self, workload: Workload, config: Configuration) -> Optional[Measurement]:
        if self.store is None:
            return None
        if self.platform.is_measured(workload, config):
            return None  # in-process memo is cheaper and already counted
        return self.store.get(workload, config)
