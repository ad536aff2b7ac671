"""The Liquid Architecture measurement platform (simulation-backed).

The paper's Liquid Architecture platform instantiates a LEON2 processor
configuration on the FPGA, runs the application directly on it and uses a
hardware cycle counter to report the runtime; synthesis reports provide
the chip resources.  :class:`LiquidPlatform` provides the same black-box
"build and measure" interface on top of our substrates:

* *build* = run the analytic synthesis model (instead of a ~30-minute
  FPGA synthesis run);
* *measure* = replay the workload's configuration-independent execution
  trace through the cache and pipeline timing models (instead of a
  multi-second/minute run on real hardware).

Builds and measurements are memoised exactly like the real platform
caches bitstreams: the campaign asks for many configurations that share
cache geometries, and re-simulating them would dominate the cost of the
experiments.  A run's cost is the trace plus one replay per cache
geometry; the memos keep exactly those reductions (one trace summary per
workload, one :class:`~repro.microarch.cache.CacheStatistics` per
geometry), and an optional result store persists the same two, so
synthesis and the timing model are cheap arithmetic on top.

A batch (:meth:`LiquidPlatform.measure_many`) is measured in these steps:

1. build every distinct configuration (fit enforcement raises before
   anything is simulated);
2. resolve the workload's trace fingerprint -- from the store's recipe
   row when it has one, otherwise by simulating;
3. plan the batch once: the distinct cache geometries and the trace
   summary it needs that the memos lack;
4. if anything is lacking, read the workload's stored rows once (the
   ``store_io`` stage) and install them in the memos -- what the store
   holds is never simulated;
5. replay what is still missing in shared-decode groups (the
   ``cache_simulation`` stage): every job of a group shares one ``(trace
   fingerprint, kind, linesize)`` key, so the trace is decoded into its
   columnar view once and the whole geometry list replays against it;
6. time every new configuration in one broadcast
   :func:`~repro.microarch.timing.evaluate_many` call
   (``sweep_evaluate``);
7. write the new rows, and the summary if it is new, in one transaction
   (``store_io`` again).

The platform accounts its work in :attr:`LiquidPlatform.stats`,
including how many *distinct* builds and runs were needed, which is the
quantity the paper's scalability argument (linear versus exponential)
is about.  It runs in the calling process; a campaign scales out as
more row claimers (``run_experiments.py --claim``) sharing one campaign
database.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.config.configuration import Configuration
from repro.errors import MeasurementError
from repro.fpga.device import FpgaDevice, XCV2000E
from repro.fpga.report import ResourceReport
from repro.fpga.synthesis import SynthesisModel
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.microarch.cachekernel import PhaseReplay, replay_phases, simulate_many
from repro.microarch.statistics import ExecutionStatistics
from repro.microarch.timing import TimingParameters, evaluate_many
from repro.microarch.trace import TraceSummary
from repro.obs.metrics import EngineStats, get_registry
from repro.obs.tracer import span
from repro.platform.measurement import Measurement, PhasedMeasurement
from repro.workloads.base import Workload
from repro.workloads.phased import PhasedWorkload

if TYPE_CHECKING:  # the store module imports this one
    from repro.engine.store import ResultStore

__all__ = ["LiquidPlatform", "CacheJob", "PhaseJob", "job_group_key", "plan_job_groups"]

#: One outstanding cache simulation: ``(workload_fingerprint, "icache"|"dcache",
#: geometry)``.  :meth:`LiquidPlatform.cache_plan` lists the ones a batch
#: lacks; their statistics are installed back into the platform's memo store.
#: Keys use :meth:`~repro.workloads.base.Workload.fingerprint` rather than the
#: workload name so same-named workloads with different traces never alias.
CacheJob = Tuple[str, str, CacheConfig]

#: One outstanding warm phase-chain replay, same key shape as :data:`CacheJob`
#: but resolving to a :class:`~repro.microarch.cachekernel.PhaseReplay` (the
#: per-phase warm-chained and cold-started statistics of one geometry).  The
#: fingerprint of a :class:`~repro.workloads.phased.PhasedWorkload` covers its
#: phase boundaries, so two different cuts of one trace never share a job.
PhaseJob = Tuple[str, str, CacheConfig]


def job_group_key(job: CacheJob) -> Tuple[str, str, int]:
    """Shared-decode group of one job: ``(workload, kind, linesize)``.

    Jobs with the same key replay one decoded
    :class:`~repro.microarch.cachekernel.ColumnarTrace`; this is the
    single definition of "same group" used by the platform's batch
    simulation and the engine's batch planner, so a planning change
    cannot desynchronise them.
    """
    workload_key, kind, cache_cfg = job
    return (workload_key, kind, cache_cfg.linesize_bytes)


def plan_job_groups(jobs: Sequence[CacheJob]) -> Dict[Tuple[str, str, int], List[CacheJob]]:
    """Group jobs by :func:`job_group_key`, preserving first-need order."""
    groups: Dict[Tuple[str, str, int], List[CacheJob]] = {}
    for job in jobs:
        groups.setdefault(job_group_key(job), []).append(job)
    return groups


class LiquidPlatform:
    """Black-box build-and-measure service used by the optimisation campaign.

    ``store`` is an optional persistent
    :class:`~repro.engine.store.ResultStore`: the trace summaries, cache
    geometries and recipes found there are never simulated, and new ones
    are written back, which makes campaigns resumable.  The store is
    bound to this platform's device and calibration; the caller that
    opened it closes it.
    """

    def __init__(
        self,
        device: FpgaDevice = XCV2000E,
        synthesis_model: Optional[SynthesisModel] = None,
        timing_parameters: Optional[TimingParameters] = None,
        *,
        enforce_fit: bool = True,
        store: Optional["ResultStore"] = None,
    ):
        self.device = device
        self.synthesis = synthesis_model or SynthesisModel(device)
        self.timing_parameters = timing_parameters or TimingParameters()
        self.enforce_fit = enforce_fit
        self.store = store
        if store is not None:
            store.bind_platform(device, self.timing_parameters)
        self.stats = EngineStats()
        # memoisation stores, keyed by the Configuration itself (or with it):
        # hashing it reuses its cached key hash, so per-grid-point
        # membership probes cost a dict lookup, not a walk over every
        # parameter
        self._reports: Dict[Configuration, ResourceReport] = {}
        self._built: set = set()
        self._runs: Dict[Tuple, ExecutionStatistics] = {}
        self._cache_runs: Dict[Tuple, CacheStatistics] = {}
        self._phase_runs: Dict[Tuple, PhaseReplay] = {}
        # trace summary per workload fingerprint: with the cache runs, all
        # a measurement needs, so a workload whose summary and geometries
        # were installed from a result store is measured without its trace
        self._summaries: Dict[str, TraceSummary] = {}
        # (icache, dcache) CacheConfig pair per configuration key: the
        # planner re-derives job keys for every batch, and building the
        # geometry dataclasses dominates that planning cost
        self._cache_cfg_memo: Dict[Configuration, Tuple[CacheConfig, CacheConfig]] = {}
        #: cache runs installed from the store (not simulated here): a
        #: configuration measured from these alone is a store hit
        self._stored: Set[CacheJob] = set()
        #: fingerprint -> recipe of simulated workloads whose identity row
        #: is not written yet (it goes out with the batch's rows)
        self._recipes: Dict[str, str] = {}
        self.build_count = 0

    # -- synthesis ------------------------------------------------------------------------

    def _synthesize(self, config: Configuration) -> ResourceReport:
        """Run (or reuse) the synthesis model without fit enforcement."""
        report = self._reports.get(config)
        if report is None:
            report = self.synthesis.synthesize(config)
            self._reports[config] = report
        return report

    def build(self, config: Configuration) -> ResourceReport:
        """Synthesise a configuration (memoised)."""
        report = self._synthesize(config)
        if config not in self._built:
            if self.enforce_fit and not report.fits():
                raise MeasurementError(
                    f"configuration does not fit on {self.device.name}: {report.summary()}")
            self._built.add(config)
            self.build_count += 1
        return report

    def fits(self, config: Configuration) -> bool:
        """True when the configuration can be built on the platform's device.

        The synthesis report is memoised and shared with :meth:`build`, so
        a campaign that pre-screens every perturbation never synthesises a
        configuration twice.
        """
        return self._synthesize(config).fits()

    # -- execution -------------------------------------------------------------------------

    def _cache_configs(self, config: Configuration) -> Tuple[CacheConfig, CacheConfig]:
        """Memoised (icache, dcache) geometry pair of one configuration.

        Keyed by the configuration itself: its hash is computed once at
        construction, where hashing the raw key tuple would rewalk every
        parameter on each planning pass.
        """
        pair = self._cache_cfg_memo.get(config)
        if pair is None:
            pair = (CacheConfig.icache_from(config), CacheConfig.dcache_from(config))
            self._cache_cfg_memo[config] = pair
        return pair

    def _cache_keys(self, workload_key: str, config: Configuration) -> Tuple[Tuple, Tuple]:
        icache_cfg, dcache_cfg = self._cache_configs(config)
        return (workload_key, "icache", icache_cfg), (workload_key, "dcache", dcache_cfg)

    def cache_plan(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> Tuple[List[Tuple[CacheJob, CacheJob]], List[CacheJob]]:
        """The one planning pass over a batch: key pairs plus pending jobs.

        Returns the per-config ``(icache job, dcache job)`` keys aligned
        with ``configs`` and the distinct not-yet-simulated jobs in
        first-need order.  The pairs feed :meth:`assemble` once the jobs
        have run, so no configuration's parameter key is walked twice.
        """
        workload_key = workload.fingerprint()
        key_pairs = [self._cache_keys(workload_key, c) for c in configs]
        jobs: List[CacheJob] = []
        seen = set()
        for pair in key_pairs:
            for key in pair:
                if key in self._cache_runs or key in seen:
                    continue
                seen.add(key)
                jobs.append(key)
        return key_pairs, jobs

    def has_summary(self, workload: Workload) -> bool:
        """True when :meth:`summary` will not need the workload's trace."""
        return workload.fingerprint() in self._summaries

    def summary(self, workload: Workload) -> TraceSummary:
        """The memoised :class:`~repro.microarch.trace.TraceSummary` of a workload."""
        fingerprint = workload.fingerprint()
        summary = self._summaries.get(fingerprint)
        if summary is None:
            summary = self._summaries[fingerprint] = workload.trace().summary()
        return summary

    def install_summary(self, fingerprint: str, summary: TraceSummary) -> None:
        """Install a trace summary (e.g. a stored one) into the memo."""
        self._summaries.setdefault(fingerprint, summary)

    def pending_jobs(self, jobs: Sequence[CacheJob]) -> List[CacheJob]:
        """The jobs of a :meth:`cache_plan` whose runs are still not installed."""
        return [job for job in jobs if job not in self._cache_runs]

    def install_cache_runs(self, runs: Dict[CacheJob, CacheStatistics]) -> None:
        """Install simulated cache results into the memo store."""
        for job, statistics in runs.items():
            self._cache_runs.setdefault(job, statistics)

    def simulate_cache_jobs(
        self, workload: Workload, jobs: Sequence[CacheJob]
    ) -> Dict[CacheJob, CacheStatistics]:
        """Run a batch of cache jobs for one workload with shared decodes.

        Jobs are grouped by ``(kind, linesize)``; each group replays the
        workload's single decoded columnar view once per configuration
        through :func:`~repro.microarch.cachekernel.simulate_many`.  Every
        job gets a fresh cache whose PRNG is seeded from its own geometry,
        so a job's result never depends on the batch it ran in.
        """
        results: Dict[CacheJob, CacheStatistics] = {}
        for (_, kind, linesize), group in plan_job_groups(jobs).items():
            view = workload.columnar_view(kind, linesize)
            statistics = simulate_many(view, [job[2] for job in group])
            results.update(zip(group, statistics))
        return results

    # -- measurement --------------------------------------------------------------------

    def measure(self, workload: Workload, config: Configuration) -> Measurement:
        """Build ``config`` and run ``workload`` on it (a batch of one)."""
        return self.measure_many(workload, [config])[0]

    def measure_many(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Measure a batch of configurations; results align with ``configs``.

        The batch is planned once (see the module docstring): duplicates
        collapse, every distinct configuration is built, the store's rows
        for the workload are read once if the memos lack anything, the
        cache runs still missing replay in shared-decode groups,
        :meth:`assemble` times the batch in one broadcast from the same
        plan, and the new rows are written in one transaction.  All memo
        stores are shared across batches.
        """
        start = time.perf_counter()
        stats = self.stats
        stats.batches += 1
        unique = list(dict.fromkeys(configs))
        stats.requested += len(configs)
        stats.dedup_hits += len(configs) - len(unique)
        for config in unique:
            self.build(config)
        self._resolve(workload)
        key_pairs, jobs = self.cache_plan(workload, unique)
        if self.store is not None:
            summary_unstored, unstored = False, []
            if jobs or not self.has_summary(workload):
                summary_unstored, unstored = self._load(workload, key_pairs)
                jobs = self.pending_jobs(jobs)
            workload_key, stored = workload.fingerprint(), self._stored
            stats.store_hits += sum(
                1 for config, (ikey, dkey) in zip(unique, key_pairs)
                if ikey in stored and dkey in stored
                and (workload_key, config) not in self._runs)
        if jobs or not self.has_summary(workload):
            self._simulate(workload)

        with self._stage("cache_simulation", workload=workload.name) as stage:
            stage.set(jobs=len(jobs))
            if jobs:
                stats.cache_simulations += len(jobs)
                stats.cache_groups += len({job_group_key(job) for job in jobs})
                self.install_cache_runs(self.simulate_cache_jobs(workload, jobs))

        with self._stage("sweep_evaluate", configs=len(unique)):
            measured = dict(zip(unique, self.assemble(workload, unique, key_pairs)))
        if self.store is not None:
            self._write(workload, summary_unstored, unstored)

        stats.wall_seconds += time.perf_counter() - start
        self._merge_host_metrics()
        return [measured[config] for config in configs]

    def assemble(
        self,
        workload: Workload,
        configs: Sequence[Configuration],
        key_pairs: Sequence[Tuple[CacheJob, CacheJob]],
    ) -> List[Measurement]:
        """Measurements of distinct configurations whose cache runs are installed.

        ``key_pairs`` are the :meth:`cache_plan` pairs aligned with
        ``configs``.  The configurations not measured before are evaluated
        in one :func:`~repro.microarch.timing.evaluate_many` broadcast
        over the workload's :meth:`summary` -- each cycle term is a single
        array operation over the batch -- and counted as
        :attr:`EngineStats.sweep_evaluations
        <repro.obs.metrics.EngineStats.sweep_evaluations>`.
        """
        workload_key = workload.fingerprint()
        reports = [self.build(config) for config in configs]
        runs = self._runs
        fresh = [(config, pair) for config, pair in zip(configs, key_pairs)
                 if (workload_key, config) not in runs]
        if fresh:
            cache_runs = self._cache_runs
            with span("timing_eval", configs=len(fresh), workload=workload.name):
                evaluated = evaluate_many(
                    self.summary(workload), [config for config, _ in fresh],
                    [(cache_runs[ikey], cache_runs[dkey]) for _, (ikey, dkey) in fresh],
                    self.timing_parameters)
            for (config, _), statistics in zip(fresh, evaluated):
                runs[(workload_key, config)] = statistics
            self.stats.sweep_evaluations += len(fresh)
        return [
            Measurement(
                workload=workload.name,
                configuration=config,
                resources=report,
                statistics=runs[(workload_key, config)],
            )
            for config, report in zip(configs, reports)
        ]

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
        computes them or the memos already held them (runs measured
        before the platform's store held them).
        """
        fingerprint = workload.fingerprint()
        with self._stage("store_io", workload=workload.name) as stage:
            summary, runs = self.store.load(fingerprint)
            stage.set(rows_read=len(runs) + (summary is not None), rows_written=0)
        if summary is not None:
            self.install_summary(fingerprint, summary)
        self._stored.update(self.pending_jobs(runs))
        self.install_cache_runs(runs)
        needed = dict.fromkeys(job for pair in key_pairs for job in pair)
        return summary is None, [job for job in needed if job not in runs]

    def _write(self, workload: Workload, summary_unstored: bool,
               unstored: Sequence[CacheJob]) -> None:
        """Write what the store lacked (and a pending recipe row) in one transaction."""
        fingerprint = workload.fingerprint()
        recipe = self._recipes.get(fingerprint)
        if not unstored and not summary_unstored and recipe is None:
            return
        with self._stage("store_io", workload=workload.name) as stage:
            written = self.store.write(
                fingerprint, {job: self._cache_runs[job] for job in unstored},
                summary=self.summary(workload) if summary_unstored else None,
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
        """Fold the process-global metrics into this platform's registry.

        Library layers without a platform reference (store lock retries,
        replay and simulator counters) count into the process registry;
        draining it at batch end parents those metrics under
        :attr:`EngineStats.registry <repro.obs.metrics.EngineStats.registry>`
        without double counting across batches or platforms.
        """
        deltas = get_registry().drain()
        if deltas:
            self.stats.registry.merge(deltas)

    # -- warm phase chains -----------------------------------------------------------------

    def phase_requests(
        self, workload: PhasedWorkload, configs: Sequence[Configuration]
    ) -> List[PhaseJob]:
        """Distinct, not-yet-replayed phase chains needed for ``configs``.

        Job order is deterministic (first-need order) and every job is
        independent: a chain replays against its own fresh state with the
        geometry's seeded PRNG.
        """
        jobs: List[PhaseJob] = []
        seen = set()
        workload_key = workload.fingerprint()
        for config in configs:
            for key in self._cache_keys(workload_key, config):
                if key in self._phase_runs or key in seen:
                    continue
                seen.add(key)
                jobs.append(key)
        return jobs

    def install_phase_runs(self, replays: Dict[PhaseJob, PhaseReplay]) -> None:
        """Install phase-chain replays into the memo store."""
        for job, replay in replays.items():
            self._phase_runs.setdefault(job, replay)

    def simulate_phase_chains(
        self, workload: PhasedWorkload, jobs: Sequence[PhaseJob]
    ) -> Dict[PhaseJob, PhaseReplay]:
        """Replay a batch of phase chains with shared per-phase decodes.

        Jobs are grouped by ``(kind, linesize)``; each group decodes the
        workload's phases once (cached on the workload) and replays every
        configuration's chain against the shared views with its own
        resident :class:`~repro.microarch.cachekernel.KernelState`.
        """
        results: Dict[PhaseJob, PhaseReplay] = {}
        for (_, kind, linesize), group in plan_job_groups(jobs).items():
            views = workload.phase_views(kind, linesize)
            for job in group:
                results[job] = replay_phases(views, job[2])
        return results

    def phased(
        self,
        workload: PhasedWorkload,
        configs: Sequence[Configuration],
        measurements: Sequence[Measurement],
    ) -> List[PhasedMeasurement]:
        """Attach the memoised phase replays to overall measurements."""
        workload_key = workload.fingerprint()
        results = []
        for config, measurement in zip(configs, measurements):
            ikey, dkey = self._cache_keys(workload_key, config)
            results.append(PhasedMeasurement(
                measurement=measurement,
                phases=workload.phase_names,
                icache=self._phase_runs[ikey],
                dcache=self._phase_runs[dkey],
            ))
        return results

    def measure_phases(
        self, workload: PhasedWorkload, configs: Sequence[Configuration]
    ) -> List[PhasedMeasurement]:
        """Measure a batch of configurations with per-phase cache views.

        The overall measurements run through :meth:`measure_many`
        unchanged (store lookups, dedup and the shared-decode cache jobs
        all apply -- warm-chain totals are bit-identical to the
        single-shot replay of the concatenated trace, so persisted rows
        stay valid).  The warm phase chains are planned as their own
        jobs, grouped by ``(trace fingerprint, kind, linesize)`` so each
        phase is decoded once per group (``phase_decode``; each fresh
        decode counts in :attr:`EngineStats.phase_decodes
        <repro.obs.metrics.EngineStats.phase_decodes>`) and every
        configuration's cache state stays resident across its chain
        (``phase_chain``).
        """
        overall = self.measure_many(workload, configs)
        jobs = self.phase_requests(workload, configs)
        with self._stage("phase_chain", jobs=len(jobs)):
            if jobs:
                self.stats.phase_chains += len(jobs)
                with self._stage("phase_decode"):
                    for kind, linesize in {(kind, cfg.linesize_bytes) for _, kind, cfg in jobs}:
                        if not workload.has_phase_views(kind, linesize):
                            self.stats.phase_decodes += workload.phase_count
                        workload.phase_views(kind, linesize)
                self.install_phase_runs(self.simulate_phase_chains(workload, jobs))
        self._merge_host_metrics()
        return self.phased(workload, configs, overall)

    def effort(self) -> Dict[str, int]:
        """Distinct builds and runs performed so far (scalability accounting)."""
        return {"builds": self.build_count, "runs": self.stats.sweep_evaluations}
