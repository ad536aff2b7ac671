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
geometry), and a result store persists the same two, so synthesis and
the timing model are cheap arithmetic on top.  The platform also counts
how many *distinct* builds and runs were needed, which is the quantity
the paper's scalability argument (linear versus exponential) is about.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from repro.obs.tracer import span
from repro.platform.measurement import Measurement, PhasedMeasurement
from repro.workloads.base import Workload
from repro.workloads.phased import PhasedWorkload

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
    """Black-box build-and-measure service used by the optimisation campaign."""

    def __init__(
        self,
        device: FpgaDevice = XCV2000E,
        synthesis_model: Optional[SynthesisModel] = None,
        timing_parameters: Optional[TimingParameters] = None,
        *,
        enforce_fit: bool = True,
    ):
        self.device = device
        self.synthesis = synthesis_model or SynthesisModel(device)
        self.timing_parameters = timing_parameters or TimingParameters()
        self.enforce_fit = enforce_fit
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
        # effort accounting
        self.build_count = 0
        self.run_count = 0

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

    def cache_runs(self, jobs: Iterable[CacheJob]) -> Dict[CacheJob, CacheStatistics]:
        """The installed runs of ``jobs`` (every one must be installed)."""
        return {job: self._cache_runs[job] for job in jobs}

    def is_measured(self, workload: Workload, config: Configuration) -> bool:
        """True when :meth:`measure` would be answered entirely from memos."""
        return ((workload.fingerprint(), config) in self._runs
                and config in self._built)

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

        Duplicates are measured once.  Every unique configuration is
        built first (fit enforcement raises before anything replays), the
        cache runs the batch lacks are planned once with
        :meth:`cache_plan` and replayed in shared-decode groups through
        :meth:`simulate_cache_jobs`, and :meth:`assemble` evaluates the
        timing model for the whole batch at once.  All memo stores are
        shared across batches.
        """
        unique = list(dict.fromkeys(configs))
        for config in unique:
            self.build(config)
        key_pairs, jobs = self.cache_plan(workload, unique)
        if jobs:
            self.install_cache_runs(self.simulate_cache_jobs(workload, jobs))
        measured = dict(zip(unique, self.assemble(workload, unique, key_pairs)))
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
        array operation over the batch.  The engine calls this directly
        with the plan of its own batch, so a batch is planned once.
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
            self.run_count += len(fresh)
        return [
            Measurement(
                workload=workload.name,
                configuration=config,
                resources=report,
                statistics=runs[(workload_key, config)],
            )
            for config, report in zip(configs, reports)
        ]

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

        The overall measurement of each configuration is exactly
        :meth:`measure_many` (warm-chain totals are bit-identical to the
        single-shot replay of the concatenated trace); the phased result
        adds the warm-chained and cold-started per-phase statistics.
        """
        measurements = self.measure_many(workload, configs)
        self.install_phase_runs(self.simulate_phase_chains(
            workload, self.phase_requests(workload, configs)))
        return self.phased(workload, configs, measurements)

    def effort(self) -> Dict[str, int]:
        """Distinct builds and runs performed so far (scalability accounting)."""
        return {"builds": self.build_count, "runs": self.run_count}
