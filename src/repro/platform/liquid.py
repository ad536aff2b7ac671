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
experiments.  The platform also counts how many *distinct* builds and
runs were needed, which is the quantity the paper's scalability argument
(linear versus exponential) is about.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.configuration import Configuration
from repro.errors import MeasurementError
from repro.fpga.device import FpgaDevice, XCV2000E
from repro.fpga.report import ResourceReport
from repro.fpga.synthesis import SynthesisModel
from repro.microarch.cache import Cache, CacheConfig, CacheStatistics
from repro.microarch.cachekernel import PhaseReplay, replay_phases, simulate_many
from repro.microarch.statistics import ExecutionStatistics
from repro.microarch.timing import TimingModel, TimingParameters, evaluate_many
from repro.obs.tracer import span
from repro.platform.measurement import Measurement, PhasedMeasurement
from repro.workloads.base import Workload
from repro.workloads.phased import PhasedWorkload

__all__ = ["LiquidPlatform", "CacheJob", "PhaseJob", "job_group_key", "plan_job_groups"]

#: One outstanding cache simulation: ``(workload_fingerprint, "icache"|"dcache",
#: geometry)``.  The engine layer fans these out over worker processes and
#: installs the resulting statistics back into the platform's memo store.
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
    simulation, the parallel engine's chunk planner and the arena's
    published-view keys, so a planning change cannot desynchronise them.
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
        # memoisation stores
        self._reports: Dict[Tuple, ResourceReport] = {}
        self._built: set = set()
        # keyed by (workload fingerprint, configuration): hashing the
        # Configuration reuses its cached key hash, so the sweep path's
        # per-grid-point membership probes cost a dict lookup, not a walk
        # over every parameter
        self._runs: Dict[Tuple, ExecutionStatistics] = {}
        self._cache_runs: Dict[Tuple, CacheStatistics] = {}
        self._phase_runs: Dict[Tuple, PhaseReplay] = {}
        # (icache, dcache) CacheConfig pair per configuration key: the
        # sweep planners re-derive job keys for every batch, and building
        # the geometry dataclasses dominates that planning cost
        self._cache_cfg_memo: Dict[Configuration, Tuple[CacheConfig, CacheConfig]] = {}
        # effort accounting
        self.build_count = 0
        self.run_count = 0

    # -- synthesis ------------------------------------------------------------------------

    def _synthesize(self, config: Configuration) -> ResourceReport:
        """Run (or reuse) the synthesis model without fit enforcement."""
        key = config.key()
        report = self._reports.get(key)
        if report is None:
            report = self.synthesis.synthesize(config)
            self._reports[key] = report
        return report

    def build(self, config: Configuration) -> ResourceReport:
        """Synthesise a configuration (memoised)."""
        key = config.key()
        report = self._synthesize(config)
        if key not in self._built:
            if self.enforce_fit and not report.fits():
                raise MeasurementError(
                    f"configuration does not fit on {self.device.name}: {report.summary()}")
            self._built.add(key)
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
        parameter on each of the sweep path's planning passes.
        """
        pair = self._cache_cfg_memo.get(config)
        if pair is None:
            pair = (CacheConfig.icache_from(config), CacheConfig.dcache_from(config))
            self._cache_cfg_memo[config] = pair
        return pair

    def _cache_keys(self, workload_key: str, config: Configuration) -> Tuple[Tuple, Tuple]:
        icache_cfg, dcache_cfg = self._cache_configs(config)
        return (workload_key, "icache", icache_cfg), (workload_key, "dcache", dcache_cfg)

    def cache_requests(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[CacheJob]:
        """Distinct, not-yet-simulated cache runs needed to measure ``configs``.

        The returned jobs are deterministic in order (first-need order over
        the batch) and safe to execute independently: every job gets a
        fresh :class:`Cache` whose PRNG is seeded from its own geometry,
        exactly as the sequential path does.
        """
        jobs: List[CacheJob] = []
        seen = set()
        workload_key = workload.fingerprint()
        # membership probes hash the full parameter key; on a fresh
        # platform (every sweep benchmark rep, every new campaign) the
        # memo is empty and the probe is pure overhead per grid point
        measured = self._runs
        for config in configs:
            if measured and (workload_key, config) in measured:
                continue
            for key in self._cache_keys(workload_key, config):
                if key in self._cache_runs or key in seen:
                    continue
                seen.add(key)
                jobs.append(key)
        return jobs

    def cache_plan(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> Tuple[List[Tuple[CacheJob, CacheJob]], List[CacheJob]]:
        """One planning pass over a sweep batch: key pairs plus pending jobs.

        Returns the per-config ``(icache job, dcache job)`` keys aligned
        with ``configs`` and the distinct not-yet-simulated jobs in
        first-need order (exactly :meth:`cache_requests` restricted to a
        batch with no already-measured configurations).  Callers that
        both fan the jobs out and assemble the statistics afterwards --
        the engine sweep path -- reuse the pairs instead of walking every
        configuration's parameter key a second time.
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

    def is_measured(self, workload: Workload, config: Configuration) -> bool:
        """True when :meth:`measure` would be answered entirely from memos."""
        return ((workload.fingerprint(), config) in self._runs
                and config.key() in self._built)

    def install_cache_run(self, job: CacheJob, statistics: CacheStatistics) -> None:
        """Install an externally simulated cache result into the memo store."""
        self._cache_runs.setdefault(job, statistics)

    def simulate_cache_job(self, workload: Workload, job: CacheJob) -> CacheStatistics:
        """Run one cache job in-process (the engine's worker does the same remotely)."""
        _, kind, cache_cfg = job
        view = workload.columnar_view(kind, cache_cfg.linesize_bytes)
        return Cache(cache_cfg).simulate_view(view)

    def simulate_cache_jobs(
        self, workload: Workload, jobs: Sequence[CacheJob]
    ) -> Dict[CacheJob, CacheStatistics]:
        """Run a batch of cache jobs for one workload with shared decodes.

        Jobs are grouped by ``(kind, linesize)``; each group replays the
        workload's single decoded columnar view once per configuration
        through :func:`~repro.microarch.cachekernel.simulate_many`.  The
        result of every job is bit-identical to
        :meth:`simulate_cache_job` run in isolation.
        """
        results: Dict[CacheJob, CacheStatistics] = {}
        for (_, kind, linesize), group in plan_job_groups(jobs).items():
            view = workload.columnar_view(kind, linesize)
            statistics = simulate_many(view, [job[2] for job in group])
            results.update(zip(group, statistics))
        return results

    # -- warm phase chains -----------------------------------------------------------------

    def phase_requests(
        self, workload: PhasedWorkload, configs: Sequence[Configuration]
    ) -> List[PhaseJob]:
        """Distinct, not-yet-replayed phase chains needed for ``configs``.

        The analogue of :meth:`cache_requests` for warm phase-chain
        replays; job order is deterministic (first-need order) and every
        job is independent: a chain replays against its own fresh state
        with the geometry's seeded PRNG.
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

    def install_phase_run(self, job: PhaseJob, replay: PhaseReplay) -> None:
        """Install an externally replayed phase chain into the memo store."""
        self._phase_runs.setdefault(job, replay)

    def simulate_phase_chain(
        self, workload: PhasedWorkload, job: PhaseJob
    ) -> PhaseReplay:
        """Replay one warm phase chain (plus cold starts) in-process."""
        _, kind, cache_cfg = job
        views = workload.phase_views(kind, cache_cfg.linesize_bytes)
        return replay_phases(views, cache_cfg)

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

    def phase_replays(
        self, workload: PhasedWorkload, config: Configuration
    ) -> Tuple[PhaseReplay, PhaseReplay]:
        """Memoised (icache, dcache) phase replays of one configuration."""
        ikey, dkey = self._cache_keys(workload.fingerprint(), config)
        for key in (ikey, dkey):
            if key not in self._phase_runs:
                self._phase_runs[key] = self.simulate_phase_chain(workload, key)
        return self._phase_runs[ikey], self._phase_runs[dkey]

    def measure_phases(
        self, workload: PhasedWorkload, configs: Sequence[Configuration]
    ) -> List[PhasedMeasurement]:
        """Measure a batch of configurations with per-phase cache views.

        The overall measurement of each configuration is exactly
        :meth:`measure` (warm-chain totals are bit-identical to the
        single-shot replay of the concatenated trace); the phased result
        adds the warm-chained and cold-started per-phase statistics.
        """
        measurements = self.measure_many(workload, configs)
        results = []
        for config, measurement in zip(configs, measurements):
            icache, dcache = self.phase_replays(workload, config)
            results.append(PhasedMeasurement(
                measurement=measurement,
                phases=workload.phase_names,
                icache=icache,
                dcache=dcache,
            ))
        return results

    def _cache_statistics(
        self, workload: Workload, config: Configuration
    ) -> Tuple[CacheStatistics, CacheStatistics]:
        ikey, dkey = self._cache_keys(workload.fingerprint(), config)
        if ikey not in self._cache_runs:
            self._cache_runs[ikey] = self.simulate_cache_job(workload, ikey)
        if dkey not in self._cache_runs:
            self._cache_runs[dkey] = self.simulate_cache_job(workload, dkey)
        return self._cache_runs[ikey], self._cache_runs[dkey]

    def profile(self, workload: Workload, config: Configuration) -> ExecutionStatistics:
        """Cycle-accurate profile of ``workload`` on ``config`` (memoised)."""
        key = (workload.fingerprint(), config)
        if key not in self._runs:
            cache_stats = self._cache_statistics(workload, config)
            timing = TimingModel(config, self.timing_parameters)
            self._runs[key] = timing.evaluate(workload.trace(), *cache_stats)
            self.run_count += 1
        return self._runs[key]

    # -- combined measurement -------------------------------------------------------------------

    def measure(self, workload: Workload, config: Configuration) -> Measurement:
        """Build ``config`` and run ``workload`` on it."""
        resources = self.build(config)
        statistics = self.profile(workload, config)
        return Measurement(
            workload=workload.name,
            configuration=config,
            resources=resources,
            statistics=statistics,
        )

    def measure_many(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Measure a batch of configurations; results align with ``configs``.

        Duplicate configurations are measured once.  This is the batch
        entry point of the :class:`~repro.engine.backend.EvaluationBackend`
        protocol; the sequential platform evaluates the unique
        configurations in first-appearance order, which parallel backends
        must reproduce bit-identically.
        """
        unique: Dict[Tuple, Measurement] = {}
        for config in configs:
            key = config.key()
            if key not in unique:
                unique[key] = self.measure(workload, config)
        return [unique[config.key()] for config in configs]

    def measure_sweep(
        self,
        workload: Workload,
        configs: Sequence[Configuration],
        *,
        batched: bool = True,
        cache_pairs: Optional[List[Tuple[CacheJob, CacheJob]]] = None,
    ) -> List[Measurement]:
        """Measure a configuration grid through the broadcast-batched path.

        The sweep fast path factors the work the per-configuration loop
        repeats: cache statistics come from the shared-decode
        :meth:`simulate_cache_jobs` batch (grouped by geometry), and the
        timing model evaluates the whole grid at once through
        :func:`~repro.microarch.timing.evaluate_many` -- the trace is
        summarised into one feature vector and each cycle term is a
        single array operation over the grid.  Results are bit-identical
        to :meth:`measure_many` (which ``batched=False`` falls back to),
        and all memo stores are shared, so the two paths interleave
        freely.

        ``cache_pairs`` lets a caller that already planned the batch
        through :meth:`cache_plan` (the engine sweep path) hand the
        per-config job keys back in, skipping the second planning pass;
        it must align positionally with ``configs`` and is ignored
        whenever deduplication or memo hits would break that alignment.
        """
        if not batched:
            return self.measure_many(workload, configs)
        workload_key = workload.fingerprint()
        unique: List[Configuration] = []
        seen = set()
        for config in configs:
            key = config.key()
            if key not in seen:
                seen.add(key)
                unique.append(config)
        # builds first (memoised; fit enforcement raises on the first
        # non-buildable configuration, like the per-config path)
        reports = {config.key(): self.build(config) for config in unique}

        missing = (list(unique) if not self._runs else
                   [c for c in unique if (workload_key, c) not in self._runs])
        if missing:
            # one planning pass serves both the job dispatch and the
            # statistics-pair assembly below (an engine that already fanned
            # the jobs out over its pool finds nothing left to simulate)
            if cache_pairs is not None and len(cache_pairs) == len(missing) == len(configs):
                key_pairs = cache_pairs
                jobs = [key for key in dict.fromkeys(
                    key for pair in key_pairs for key in pair)
                    if key not in self._cache_runs]
            else:
                key_pairs, jobs = self.cache_plan(workload, missing)
            if jobs:
                for job, statistics in self.simulate_cache_jobs(
                        workload, jobs).items():
                    self.install_cache_run(job, statistics)
            pairs = [(self._cache_runs[ikey], self._cache_runs[dkey])
                     for ikey, dkey in key_pairs]
            with span("timing_eval", configs=len(missing), workload=workload.name):
                evaluated = evaluate_many(
                    workload.trace(), missing, pairs, self.timing_parameters)
            for config, statistics in zip(missing, evaluated):
                self._runs[(workload_key, config)] = statistics
                self.run_count += 1
        return [
            Measurement(
                workload=workload.name,
                configuration=config,
                resources=reports[config.key()],
                statistics=self._runs[(workload_key, config)],
            )
            for config in configs
        ]

    def effort(self) -> Dict[str, int]:
        """Distinct builds and runs performed so far (scalability accounting)."""
        return {"builds": self.build_count, "runs": self.run_count}
