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
synthesis and the timing model are cheap arithmetic on top.  Their
results are memoised as batch rows: a resource-table row per
configuration and a timing-table row per (workload, configuration).

A batch (:meth:`LiquidPlatform.measure_many`) is measured in these steps:

1. read the distinct configurations once into integer columns
   (:class:`~repro.config.configuration.ConfigurationColumns`) and build
   them: the configurations not synthesised before are synthesised in one
   coefficient pass (the ``synthesis`` span), and fit enforcement raises
   before anything is simulated;
2. resolve the workload's trace fingerprint (the ``recipe`` stage) --
   from the store's input-key row, which needs no program, else from its
   recipe row, otherwise by simulating;
3. plan the batch once from its geometry columns: each cache's distinct
   geometries (one :class:`~repro.microarch.cache.CacheConfig` each) and
   every row's index among them, plus the trace summary the memos lack;
4. make the plan's jobs and the summary present
   (:meth:`LiquidPlatform.provide`, which a campaign worker also runs
   for its claimed jobs): if anything is lacking, read the workload's
   stored rows once (the ``store_io`` stage) and install them in the
   memos -- what the store holds is never simulated; replay what is
   still missing in shared-decode groups (the ``cache_simulation``
   stage): every job of a group shares one ``(trace fingerprint, kind,
   linesize)`` key, so the trace is decoded into its columnar view once
   and the whole geometry list replays against it; then write the rows
   the store lacked, and the summary if it is new, in one transaction
   (``store_io`` again);
5. assemble the batch (``sweep_evaluate``): the configurations not timed
   before are timed in one broadcast
   :func:`~repro.microarch.timing.evaluate_many` call (``timing_eval``),
   and the result is a :class:`~repro.platform.measurement.MeasurementBatch`
   -- NumPy columns of resources, cycles and cache statistics -- that
   builds a :class:`~repro.platform.measurement.Measurement` only for a
   row a caller reads.

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
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.config.configuration import (Configuration, ConfigurationColumns,
                                        configuration_columns)
from repro.config.leon_space import Replacement
from repro.errors import MeasurementError
from repro.fpga.device import FpgaDevice, XCV2000E
from repro.fpga.report import BRAM_COMPONENTS, LUT_COMPONENTS, ResourceReport, resource_totals
from repro.fpga.synthesis import SynthesisModel
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.microarch.cachekernel import simulate_many
from repro.microarch.timing import TIMING_COLUMNS, TimingParameters, evaluate_many
from repro.microarch.trace import TraceSummary
from repro.obs.metrics import EngineStats, get_registry
from repro.obs.tracer import span
from repro.platform.measurement import Measurement, MeasurementBatch
from repro.workloads.base import Workload

if TYPE_CHECKING:  # the store module imports this one
    from repro.engine.store import ResultStore

__all__ = ["LiquidPlatform", "CacheJob", "CachePlan", "job_group_key", "plan_job_groups"]

#: One cache simulation: ``(trace fingerprint, "icache"|"dcache", geometry)``.
#: :meth:`LiquidPlatform.cache_plan` lists a batch's, :meth:`LiquidPlatform.provide`
#: installs their statistics in the platform's memo store, and a campaign row
#: is one.
#: Keys use :meth:`~repro.workloads.base.Workload.fingerprint` rather than the
#: workload name so same-named workloads with different traces never alias.
CacheJob = Tuple[str, str, CacheConfig]

#: The configuration columns of one cache's geometry, in
#: :class:`~repro.microarch.cache.CacheConfig` field order.
_GEOMETRY_FIELDS = ("sets", "setsize_kb", "linesize_words", "replacement")


class CachePlan(NamedTuple):
    """The cache jobs of one batch, planned from its geometry columns.

    ``icache`` and ``dcache`` list each cache's distinct jobs in
    first-need order; ``icache_rows`` and ``dcache_rows`` give every row
    of the batch the index of its own job in them.
    """

    icache: List[CacheJob]
    icache_rows: np.ndarray
    dcache: List[CacheJob]
    dcache_rows: np.ndarray

    def jobs(self) -> List[CacheJob]:
        """Every distinct job of the batch."""
        return self.icache + self.dcache


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
    geometries and trace identities found there are never simulated, and new ones
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
        # memoisation stores, keyed by the Configuration itself (hashing it
        # reuses its cached key hash): a resource-table row per
        # configuration, and a timing-table row per configuration of each
        # workload fingerprint
        self._reports: Dict[Configuration, np.ndarray] = {}
        self._built: Set[Configuration] = set()
        self._runs: Dict[str, Dict[Configuration, np.ndarray]] = {}
        self._cache_runs: Dict[Tuple, CacheStatistics] = {}
        # trace summary per workload fingerprint: with the cache runs, all
        # a measurement needs, so a workload whose summary and geometries
        # were installed from a result store is measured without its trace
        self._summaries: Dict[str, TraceSummary] = {}
        # one CacheConfig per distinct geometry row (ways, way size, line
        # size, replacement code) the planner has met
        self._geometries: Dict[Tuple[int, int, int, int], CacheConfig] = {}
        #: cache runs installed from the store (not simulated here): a
        #: configuration measured from these alone is a store hit
        self._stored: Set[CacheJob] = set()
        #: fingerprint -> the identity rows (recipe, input key) the store
        #: lacks for it; they go out with the batch's rows
        self._identities: Dict[str, List[str]] = {}

    # -- synthesis ------------------------------------------------------------------------

    def _resources(self, configs: Sequence[Configuration],
                   workload: Optional[str] = None) -> np.ndarray:
        """The resource table of a batch, without fit enforcement.

        Only the configurations this platform has not synthesised before
        are synthesised, in one pass (the ``synthesis`` span, tagged with
        the batch's workload, ``None`` for a fit screen); every row is
        memoised.
        """
        reports = self._reports
        rows = [reports.get(config) for config in configs]
        todo = [i for i, row in enumerate(rows) if row is None]
        if todo:
            columns = configuration_columns(configs)
            batch = columns if len(todo) == len(rows) else columns.take(todo)
            with span("synthesis", configs=len(batch), workload=workload):
                table = self.synthesis.synthesize(batch)
            for i, config, row in zip(todo, batch, table):
                reports[config] = rows[i] = row
            if batch is columns:
                return table
        return np.array(rows, dtype=np.int64).reshape(
            len(rows), len(LUT_COMPONENTS) + len(BRAM_COMPONENTS))

    def build_many(self, configs: Sequence[Configuration],
                   workload: Optional[str] = None) -> np.ndarray:
        """Synthesise a batch (memoised) and return its resource table.

        With fit enforcement, a configuration that does not fit raises
        :class:`~repro.errors.MeasurementError` before any is counted as
        built (a built configuration is known to fit).
        """
        table = self._resources(configs, workload)
        built = self._built
        new = [config for config in configs if config not in built]
        if new and self.enforce_fit:
            fits = self.device.fits(*resource_totals(table))
            if not fits.all():
                report = ResourceReport.from_row(
                    self.device, table[int(np.argmin(fits))].tolist())
                raise MeasurementError(
                    f"configuration does not fit on {self.device.name}: {report.summary()}")
        built.update(new)
        return table

    def build(self, config: Configuration) -> ResourceReport:
        """Synthesise a configuration (memoised)."""
        return ResourceReport.from_row(self.device, self.build_many([config])[0].tolist())

    def report(self, config: Configuration) -> ResourceReport:
        """The resource report of a configuration, without fit enforcement."""
        return ResourceReport.from_row(self.device, self._resources([config])[0].tolist())

    def fits_many(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Which configurations of a batch can be built on the device (a bool column).

        The resource rows are memoised and shared with :meth:`build`, so a
        campaign that pre-screens every perturbation never synthesises a
        configuration twice.
        """
        return self.device.fits(*resource_totals(self._resources(configs)))

    def fits(self, config: Configuration) -> bool:
        """True when the configuration can be built on the platform's device."""
        return bool(self.fits_many([config])[0])

    # -- execution -------------------------------------------------------------------------

    def _cache_jobs(self, fingerprint: str, kind: str, columns: ConfigurationColumns
                    ) -> Tuple[List[CacheJob], np.ndarray]:
        """One cache's distinct jobs for a batch, and each row's index among them."""
        keys = zip(*(columns.column(f"{kind}_{field}").tolist()
                     for field in _GEOMETRY_FIELDS))
        index: Dict[Tuple[int, int, int, int], int] = {}
        rows = [index.setdefault(key, len(index)) for key in keys]
        geometries = self._geometries
        jobs = []
        for key in index:
            geometry = geometries.get(key)
            if geometry is None:
                ways, setsize_kb, linesize_words, replacement = key
                geometry = geometries[key] = CacheConfig(
                    ways, setsize_kb, linesize_words, Replacement.ALL[replacement])
            jobs.append((fingerprint, kind, geometry))
        return jobs, np.array(rows, dtype=np.intp)

    def cache_plan(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> Tuple[CachePlan, List[CacheJob]]:
        """The one planning pass over a batch: its :class:`CachePlan` plus pending jobs.

        The geometry columns are read once; a
        :class:`~repro.microarch.cache.CacheConfig` is built only for a
        distinct geometry (and once per platform).  The pending jobs are
        the plan's jobs not yet simulated.  The plan feeds
        :meth:`assemble` once the jobs have run.
        """
        fingerprint, columns = workload.fingerprint(), configuration_columns(configs)
        plan = CachePlan(*self._cache_jobs(fingerprint, "icache", columns),
                         *self._cache_jobs(fingerprint, "dcache", columns))
        runs = self._cache_runs
        return plan, [job for job in plan.jobs() if job not in runs]

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
    ) -> MeasurementBatch:
        """Measure a batch of configurations; the rows align with ``configs``.

        The batch is planned once (see the module docstring): duplicates
        collapse, every distinct configuration is built, :meth:`provide`
        makes the plan's cache runs and the trace summary present (and
        persists what the store lacked), and :meth:`assemble` times the
        batch in one broadcast from the same plan.  All memo
        stores are shared across batches.  ``configs`` may be a
        :class:`~repro.config.configuration.ConfigurationColumns`, whose
        columns are then not read again.
        """
        start = time.perf_counter()
        stats = self.stats
        stats.batches += 1
        requested = configuration_columns(configs)
        first: Dict[Configuration, int] = {}
        for row, config in enumerate(requested):
            first.setdefault(config, row)
        columns = (requested if len(first) == len(requested)
                   else requested.take(list(first.values())))
        stats.requested += len(requested)
        stats.dedup_hits += len(requested) - len(columns)
        resources = self.build_many(columns, workload.name)
        self._resolve(workload)
        plan, _ = self.cache_plan(workload, columns)
        self.provide(workload, plan.jobs())
        with self._stage("sweep_evaluate", configs=len(columns)):
            batch = self.assemble(workload, columns, resources, plan)

        stats.wall_seconds += time.perf_counter() - start
        if columns is requested:
            return batch
        position = {config: index for index, config in enumerate(columns)}
        return batch.take([position[config] for config in requested])

    def provide(self, workload: Workload, jobs: Sequence[CacheJob]) -> None:
        """Make the workload's trace summary and the runs of ``jobs`` present.

        With a store, the workload's stored rows are read once (the
        ``store_io`` stage) if the memos lack anything, and installed --
        what the store holds is never simulated.  The trace is generated
        only if something is still missing, the missing runs replay in
        shared-decode groups (the ``cache_simulation`` stage), and every
        row of ``jobs`` the store lacked, the summary if it was missing,
        and the workload's pending identity rows are written in one
        transaction.  This is the part of :meth:`measure_many` that
        precedes timing, and all a campaign worker runs for its claimed
        jobs.  The jobs must be the workload's (keyed by its fingerprint).
        """
        stats = self.stats
        pending = self.pending_jobs(jobs)
        summary_unstored, unstored = False, []
        if self.store is not None and (pending or not self.has_summary(workload)):
            summary_unstored, unstored = self._load(workload, jobs)
            pending = self.pending_jobs(pending)
        if pending or not self.has_summary(workload):
            self._simulate(workload)
        with self._stage("cache_simulation", workload=workload.name) as stage:
            stage.set(jobs=len(pending))
            if pending:
                stats.cache_simulations += len(pending)
                stats.cache_groups += len({job_group_key(job) for job in pending})
                self.install_cache_runs(self.simulate_cache_jobs(workload, pending))
        if self.store is not None:
            self._write(workload, summary_unstored, unstored)
        self._merge_host_metrics()

    def assemble(
        self,
        workload: Workload,
        configs: Sequence[Configuration],
        resources: np.ndarray,
        plan: CachePlan,
    ) -> MeasurementBatch:
        """The measurement batch of distinct configurations whose cache runs are installed.

        ``resources`` is the batch's :meth:`build_many` table and ``plan``
        its :meth:`cache_plan`.  The configurations not timed before on
        this workload are evaluated in one
        :func:`~repro.microarch.timing.evaluate_many` broadcast over the
        workload's :meth:`summary` -- each cycle term is a single array
        operation over the batch -- and counted as
        :attr:`EngineStats.sweep_evaluations
        <repro.obs.metrics.EngineStats.sweep_evaluations>`; their term
        rows are memoised.  With a store, the rows timed here from stored
        cache rows alone count as store hits.  No :class:`Measurement` is
        built here.
        """
        columns = configuration_columns(configs)
        summary = self.summary(workload)
        cache_runs = self._cache_runs
        icache = [cache_runs[job] for job in plan.icache]
        dcache = [cache_runs[job] for job in plan.dcache]
        timed = self._runs.setdefault(workload.fingerprint(), {})
        known = [timed.get(config) for config in columns]
        fresh = [row for row, timing in enumerate(known) if timing is None]
        if self.store is not None:
            self.stats.store_hits += self._store_hits(fresh, plan)
        if fresh:
            batch = columns if len(fresh) == len(columns) else columns.take(fresh)
            misses = [np.array([s.read_misses for s in stats], dtype=np.int64)[rows[fresh]]
                      for stats, rows in ((icache, plan.icache_rows), (dcache, plan.dcache_rows))]
            with span("timing_eval", configs=len(batch), workload=workload.name):
                timing = evaluate_many(summary, batch, *misses, self.timing_parameters)
            for row, config, terms in zip(fresh, batch, timing):
                timed[config] = known[row] = terms
            self.stats.sweep_evaluations += len(batch)
        if fresh and batch is columns:
            table = timing
        else:
            table = np.array(known, dtype=np.int64).reshape(len(columns), len(TIMING_COLUMNS))
        return MeasurementBatch(
            workload.name, columns.configurations, self.device, resources,
            summary.features.instruction_count, table,
            [icache[index] for index in plan.icache_rows.tolist()],
            [dcache[index] for index in plan.dcache_rows.tolist()])

    def _store_hits(self, rows: Sequence[int], plan: CachePlan) -> int:
        """How many of the batch's ``rows`` both caches answer from store rows."""
        stored = self._stored
        icache = [job in stored for job in plan.icache]
        dcache = [job in stored for job in plan.dcache]
        icache_rows, dcache_rows = plan.icache_rows.tolist(), plan.dcache_rows.tolist()
        return sum(icache[icache_rows[row]] and dcache[dcache_rows[row]] for row in rows)

    def _resolve(self, workload: Workload) -> None:
        """Make the workload's trace fingerprint known, simulating only if needed.

        With a store, the ``recipe`` stage looks the fingerprint up by the
        workload's :meth:`~repro.workloads.base.Workload.input_key`, which
        needs no program, then by its
        :meth:`~repro.workloads.base.Workload.recipe`, which assembles one;
        its ``hit`` attribute names the row that answered (``input``,
        ``recipe`` or ``miss``).  A resolved workload simulates only if
        some row is missing, and its trace checks the adopted fingerprint
        before anything is evaluated.  Any other workload simulates here
        (its fingerprint keys the rows).  The identity rows the store
        lacked -- the input key after a recipe hit, both after a miss --
        are written with the batch.
        """
        if workload.has_fingerprint():
            return
        if self.store is None:
            self._simulate(workload)
            return
        with self._stage("recipe", workload=workload.name) as stage:
            hit, fingerprint, unstored = self._lookup(workload)
            stage.set(hit=hit)
        if fingerprint is None:
            self._simulate(workload)
            fingerprint = workload.fingerprint()
        else:
            workload.adopt_fingerprint(fingerprint)
        if unstored:
            self._identities[fingerprint] = unstored

    def _lookup(self, workload: Workload) -> Tuple[str, Optional[str], List[str]]:
        """Which identity row names the trace, its fingerprint, and the rows missing."""
        store, stats = self.store, self.stats
        unstored: List[str] = []
        key = workload.input_key()
        if key is not None:
            fingerprint = store.trace_fingerprint(key)
            if fingerprint is not None:
                stats.input_hits += 1
                return "input", fingerprint, unstored
            stats.input_misses += 1
            unstored.append(key)
        recipe = workload.recipe()
        fingerprint = store.trace_fingerprint(recipe)
        if fingerprint is not None:
            stats.recipe_hits += 1
            return "recipe", fingerprint, unstored
        stats.recipe_misses += 1
        return "miss", None, unstored + [recipe]

    def _load(self, workload: Workload, jobs: Sequence[CacheJob]
              ) -> Tuple[bool, List[CacheJob]]:
        """Read the workload's stored rows once and install them in the memos.

        Returns what the store lacks: whether the summary row is missing,
        and which of ``jobs`` have no row.
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
        return summary is None, [job for job in jobs if job not in runs]

    def _write(self, workload: Workload, summary_unstored: bool,
               unstored: Sequence[CacheJob]) -> None:
        """Write what the store lacked (and pending identity rows) in one transaction."""
        fingerprint = workload.fingerprint()
        identities = self._identities.get(fingerprint, ())
        if not unstored and not summary_unstored and not identities:
            return
        with self._stage("store_io", workload=workload.name) as stage:
            written = self.store.write(
                fingerprint, {job: self._cache_runs[job] for job in unstored},
                summary=self.summary(workload) if summary_unstored else None,
                identities=identities)
            stage.set(rows_read=0, rows_written=written)
        self._identities.pop(fingerprint, None)
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
        draining it at the end of :meth:`provide`, after the last of them
        a batch runs, parents those metrics under
        :attr:`EngineStats.registry <repro.obs.metrics.EngineStats.registry>`
        without double counting across batches or platforms.
        """
        deltas = get_registry().drain()
        if deltas:
            self.stats.registry.merge(deltas)

    def effort(self) -> Dict[str, int]:
        """Distinct builds and runs performed so far (scalability accounting)."""
        return {"builds": len(self._built), "runs": self.stats.sweep_evaluations}
