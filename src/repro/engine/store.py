"""The persistent result store: trace reductions, not measurements.

A measurement is synthesis plus the timing model evaluated over two
reductions of the workload's execution trace: one
:class:`~repro.microarch.trace.TraceSummary` (name, feature vector,
register-window trap table) and one
:class:`~repro.microarch.cache.CacheStatistics` per cache geometry the
configuration uses.  Synthesis and the timing model are cheap arithmetic;
the trace and the replays are not.  The store therefore keeps exactly
those sufficient statistics, in one SQLite file:

* ``summaries``: one row per trace -- the trace's name, its
  :meth:`~repro.microarch.trace.ExecutionTrace.features` and its
  18-entry window-trap table;
* ``cache_stats``: one row per ``(trace, kind, geometry)`` -- the five
  counts of one replay;
* ``traces``: the map from a workload's
  :meth:`~repro.workloads.base.Workload.input_key` (a digest of its
  constructor arguments, instruction budget, simulator version and the
  package's code, ``input:``-prefixed) to its trace fingerprint, so a
  warm run keys its reads without assembling or simulating anything.
  The key column is named ``recipe`` after an older identity; files
  written with it keep those rows, which nothing reads.

Nothing derived from a configuration, the synthesis model, the device
or the timing calibration is persisted: a run under different
:class:`~repro.microarch.timing.TimingParameters` or another device
re-derives every measurement from the same rows.  What is persisted --
the replay counts, the feature vector and the trap table, which is the
timing model's window-trap walk
(:func:`~repro.microarch.timing.window_trap_table`) for every window
count -- is versioned instead.  The reductions are keyed by the trace
fingerprint (a digest of the trace itself, so a scaled-down workload
never aliases the full-size one of the same name) and by
:data:`~repro.microarch.cachekernel.KERNEL_VERSION`; a lookup reads only
rows of the current version, so a replay, feature or trap-walk change
that bumps the version orphans every older row instead of serving it
(``tests/test_golden_numbers.py`` pins the golden files and the summary
rows per version, so such a change without a bump fails).
Rows are deterministic results, so concurrent writers (campaign workers
on several hosts sharing one file) agree and insert with ``INSERT OR
IGNORE``.

A store-backed platform reads one workload's rows once per batch (:meth:`ResultStore.load`),
unless its memos already answer the whole batch, and writes every row of
the batch the store lacked in one transaction (:meth:`ResultStore.write`).  A file written in the older
per-configuration layout (a ``measurements`` table) raises
:class:`~repro.errors.StoreFormatError` instead of being migrated.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sqlite3
import time
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.config.configuration import Configuration, ConfigurationColumns
from repro.errors import StoreFormatError
from repro.fpga.device import FpgaDevice, XCV2000E
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.microarch.cachekernel import KERNEL_VERSION
from repro.microarch.timing import TimingParameters
from repro.microarch.trace import TraceFeatures, TraceSummary
from repro.platform.liquid import CacheJob, LiquidPlatform
from repro.platform.measurement import Measurement
from repro.workloads.base import Workload

__all__ = [
    "ResultStore",
    "SqliteResultStore",
    "busy_retry",
    "config_key_string",
    "connect_sqlite",
    "open_store",
    "platform_context",
]

#: File extensions :func:`open_store` accepts (every store is SQLite).
SQLITE_EXTENSIONS = (".sqlite", ".sqlite3", ".db")

_T = TypeVar("_T")

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS summaries ("
    " kernel INTEGER NOT NULL,"
    " fingerprint TEXT NOT NULL,"
    " name TEXT NOT NULL,"
    " instruction_count INTEGER NOT NULL,"
    " load_use_hazards INTEGER NOT NULL,"
    " cc_branch_hazards INTEGER NOT NULL,"
    " class_counts TEXT NOT NULL,"
    " window_traps TEXT NOT NULL,"
    " PRIMARY KEY (kernel, fingerprint))",
    "CREATE TABLE IF NOT EXISTS cache_stats ("
    " kernel INTEGER NOT NULL,"
    " fingerprint TEXT NOT NULL,"
    " kind TEXT NOT NULL,"
    " ways INTEGER NOT NULL,"
    " setsize_kb INTEGER NOT NULL,"
    " linesize_words INTEGER NOT NULL,"
    " replacement TEXT NOT NULL,"
    " seed INTEGER NOT NULL,"
    " accesses INTEGER NOT NULL,"
    " read_accesses INTEGER NOT NULL,"
    " write_accesses INTEGER NOT NULL,"
    " read_misses INTEGER NOT NULL,"
    " write_misses INTEGER NOT NULL,"
    " PRIMARY KEY (kernel, fingerprint, kind, ways, setsize_kb,"
    "              linesize_words, replacement, seed))",
    "CREATE TABLE IF NOT EXISTS traces ("
    " recipe TEXT PRIMARY KEY,"
    " fingerprint TEXT NOT NULL)",
)

_SUMMARY_COLUMNS = ("name, instruction_count, load_use_hazards, cc_branch_hazards,"
                    " class_counts, window_traps")
_GEOMETRY_COLUMNS = "kind, ways, setsize_kb, linesize_words, replacement, seed"
_COUNT_COLUMNS = "accesses, read_accesses, write_accesses, read_misses, write_misses"


def connect_sqlite(path: str, *, busy_timeout_ms: int = 10_000) -> sqlite3.Connection:
    """Open a SQLite connection configured for concurrent campaign access.

    Every SQLite connection of the engine layer -- the measurement store
    and the campaign experiment table alike -- goes through this helper
    so they share one concurrency posture:

    * ``journal_mode=WAL``: readers never block the single writer, which
      is what lets many campaign workers claim rows and write results
      against one database file without serialising on a rollback
      journal;
    * ``synchronous=NORMAL``: per-commit durability without a full
      journal fsync per measurement;
    * ``busy_timeout``: a writer that meets another writer's lock waits
      it out inside SQLite instead of raising ``database is locked``
      immediately (the :func:`busy_retry` wrapper handles the residual
      timeouts under heavy claim contention);
    * ``check_same_thread=False``: the tuning service constructs its
      store/grid on the main thread but drains jobs on its executor
      thread (and answers ``/metrics`` reads from handler threads) --
      safe because this interpreter's ``sqlite3`` is built serialized
      (``sqlite3.threadsafety == 3``), which we assert rather than
      silently hand out an unprotected connection.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    share = sqlite3.threadsafety == 3
    conn = sqlite3.connect(path, check_same_thread=not share)
    # switching a new file to WAL can report "locked" without waiting
    # while another connection does the same
    busy_retry(lambda: conn.execute("PRAGMA journal_mode=WAL"))
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
    return conn


def busy_retry(
    operation: Callable[[], _T],
    *,
    attempts: int = 6,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    on_conflict: Optional[Callable[[], None]] = None,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> _T:
    """Run a SQLite transaction, retrying lock conflicts with jittered backoff.

    ``busy_timeout`` already makes SQLite wait for a lock *inside* one
    statement, but a campaign's claim/write transactions can still lose
    the race once the timeout expires under heavy multi-worker
    contention.  This wrapper retries exactly those ``database is
    locked``/``busy`` failures (anything else propagates immediately),
    and reports each conflict through ``on_conflict``, its only
    accounting: the platform counts its store writes' conflicts in
    :attr:`~repro.obs.metrics.EngineStats.store_conflicts` and a campaign
    worker its claim transactions' in
    :attr:`~repro.obs.metrics.EngineStats.claim_conflicts`.

    The delays use *decorrelated jitter* rather than pure exponential
    backoff: each one is drawn uniformly from ``[base_delay, 3 * the
    previous delay]`` and clamped to ``max_delay``.  N workers that
    collide on one lock therefore spread their retries apart instead of
    re-colliding in lockstep at 50/100/200 ms forever -- the failure
    mode of the jitter-free schedule this replaced.  ``rng`` and
    ``sleep`` exist for deterministic contention tests.
    """
    rng = rng or random
    delay = base_delay
    for attempt in range(attempts):
        try:
            return operation()
        except sqlite3.OperationalError as exc:
            message = str(exc).lower()
            if "locked" not in message and "busy" not in message:
                raise
            if on_conflict is not None:
                on_conflict()
            if attempt == attempts - 1:
                raise
            delay = min(max_delay, rng.uniform(base_delay, delay * 3))
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


def platform_context(device: FpgaDevice, timing_parameters: TimingParameters) -> str:
    """Digest of everything besides the configuration that shapes a measurement."""
    blob = f"{device!r}|{timing_parameters!r}"
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def config_key_string(config: Configuration) -> str:
    """Canonical JSON key of a configuration (the ``config_key`` of a wire record)."""
    return json.dumps(config.key(), sort_keys=True, default=_jsonable)


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serialisable: {value!r}")


def _cache_stats_dict(stats: Optional[CacheStatistics]) -> Optional[Dict[str, int]]:
    if stats is None:
        return None
    return {
        "accesses": stats.accesses,
        "read_accesses": stats.read_accesses,
        "write_accesses": stats.write_accesses,
        "read_misses": stats.read_misses,
        "write_misses": stats.write_misses,
    }


def _summary_row(summary: TraceSummary) -> Tuple:
    """The ``summaries`` columns (after the key) of one trace summary."""
    features = summary.features
    return (summary.name, features.instruction_count, features.load_use_hazards,
            features.cc_branch_hazards,
            json.dumps([int(count) for count in features.class_counts]),
            json.dumps([list(entry) for entry in summary.window_traps]))


def _summary_from(row: Sequence) -> TraceSummary:
    name, instructions, load_use, cc_branch, class_counts, window_traps = row
    return TraceSummary(
        name=name,
        features=TraceFeatures(
            instruction_count=instructions,
            class_counts=np.array(json.loads(class_counts), dtype=np.int64),
            load_use_hazards=load_use,
            cc_branch_hazards=cc_branch),
        window_traps=tuple(tuple(entry) for entry in json.loads(window_traps)))


def _job_from(fingerprint: str, row: Sequence) -> CacheJob:
    """The cache job of one row's ``_GEOMETRY_COLUMNS``."""
    kind, ways, setsize_kb, linesize_words, replacement, seed = row
    return fingerprint, kind, CacheConfig(
        ways=ways, setsize_kb=setsize_kb, linesize_words=linesize_words,
        replacement=replacement, seed=seed)


def _run_from(fingerprint: str, row: Sequence) -> Tuple[CacheJob, CacheStatistics]:
    return _job_from(fingerprint, row[:6]), CacheStatistics(*row[6:])


class ResultStore:
    """SQLite store of trace summaries and per-geometry cache statistics.

    ``path=None`` keeps the store in memory (one process, no file).
    ``device`` and ``timing_parameters`` are not part of any key; they
    select the platform :meth:`get` assembles measurements on and the
    ``context`` digest :meth:`encode` stamps on wire records.  A
    :class:`~repro.platform.liquid.LiquidPlatform` constructed over the
    store rebinds both to its own (:meth:`bind_platform`).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        device: FpgaDevice = XCV2000E,
        timing_parameters: Optional[TimingParameters] = None,
    ):
        self.path = path
        self.device = device
        self.timing_parameters = timing_parameters or TimingParameters()
        self.context = platform_context(device, self.timing_parameters)
        self._reader: Optional[LiquidPlatform] = None
        try:
            self._conn = connect_sqlite(path or ":memory:")
            tables = {name for (name,) in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
        except sqlite3.DatabaseError as exc:
            if "not a database" not in str(exc):
                raise
            raise StoreFormatError(
                f"{path} is not a SQLite result store; delete it or choose "
                "another path") from None
        if "measurements" in tables:
            self._conn.close()
            raise StoreFormatError(
                f"{path} holds per-configuration measurement records from an "
                "older result-store layout, which this version does not read; "
                "delete the file or choose another path")
        for statement in _SCHEMA:
            self._conn.execute(statement)
        self._conn.commit()

    def bind_platform(self, device: FpgaDevice, timing_parameters: TimingParameters) -> None:
        """Assemble and encode under a platform's device and calibration.

        Rows are calibration-free, so this changes no lookup; it only
        keeps :meth:`get` and :meth:`encode` consistent with the platform
        that measures over the store.
        """
        if device == self.device and timing_parameters == self.timing_parameters:
            return
        self.device = device
        self.timing_parameters = timing_parameters
        self.context = platform_context(device, timing_parameters)
        self._reader = None

    def close(self) -> None:
        """Close the underlying database connection."""
        self._conn.close()

    def __len__(self) -> int:
        """Cache-statistics rows of the current kernel version."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM cache_stats WHERE kernel = ?",
            (KERNEL_VERSION,)).fetchone()
        return int(row[0])

    # -- trace identities ------------------------------------------------------------------

    def trace_fingerprint(self, input_key: str) -> Optional[str]:
        """The trace fingerprint recorded for an input key, or ``None``."""
        row = self._conn.execute(
            "SELECT fingerprint FROM traces WHERE recipe = ?", (input_key,)).fetchone()
        return None if row is None else row[0]

    # -- batch I/O -------------------------------------------------------------------------

    def load(self, fingerprint: str
             ) -> Tuple[Optional[TraceSummary], Dict[CacheJob, CacheStatistics]]:
        """Every row of one trace: its summary (or ``None``) and cache runs.

        One read round of two ``SELECT``s; the runs are keyed like the
        platform's :data:`~repro.platform.liquid.CacheJob` memo, ready for
        :meth:`~repro.platform.liquid.LiquidPlatform.install_cache_runs`.
        """
        key = (KERNEL_VERSION, fingerprint)
        row = self._conn.execute(
            f"SELECT {_SUMMARY_COLUMNS} FROM summaries"
            " WHERE kernel = ? AND fingerprint = ?", key).fetchone()
        runs = dict(_run_from(fingerprint, stored) for stored in self._conn.execute(
            f"SELECT {_GEOMETRY_COLUMNS}, {_COUNT_COLUMNS} FROM cache_stats"
            " WHERE kernel = ? AND fingerprint = ?", key))
        return (None if row is None else _summary_from(row)), runs

    def write(
        self,
        fingerprint: str,
        runs: Mapping[CacheJob, CacheStatistics],
        *,
        summary: Optional[TraceSummary] = None,
        input_key: Optional[str] = None,
        on_conflict: Optional[Callable[[], None]] = None,
    ) -> int:
        """Persist one batch's new rows in one transaction.

        ``runs`` are cache runs of the trace ``fingerprint``; ``summary``
        is written when given, and so is a ``traces`` row mapping
        ``input_key`` to ``fingerprint``.  Rows
        already present are kept (``INSERT OR IGNORE``: every row is a
        deterministic result, so racing writers agree).  Returns the
        number of rows inserted (summary, cache and input-key rows);
        ``on_conflict`` is called for every lock conflict retried.
        """
        cache_rows = [
            (KERNEL_VERSION, fingerprint, kind, geometry.ways, geometry.setsize_kb,
             geometry.linesize_words, geometry.replacement, geometry.seed,
             stats.accesses, stats.read_accesses, stats.write_accesses,
             stats.read_misses, stats.write_misses)
            for (_, kind, geometry), stats in runs.items()]

        def transact() -> int:
            with self._conn:
                written = 0
                if input_key is not None:
                    written += self._conn.execute(
                        "INSERT OR IGNORE INTO traces (recipe, fingerprint) VALUES (?, ?)",
                        (input_key, fingerprint)).rowcount
                if summary is not None:
                    written += self._conn.execute(
                        f"INSERT OR IGNORE INTO summaries (kernel, fingerprint,"
                        f" {_SUMMARY_COLUMNS}) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (KERNEL_VERSION, fingerprint, *_summary_row(summary))).rowcount
                if cache_rows:
                    written += self._conn.executemany(
                        f"INSERT OR IGNORE INTO cache_stats (kernel, fingerprint,"
                        f" {_GEOMETRY_COLUMNS}, {_COUNT_COLUMNS})"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        cache_rows).rowcount
                return written

        # campaign workers on other hosts write the same file concurrently;
        # residual lock timeouts are retried instead of dropping the rows
        return busy_retry(transact, on_conflict=on_conflict)

    # -- measurements ----------------------------------------------------------------------

    def get(self, workload: Workload, config: Configuration) -> Optional[Measurement]:
        """The measurement of ``(workload, config)`` assembled from stored rows.

        ``None`` unless the store holds the workload's summary and both of
        the configuration's cache geometries.  The measurement is built on
        this store's device and timing parameters, exactly as a platform
        with those would measure it.
        """
        if self._reader is None:
            self._reader = LiquidPlatform(
                self.device, timing_parameters=self.timing_parameters)
        reader = self._reader
        configs = ConfigurationColumns([config])
        plan = reader.cache_plan(workload, configs)
        jobs = reader.pending_jobs(plan.jobs())
        if jobs or not reader.has_summary(workload):
            summary, runs = self.load(workload.fingerprint())
            if summary is None:
                return None
            reader.install_summary(workload.fingerprint(), summary)
            reader.install_cache_runs(runs)
            if reader.pending_jobs(jobs):
                return None
        return reader.assemble(workload, configs, reader.build_many(configs), plan)[0]

    def encode(self, workload: Workload, measurement: Measurement) -> Dict[str, Any]:
        """Plain-data record of one measurement (the service's wire format).

        Stamped with the ``context`` digest of this store's device and
        timing parameters.  Records are never persisted; the format is
        what "the HTTP result equals a direct sweep, bit for bit" compares.
        """
        statistics = measurement.statistics
        return {
            "context": self.context,
            "fingerprint": workload.fingerprint(),
            "config_key": config_key_string(measurement.configuration),
            "workload": measurement.workload,
            "config": measurement.configuration.as_dict(),
            "resources": {
                "device": measurement.resources.device.name,
                "luts": measurement.resources.luts,
                "brams": measurement.resources.brams,
                "lut_breakdown": dict(measurement.resources.lut_breakdown),
                "bram_breakdown": dict(measurement.resources.bram_breakdown),
            },
            "statistics": {
                # the name of the simulated trace, which the simulator
                # takes from the workload
                "workload": statistics.workload,
                "instruction_count": statistics.instruction_count,
                "cycles": statistics.cycles,
                "cycle_breakdown": dict(statistics.cycle_breakdown),
                "icache": _cache_stats_dict(statistics.icache),
                "dcache": _cache_stats_dict(statistics.dcache),
                "window_overflows": statistics.window_overflows,
                "window_underflows": statistics.window_underflows,
            },
        }

    # -- audit -----------------------------------------------------------------------------

    def audit(self, workloads: Iterable[Workload], fraction: float) -> Tuple[int, int]:
        """Re-derive a sample of stored rows and compare bit for bit.

        Every workload is simulated, which names its trace and recomputes
        its summary, so rows are found whatever input key wrote them.  A
        ``fraction`` of the trace's cache rows (at least one when it has
        any; the sample is seeded by the trace fingerprint) is replayed
        again through :meth:`LiquidPlatform.simulate_cache_jobs
        <repro.platform.liquid.LiquidPlatform.simulate_cache_jobs>`, and
        the stored summary is compared with the recomputed one.  An
        input-key row naming another trace counts as one mismatch.
        Returns ``(audited, mismatches)``, where ``audited`` counts the
        summary and cache rows re-derived.
        """
        platform = LiquidPlatform()
        audited = mismatches = 0
        for workload in workloads:
            trace = workload.trace()
            fingerprint = workload.fingerprint()
            key = workload.input_key()
            named = None if key is None else self.trace_fingerprint(key)
            mismatches += named not in (None, fingerprint)
            summary, runs = self.load(fingerprint)
            if summary is not None:
                audited += 1
                mismatches += _summary_row(summary) != _summary_row(trace.summary())
            jobs = sorted(runs, key=lambda job: (job[1], repr(job[2])))
            count = min(len(jobs), math.ceil(fraction * len(jobs)))
            sample = random.Random(fingerprint).sample(jobs, count)
            replayed = platform.simulate_cache_jobs(workload, sample)
            audited += len(sample)
            mismatches += sum(replayed[job] != runs[job] for job in sample)
        return audited, mismatches


#: The name the benchmark harness imports; the same class.
SqliteResultStore = ResultStore


def open_store(path: Optional[str], **kwargs: Any) -> ResultStore:
    """Open the result store at ``path`` (``None``: in memory).

    Only SQLite paths are accepted (``.sqlite``, ``.sqlite3``, ``.db``);
    any other extension raises :class:`~repro.errors.StoreFormatError`.
    Keyword arguments pass through to :class:`ResultStore`.
    """
    if path and not path.lower().endswith(SQLITE_EXTENSIONS):
        raise StoreFormatError(
            f"{path}: result stores are SQLite files; use one of the "
            f"extensions {', '.join(SQLITE_EXTENSIONS)}")
    return ResultStore(path, **kwargs)
