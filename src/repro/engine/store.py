"""Persistent measurement stores (JSON-lines and SQLite backends).

A store plays the role PyExperimenter-style harnesses give their result
database: a campaign writes every :class:`~repro.platform.Measurement` it
produces, keyed by ``(workload fingerprint, configuration key)``, and any
later campaign -- in this process or another -- pulls finished results
instead of re-simulating them.  That makes full paper reproductions
resumable and lets several runs share one cache directory.

Two backends implement the same interface (:class:`ResultStoreBase`):
the append-only JSON-lines :class:`ResultStore` (default, human
greppable, safely shareable via append) and :class:`SqliteResultStore`
(indexed lookups without loading the whole file, suited to large
campaign archives).  :func:`open_store` picks by file extension.

Two details keep lookups sound:

* The *workload fingerprint* hashes the workload's execution trace, not
  just its name, so a scaled-down test workload never aliases the
  benchmark-scale workload of the same name.
* Every record carries a *context* digest of the platform's device and
  timing parameters, so stores survive calibration changes without
  serving stale measurements.

Next to the measurements every store keeps *trace identities*: the map
from a workload's :meth:`~repro.workloads.base.Workload.recipe` (a digest
of its program, instruction budget and simulator version) to its trace
fingerprint.  A run over a store that has seen a workload resolves the
fingerprint from the recipe and keys its lookups without running the
functional simulator; identities do not depend on the platform, so they
carry no context.

Records round-trip exactly (all persisted fields are ints, strings and
mappings thereof), so a store-served measurement compares equal to a
freshly simulated one -- the engine equivalence tests assert this.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sqlite3
import time
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

from repro.config.configuration import Configuration
from repro.fpga.device import FpgaDevice, XCV2000E
from repro.fpga.report import ResourceReport
from repro.microarch.cache import CacheStatistics
from repro.microarch.statistics import ExecutionStatistics
from repro.microarch.timing import TimingParameters
from repro.obs.metrics import get_registry
from repro.platform.measurement import Measurement
from repro.workloads.base import Workload

__all__ = [
    "ResultStore",
    "ResultStoreBase",
    "SqliteResultStore",
    "busy_retry",
    "config_key_string",
    "connect_sqlite",
    "open_store",
    "workload_fingerprint",
    "platform_context",
]

#: File extensions that select the SQLite backend in :func:`open_store`.
SQLITE_EXTENSIONS = (".sqlite", ".sqlite3", ".db")

_T = TypeVar("_T")


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
    conn.execute("PRAGMA journal_mode=WAL")
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
    and reports each conflict through ``on_conflict`` so the engine's
    claim-contention accounting
    (:attr:`~repro.engine.backend.EngineStats.claim_conflicts`) stays
    truthful.

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
            get_registry().counter("store.lock_conflicts").inc()
            if on_conflict is not None:
                on_conflict()
            if attempt == attempts - 1:
                raise
            delay = min(max_delay, rng.uniform(base_delay, delay * 3))
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


def workload_fingerprint(workload: Workload) -> str:
    """Content digest of a workload's execution trace (cached on the instance).

    Two workloads with the same name but different inputs (e.g. the test
    suite's scaled-down variants) get different fingerprints, so a shared
    store can never serve a measurement of the wrong trace.
    """
    return workload.fingerprint()


def platform_context(device: FpgaDevice, timing_parameters: TimingParameters) -> str:
    """Digest of everything besides the configuration that shapes a measurement."""
    blob = f"{device!r}|{timing_parameters!r}"
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def config_key_string(config: Configuration) -> str:
    """Canonical JSON key of a configuration (store and campaign rows share it)."""
    return json.dumps(config.key(), sort_keys=True, default=_jsonable)


#: Backwards-compatible private alias (internal callers predate the export).
_config_key_string = config_key_string


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


def _cache_stats_from(data: Optional[Dict[str, int]]) -> Optional[CacheStatistics]:
    return None if data is None else CacheStatistics(**data)


class ResultStoreBase:
    """Context stamping and measurement (de)serialisation shared by backends.

    Concrete backends provide :meth:`put`, :meth:`get`, ``__len__``,
    ``__contains__`` and the trace-identity pair :meth:`trace_fingerprint`
    / :meth:`put_trace`; the base class owns the platform-context handling
    so every backend keys records identically and survives calibration
    changes the same way.
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
        self.context = platform_context(device, timing_parameters or TimingParameters())

    def bind_platform(self, device: FpgaDevice, timing_parameters: TimingParameters) -> None:
        """Re-key the store to a platform's actual device and timing calibration.

        The engine calls this so that records are always stamped with --
        and looked up under -- the wrapped platform's context, not this
        store's constructor defaults.
        """
        context = platform_context(device, timing_parameters)
        if context == self.context and device == self.device:
            return
        self.device = device
        self.context = context
        self._context_changed()

    def _context_changed(self) -> None:
        """Backend hook: the context filter changed after construction."""

    def trace_fingerprint(self, recipe: str) -> Optional[str]:
        """The trace fingerprint recorded for a workload recipe, or ``None``."""
        raise NotImplementedError

    def put_trace(self, recipe: str, fingerprint: str) -> None:
        """Record a recipe's trace fingerprint (a recorded one is kept)."""
        raise NotImplementedError

    # -- measurement (de)serialisation ---------------------------------------------------

    def encode(self, workload: Workload, measurement: Measurement) -> Dict[str, Any]:
        """Public record form of one measurement.

        Exactly the context-stamped plain-data record the backends
        persist -- also the tuning service's wire format, which is what
        makes "the HTTP result equals the stored record equals a direct
        sweep, bit for bit" a single comparison.
        """
        return self._encode(workload, measurement)

    def _encode(self, workload: Workload, measurement: Measurement) -> Dict[str, Any]:
        """Serialise one measurement into a context-stamped plain-data record."""
        fingerprint = workload_fingerprint(workload)
        statistics = measurement.statistics
        return {
            "context": self.context,
            "fingerprint": fingerprint,
            "config_key": _config_key_string(measurement.configuration),
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
                # may differ from the measurement's workload name: a phased
                # workload measures under its scenario name while the profile
                # keeps the underlying trace's name
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

    def _measurement_from(self, record: Dict[str, Any], config: Configuration) -> Measurement:
        if record["resources"]["device"] != self.device.name:  # pragma: no cover - guard
            raise ValueError("stored measurement targets a different device")
        resources = ResourceReport(
            device=self.device,
            luts=record["resources"]["luts"],
            brams=record["resources"]["brams"],
            lut_breakdown=record["resources"]["lut_breakdown"],
            bram_breakdown=record["resources"]["bram_breakdown"],
        )
        stats = record["statistics"]
        statistics = ExecutionStatistics(
            workload=stats.get("workload", record["workload"]),
            configuration=config,
            instruction_count=stats["instruction_count"],
            cycles=stats["cycles"],
            cycle_breakdown=stats["cycle_breakdown"],
            icache=_cache_stats_from(stats["icache"]),
            dcache=_cache_stats_from(stats["dcache"]),
            window_overflows=stats["window_overflows"],
            window_underflows=stats["window_underflows"],
        )
        return Measurement(
            workload=record["workload"],
            configuration=config,
            resources=resources,
            statistics=statistics,
        )


class ResultStore(ResultStoreBase):
    """Append-only JSON-lines store of measurements.

    ``path=None`` keeps the store purely in memory (deduplication within
    one process without touching the filesystem); with a path, records
    are appended as they are produced and re-read on open, last record
    per key winning.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        device: FpgaDevice = XCV2000E,
        timing_parameters: Optional[TimingParameters] = None,
    ):
        super().__init__(path, device=device, timing_parameters=timing_parameters)
        self._records: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._traces: Dict[str, str] = {}
        if path and os.path.exists(path):
            self._load(path)

    def _context_changed(self) -> None:
        """A context change re-reads the file under the new filter."""
        self._records.clear()
        if self.path and os.path.exists(self.path):
            self._load(self.path)

    # -- persistence ------------------------------------------------------------------

    def _load(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if "recipe" in record:
                        self._traces.setdefault(record["recipe"], record["fingerprint"])
                        continue
                    key = (record["fingerprint"], record["config_key"])
                except (ValueError, KeyError, TypeError):
                    # a run killed mid-append leaves a truncated last line;
                    # losing one record must not make the store unloadable
                    continue
                if record.get("context") != self.context:
                    continue
                self._records[key] = record

    def _append(self, record: Dict[str, Any]) -> None:
        if not self.path:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, default=_jsonable) + "\n")

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._records

    # -- store interface -----------------------------------------------------------------

    def put(self, workload: Workload, measurement: Measurement) -> bool:
        """Persist one measurement; returns ``False`` when already stored."""
        key = (workload_fingerprint(workload),
               _config_key_string(measurement.configuration))
        if key in self._records:
            return False  # cheap membership test before the full encode
        record = self._encode(workload, measurement)
        self._records[key] = record
        self._append(record)
        return True

    def get(self, workload: Workload, config: Configuration) -> Optional[Measurement]:
        """The stored measurement for ``(workload, config)``, or ``None``."""
        key = (workload_fingerprint(workload), _config_key_string(config))
        record = self._records.get(key)
        if record is None:
            return None
        return self._measurement_from(record, config)

    def trace_fingerprint(self, recipe: str) -> Optional[str]:
        return self._traces.get(recipe)

    def put_trace(self, recipe: str, fingerprint: str) -> None:
        if recipe not in self._traces:
            self._traces[recipe] = fingerprint
            self._append({"recipe": recipe, "fingerprint": fingerprint})


class SqliteResultStore(ResultStoreBase):
    """SQLite-backed measurement store behind the same interface.

    Records live in one ``measurements`` table keyed by ``(context,
    fingerprint, config_key)``, so lookups are indexed instead of
    replaying a whole JSON-lines file, and stores written under several
    platform calibrations coexist in one database file.  Selected by
    :func:`open_store` when the path ends in ``.sqlite``/``.db``.
    """

    def __init__(
        self,
        path: str,
        *,
        device: FpgaDevice = XCV2000E,
        timing_parameters: Optional[TimingParameters] = None,
    ):
        super().__init__(path, device=device, timing_parameters=timing_parameters)
        self._conn = connect_sqlite(path)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS measurements ("
            " context TEXT NOT NULL,"
            " fingerprint TEXT NOT NULL,"
            " config_key TEXT NOT NULL,"
            " record TEXT NOT NULL,"
            " PRIMARY KEY (context, fingerprint, config_key))")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS traces ("
            " recipe TEXT PRIMARY KEY,"
            " fingerprint TEXT NOT NULL)")
        self._conn.commit()

    # a context change needs no hook: every query filters on the live context

    def close(self) -> None:
        """Close the underlying database connection."""
        self._conn.close()

    def __len__(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM measurements WHERE context = ?",
            (self.context,)).fetchone()
        return int(row[0])

    def __contains__(self, key: Tuple[str, str]) -> bool:
        fingerprint, config_key = key
        row = self._conn.execute(
            "SELECT 1 FROM measurements"
            " WHERE context = ? AND fingerprint = ? AND config_key = ?",
            (self.context, fingerprint, config_key)).fetchone()
        return row is not None

    def put(self, workload: Workload, measurement: Measurement) -> bool:
        """Persist one measurement; returns ``False`` when already stored."""
        record = self._encode(workload, measurement)

        def write() -> bool:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO measurements"
                " (context, fingerprint, config_key, record) VALUES (?, ?, ?, ?)",
                (self.context, record["fingerprint"], record["config_key"],
                 json.dumps(record, default=_jsonable)))
            self._conn.commit()
            return cursor.rowcount > 0

        # campaign workers on other hosts write the same file concurrently;
        # residual lock timeouts are retried instead of dropping the result
        return busy_retry(write)

    def get(self, workload: Workload, config: Configuration) -> Optional[Measurement]:
        """The stored measurement for ``(workload, config)``, or ``None``."""
        row = self._conn.execute(
            "SELECT record FROM measurements"
            " WHERE context = ? AND fingerprint = ? AND config_key = ?",
            (self.context, workload_fingerprint(workload),
             _config_key_string(config))).fetchone()
        if row is None:
            return None
        return self._measurement_from(json.loads(row[0]), config)

    def trace_fingerprint(self, recipe: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT fingerprint FROM traces WHERE recipe = ?", (recipe,)).fetchone()
        return None if row is None else row[0]

    def put_trace(self, recipe: str, fingerprint: str) -> None:
        def write() -> None:
            self._conn.execute(
                "INSERT OR IGNORE INTO traces (recipe, fingerprint) VALUES (?, ?)",
                (recipe, fingerprint))
            self._conn.commit()

        busy_retry(write)


def open_store(path: Optional[str], **kwargs: Any) -> ResultStoreBase:
    """Open the result-store backend matching ``path``'s extension.

    ``.sqlite``/``.sqlite3``/``.db`` select :class:`SqliteResultStore`;
    anything else (including ``None`` for in-memory) gets the JSON-lines
    :class:`ResultStore`.  Keyword arguments pass through to the backend.
    """
    if path and path.lower().endswith(SQLITE_EXTENSIONS):
        return SqliteResultStore(path, **kwargs)
    return ResultStore(path, **kwargs)
