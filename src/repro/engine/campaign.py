"""Distributed campaign grid: a pull-based replay queue over SQLite.

PyExperimenter-style horizontal scaling.  A measurement is cheap
arithmetic over one trace summary and one cache replay per geometry (see
:mod:`repro.engine.store`), so a campaign distributes the replays: it
*registers* the distinct ``(trace fingerprint, cache kind, geometry)``
replays of a configuration grid as rows of a ``replays`` table in the
SQLite file of its :class:`~repro.engine.store.ResultStore`, and any
number of :class:`CampaignWorker` processes -- in one terminal, many
terminals, or many hosts sharing the file -- *claim* batches of open
rows, make their replays present through
:meth:`~repro.platform.liquid.LiquidPlatform.provide` (read the store,
replay what is missing, write it back) and mark the rows done.
``ResultStore.get`` then assembles any configuration of the grid.
Nothing in a campaign depends on the timing model or the device, and it
is resumable (kill everything, restart, nothing done is redone) and
shardable (N workers drain one grid cooperatively) without a
coordinator process.

The moving parts:

* :class:`CampaignGrid` owns the ``replays`` table.  Each row is one
  replay, keyed with :data:`~repro.microarch.cachekernel.KERNEL_VERSION`
  exactly as the store keys its ``cache_stats`` rows, with a status
  machine ``open -> claimed -> done|failed``, the claiming worker's id,
  the claim timestamp (lease), and an attempt counter.  A claim always
  takes rows of one trace fingerprint, so a worker replays them against
  one trace's shared decodes.
* Claims are one atomic ``UPDATE ... RETURNING`` statement under WAL
  (single writer at a time, readers unblocked), wrapped in
  :func:`~repro.engine.store.busy_retry`; two workers can never claim
  the same row.
* A worker that dies mid-claim leaves its rows ``claimed``; any worker's
  next loop iteration reclaims claims older than the *lease* back to
  ``open`` (:meth:`CampaignGrid.reclaim_stale`).  A worker interrupted
  cleanly (``KeyboardInterrupt``/``SystemExit``) releases its claims
  immediately instead of squatting on them until the lease expires.
* Rows whose replay raises are marked ``failed`` with the error
  recorded; :meth:`CampaignGrid.reopen_failed` (the worker's automatic
  retry) re-opens them while their attempt count is below the cap, and
  :meth:`CampaignGrid.reset_failed` (the operator's ``--reset-failed``)
  clears the counter and starts over.

Crash safety of results: a worker writes its batch's rows (through the
platform's store) *before* marking rows done, so a crash between the
two leaves rows to be claimed again -- and because every replay is
deterministic and store writes are ``INSERT OR IGNORE``, replaying a
row again is wasted work but never wrong data.

Sharding overhead is auditable through the platform's
:class:`~repro.obs.metrics.EngineStats`: ``claim_batches`` /
``claim_rows`` / ``claim_conflicts`` / ``claim_requeues``.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config.configuration import Configuration
from repro.engine.store import (
    _GEOMETRY_COLUMNS,
    ResultStore,
    _job_from,
    busy_retry,
    connect_sqlite,
)
from repro.errors import StoreFormatError
from repro.microarch.cachekernel import KERNEL_VERSION
from repro.obs.tracer import span
from repro.platform.liquid import CacheJob, LiquidPlatform
from repro.workloads.base import Workload

__all__ = [
    "CampaignGrid",
    "CampaignWorker",
    "CampaignReport",
    "CLAIM_BATCH",
    "GridRow",
    "STATUS_OPEN",
    "STATUS_CLAIMED",
    "STATUS_DONE",
    "STATUS_FAILED",
]

#: Row status machine: ``open -> claimed -> done | failed`` (failed rows
#: may be reopened for retry, stale claims fall back to open).
STATUS_OPEN = "open"
STATUS_CLAIMED = "claimed"
STATUS_DONE = "done"
STATUS_FAILED = "failed"

_STATUSES = (STATUS_OPEN, STATUS_CLAIMED, STATUS_DONE, STATUS_FAILED)

#: Default rows per claim.  A claim takes rows of one trace, and the
#: Figure-2 grid registers 20 per trace (19 dcache geometries and one
#: icache geometry), so one claim per trace makes one
#: :meth:`~repro.platform.liquid.LiquidPlatform.provide` call: one store
#: read, one decode per line size and one write.
CLAIM_BATCH = 32

#: Error recorded when an open row has burnt through its attempt budget.
_EXHAUSTED_ERROR = "attempts exhausted"

#: The clean hand-back of a claimed row: open again, attempt refunded.
_RELEASE = ("status = 'open', worker = NULL, claimed_at = NULL,"
            " attempts = MAX(attempts - 1, 0)")


def default_worker_id() -> str:
    """A worker id unique across hosts and processes (host:pid:nonce)."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


@dataclass(frozen=True)
class GridRow:
    """One claimed replay row."""

    #: Database row id (stable claim/done/release handle).
    rowid: int
    #: The replay: ``(trace fingerprint, cache kind, geometry)``, keyed
    #: like the platform's memo and the store's ``cache_stats`` rows.
    job: CacheJob
    #: Claim attempts spent on this row so far (including the current one).
    attempts: int


class CampaignGrid:
    """The replay table of one campaign database.

    Opens (and creates on demand) the ``replays`` table inside ``path``
    -- normally the same SQLite file as the campaign's
    :class:`~repro.engine.store.ResultStore`, so grid and results travel
    together.  Rows are keyed like the store's ``cache_stats`` rows:
    registering the same grid twice is a no-op, and a replay change
    (another ``KERNEL_VERSION``) starts a fresh campaign in the same file
    without touching the old one's rows.  A file holding the
    per-configuration ``experiments`` table of an older layout raises
    :class:`~repro.errors.StoreFormatError`.
    """

    def __init__(self, path: str):
        self.path = path
        self._conn = connect_sqlite(path)
        tables = {name for (name,) in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        if "experiments" in tables:
            self._conn.close()
            raise StoreFormatError(
                f"{path} holds per-configuration campaign rows from an older "
                "campaign layout, which this version does not read; delete "
                "the file or choose another path")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS replays ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " kernel INTEGER NOT NULL,"
            " fingerprint TEXT NOT NULL,"
            " workload TEXT NOT NULL,"
            " kind TEXT NOT NULL,"
            " ways INTEGER NOT NULL,"
            " setsize_kb INTEGER NOT NULL,"
            " linesize_words INTEGER NOT NULL,"
            " replacement TEXT NOT NULL,"
            " seed INTEGER NOT NULL,"
            " status TEXT NOT NULL DEFAULT 'open',"
            " worker TEXT,"
            " claimed_at REAL,"
            " finished_at REAL,"
            " attempts INTEGER NOT NULL DEFAULT 0,"
            " error TEXT,"
            f" UNIQUE (kernel, fingerprint, {_GEOMETRY_COLUMNS}))")
        # the claim statement's working set: open rows of one kernel
        # version in fingerprint groups, oldest first
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS replays_claim"
            " ON replays (kernel, status, fingerprint, id)")
        # one row per live worker, upserted on every beat: the dashboard's
        # view of who is draining the grid and how fast (same file, so any
        # terminal that can see the campaign can see its workers)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS heartbeats ("
            " worker TEXT PRIMARY KEY,"
            " host TEXT NOT NULL,"
            " pid INTEGER NOT NULL,"
            " ts REAL NOT NULL,"
            " batches INTEGER NOT NULL DEFAULT 0,"
            " claimed INTEGER NOT NULL DEFAULT 0,"
            " done INTEGER NOT NULL DEFAULT 0,"
            " failed INTEGER NOT NULL DEFAULT 0,"
            " rows_per_sec REAL NOT NULL DEFAULT 0,"
            " engine TEXT)")
        self._conn.commit()

    def bind_platform(self, device: Any, timing_parameters: Any) -> None:
        """Do nothing: replay rows depend on no device or calibration.

        Kept only because the pinned benchmark harness
        (``perfbench/scenarios.py``) still calls it; remove it once the
        harness no longer does.
        """

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignGrid":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- registration ----------------------------------------------------------------------

    def register(self, workload: Workload, configs: Sequence[Configuration]) -> int:
        """Add the distinct replays of one workload's configuration grid.

        The configurations are reduced to their cache geometries by the
        platform's own planner (:meth:`LiquidPlatform.cache_plan
        <repro.platform.liquid.LiquidPlatform.cache_plan>`); no store is
        read.  Returns the new-row count.  Registration is idempotent per
        row -- re-registering a partially drained campaign adds only rows
        it has never seen, so ``--register`` is safe to re-run at any
        time.
        """
        plan = LiquidPlatform().cache_plan(workload, configs)
        rows = [
            (KERNEL_VERSION, fingerprint, workload.name, kind, geometry.ways,
             geometry.setsize_kb, geometry.linesize_words, geometry.replacement,
             geometry.seed)
            for fingerprint, kind, geometry in plan.jobs()
        ]

        def write() -> int:
            before = self._conn.total_changes
            self._conn.executemany(
                "INSERT OR IGNORE INTO replays"
                f" (kernel, fingerprint, workload, {_GEOMETRY_COLUMNS})"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
            self._conn.commit()
            return self._conn.total_changes - before

        return busy_retry(write)

    # -- claiming --------------------------------------------------------------------------

    def claim(
        self,
        worker_id: str,
        *,
        batch: int = CLAIM_BATCH,
        fingerprints: Optional[Iterable[str]] = None,
        max_attempts: Optional[int] = None,
        on_conflict=None,
    ) -> List[GridRow]:
        """Atomically claim up to ``batch`` open rows of one trace fingerprint.

        One ``UPDATE ... RETURNING`` statement moves the rows to
        ``claimed``, stamps this worker and the claim time, and bumps
        each row's attempt counter -- all or nothing with respect to any
        concurrently claiming worker (WAL admits one writer at a time;
        ``busy_timeout`` plus :func:`~repro.engine.store.busy_retry`
        absorb the contention).  ``fingerprints`` restricts claims to
        workloads this worker can actually replay; ``max_attempts``
        leaves exhausted rows alone (see :meth:`retire_exhausted`).
        Returns the claimed rows (empty when nothing is claimable).
        """
        filters = ["status = 'open'", "kernel = :kernel"]
        params: Dict[str, Any] = {
            "kernel": KERNEL_VERSION,
            "worker": worker_id,
            "now": time.time(),
            "batch": max(1, batch),
        }
        if fingerprints is not None:
            known = sorted(set(fingerprints))
            if not known:
                return []
            names = [f"fp{i}" for i in range(len(known))]
            filters.append(
                "fingerprint IN (%s)" % ", ".join(f":{n}" for n in names))
            params.update(zip(names, known))
        if max_attempts is not None:
            filters.append("attempts < :max_attempts")
            params["max_attempts"] = max(1, max_attempts)
        where = " AND ".join(filters)
        statement = (
            "UPDATE replays SET"
            " status = 'claimed', worker = :worker, claimed_at = :now,"
            " attempts = attempts + 1"
            " WHERE id IN ("
            f"  SELECT id FROM replays WHERE {where}"
            "   AND fingerprint = ("
            f"    SELECT fingerprint FROM replays WHERE {where}"
            "     ORDER BY id LIMIT 1)"
            "   ORDER BY id LIMIT :batch)"
            f" RETURNING id, attempts, fingerprint, {_GEOMETRY_COLUMNS}")

        def transact() -> List[Tuple]:
            cursor = self._conn.execute(statement, params)
            returned = cursor.fetchall()
            self._conn.commit()
            return returned

        return [
            GridRow(rowid, _job_from(fingerprint, geometry), attempts)
            for rowid, attempts, fingerprint, *geometry
            in busy_retry(transact, on_conflict=on_conflict)
        ]

    # -- completion and requeueing ---------------------------------------------------------

    def _execute(self, statement: str, params: Sequence = (), *,
                 on_conflict=None) -> int:
        """Run one write statement as its own transaction; returns its row count."""

        def transact() -> int:
            cursor = self._conn.execute(statement, params)
            self._conn.commit()
            return cursor.rowcount

        return busy_retry(transact, on_conflict=on_conflict)

    def _settle(self, ids: Sequence[int], worker_id: str, assignment: str,
                params: Tuple = (), *, on_conflict=None) -> int:
        """Update the rows of ``ids`` this worker still holds."""
        if not ids:
            return 0
        placeholders = ", ".join("?" for _ in ids)
        return self._execute(
            f"UPDATE replays SET {assignment} WHERE status = 'claimed'"
            f" AND worker = ? AND id IN ({placeholders})",
            (*params, worker_id, *ids), on_conflict=on_conflict)

    def mark_done(self, ids: Sequence[int], worker_id: str, *, on_conflict=None) -> int:
        """Move claimed rows to ``done`` (only rows this worker still holds)."""
        return self._settle(
            ids, worker_id, "status = 'done', finished_at = ?, error = NULL",
            (time.time(),), on_conflict=on_conflict)

    def mark_failed(self, ids: Sequence[int], worker_id: str, error: str, *,
                    on_conflict=None) -> int:
        """Move claimed rows to ``failed`` (only rows this worker still
        holds), recording the error text."""
        return self._settle(
            ids, worker_id, "status = 'failed', finished_at = ?, error = ?",
            (time.time(), error[:500]), on_conflict=on_conflict)

    def release(self, ids: Sequence[int], worker_id: str, *, on_conflict=None) -> int:
        """Return claimed rows this worker still holds to ``open`` without
        burning their attempt.

        This is the *clean* hand-back (interrupt, shutdown): the claim
        did not fail, so the attempt spent on it is refunded -- unlike
        stale reclamation, where the vanished worker's attempt stays
        burnt so a crash-looping row still converges on the cap.
        """
        return self._settle(ids, worker_id, _RELEASE, on_conflict=on_conflict)

    def release_worker(self, worker_id: str) -> int:
        """Release every row still claimed by ``worker_id`` (shutdown path)."""
        return self._execute(
            f"UPDATE replays SET {_RELEASE}"
            " WHERE status = 'claimed' AND kernel = ? AND worker = ?",
            (KERNEL_VERSION, worker_id))

    def reclaim_stale(self, lease_seconds: float, *, on_conflict=None) -> int:
        """Requeue claims older than the lease (their worker is presumed dead).

        The burnt attempt is *not* refunded: a worker that keeps dying on
        the same rows drives them toward the attempt cap instead of
        wedging the campaign forever.
        """
        return self._execute(
            "UPDATE replays SET status = 'open', worker = NULL, claimed_at = NULL"
            " WHERE status = 'claimed' AND kernel = ? AND claimed_at <= ?",
            (KERNEL_VERSION, time.time() - max(0.0, lease_seconds)),
            on_conflict=on_conflict)

    def retire_exhausted(self, max_attempts: int, *, on_conflict=None) -> int:
        """Fail open rows whose attempt budget is spent (reclaimed crashers)."""
        return self._execute(
            "UPDATE replays SET status = 'failed', finished_at = ?, error = ?"
            " WHERE status = 'open' AND kernel = ? AND attempts >= ?",
            (time.time(), _EXHAUSTED_ERROR, KERNEL_VERSION, max(1, max_attempts)),
            on_conflict=on_conflict)

    def reopen_failed(self, max_attempts: int, *, on_conflict=None) -> int:
        """Reopen failed rows still under the attempt cap (automatic retry)."""
        return self._execute(
            "UPDATE replays SET status = 'open', worker = NULL,"
            " claimed_at = NULL, finished_at = NULL"
            " WHERE status = 'failed' AND kernel = ? AND attempts < ?",
            (KERNEL_VERSION, max(1, max_attempts)), on_conflict=on_conflict)

    def reset_failed(self) -> int:
        """Operator reset: every failed row back to ``open`` with a fresh budget."""
        return self._execute(
            "UPDATE replays SET status = 'open', worker = NULL,"
            " claimed_at = NULL, finished_at = NULL, attempts = 0, error = NULL"
            " WHERE status = 'failed' AND kernel = ?", (KERNEL_VERSION,))

    # -- inspection ------------------------------------------------------------------------

    def status(self) -> Dict[str, int]:
        """Row counts by status (plus ``total``) of the current kernel version."""
        counts = {status: 0 for status in _STATUSES}
        for status, count in self._conn.execute(
                "SELECT status, COUNT(*) FROM replays"
                " WHERE kernel = ? GROUP BY status", (KERNEL_VERSION,)):
            counts[status] = count
        counts["total"] = sum(counts[status] for status in _STATUSES)
        return counts

    def workload_status(self) -> List[Tuple[str, str, int]]:
        """Per-(workload, status) row counts, registration order."""
        return list(self._conn.execute(
            "SELECT workload, status, COUNT(*) FROM replays"
            " WHERE kernel = ? GROUP BY workload, status"
            " ORDER BY MIN(id)", (KERNEL_VERSION,)))

    def failures(self, limit: int = 20) -> List[Tuple[int, str, int, str]]:
        """The most recent failed rows: (id, workload, attempts, error)."""
        return list(self._conn.execute(
            "SELECT id, workload, attempts, error FROM replays"
            " WHERE kernel = ? AND status = 'failed'"
            " ORDER BY finished_at DESC LIMIT ?", (KERNEL_VERSION, limit)))

    # -- worker heartbeats -----------------------------------------------------------------

    def heartbeat(
        self,
        worker_id: str,
        *,
        batches: int = 0,
        claimed: int = 0,
        done: int = 0,
        failed: int = 0,
        rows_per_sec: float = 0.0,
        engine: Optional[Dict[str, Any]] = None,
        on_conflict=None,
    ) -> None:
        """Upsert this worker's liveness row (one row per worker).

        Each beat overwrites the previous one with cumulative progress
        counters and the worker's self-reported throughput; the beat
        timestamp is what the dashboard ages to flag ``STALE`` workers.
        """
        params = (
            worker_id, socket.gethostname(), os.getpid(),
            time.time(), batches, claimed, done, failed, rows_per_sec,
            json.dumps(engine, sort_keys=True) if engine else None)

        self._execute(
            "INSERT OR REPLACE INTO heartbeats"
            " (worker, host, pid, ts, batches, claimed, done,"
            "  failed, rows_per_sec, engine)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", params, on_conflict=on_conflict)

    def worker_heartbeats(self) -> List[Dict[str, Any]]:
        """Every worker's latest heartbeat, newest first."""
        rows = self._conn.execute(
            "SELECT worker, host, pid, ts, batches, claimed, done, failed,"
            " rows_per_sec, engine FROM heartbeats ORDER BY ts DESC")
        return [
            {
                "worker": worker, "host": host, "pid": pid, "ts": ts,
                "batches": batches, "claimed": claimed, "done": done,
                "failed": failed, "rows_per_sec": rows_per_sec,
                "engine": json.loads(engine) if engine else None,
            }
            for worker, host, pid, ts, batches, claimed, done, failed,
            rows_per_sec, engine in rows
        ]


@dataclass
class CampaignReport:
    """What one :meth:`CampaignWorker.run` accomplished."""

    worker_id: str = ""
    #: Claim transactions that returned rows, and the rows they returned.
    batches: int = 0
    claimed: int = 0
    #: Rows replayed (or found in the store) and marked done by this worker.
    done: int = 0
    #: Rows this worker marked failed (their replay raised).
    failed: int = 0
    #: Stale rows this worker reclaimed from expired leases.
    requeued: int = 0
    #: Failed rows this worker reopened for retry.
    reopened: int = 0
    #: Wall-clock seconds inside the pull loop.
    wall_seconds: float = 0.0
    #: Final platform accounting (:meth:`EngineStats.as_dict`).
    engine: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return (f"worker {self.worker_id}: {self.done} done, {self.failed} failed "
                f"in {self.batches} batches ({self.requeued} requeued, "
                f"{self.reopened} reopened), {self.wall_seconds:.2f}s")


class CampaignWorker:
    """One pull-loop worker draining a :class:`CampaignGrid`.

    The worker repeatedly: reclaims stale leases, retires rows whose
    attempt budget is spent, claims one batch of open rows (restricted to
    the workloads it was constructed with, matched by trace fingerprint),
    makes the batch's replays present through its platform's
    :meth:`~repro.platform.liquid.LiquidPlatform.provide` -- the code
    :meth:`~repro.platform.liquid.LiquidPlatform.measure_many` runs
    before it times anything, so the cache statistics and the trace
    summary land in the campaign database via the platform's store and
    :meth:`ResultStore.get <repro.engine.store.ResultStore.get>`
    assembles every configuration of the grid bit-identical to a direct
    sweep -- and marks the rows done.  Nothing is synthesised or timed.
    When no row is claimable it reopens retryable failed rows once, and
    exits when the grid has nothing left for it.

    ``KeyboardInterrupt`` (or any other teardown) releases the rows the
    worker still holds, so an operator hitting Ctrl-C hands the work
    straight back to the other workers instead of parking it until the
    lease expires.

    Parameters mirror the CLI: ``batch`` rows per claim, ``lease_seconds``
    before another worker may steal a silent claim, ``max_attempts``
    per row before it rests in ``failed``, and ``heartbeat_seconds``
    between liveness upserts into the grid's ``heartbeats`` table (0
    disables them; a beat is also written at loop entry and on exit so
    even instant drains leave a row for the dashboard).  The campaign process is the unit of parallelism: run
    more ``--claim`` processes against the same database to drain faster.

    ``platform`` replays the claims when it has a store (the tuning
    service drains its sweeps on its resident platform); that store must
    write into the campaign database so results land where claims do.
    Otherwise the worker replays on a platform of its own, over a
    :class:`~repro.engine.store.ResultStore` it opens on ``grid.path``
    and closes in :meth:`close` (replays depend on no device or
    calibration).

    ``workers`` is accepted and ignored.  It is kept only because the
    pinned benchmark harness (``perfbench/scenarios.py``) still passes it;
    remove it once the harness no longer does.
    """

    def __init__(
        self,
        grid: CampaignGrid,
        workloads: Sequence[Workload],
        *,
        worker_id: Optional[str] = None,
        batch: int = CLAIM_BATCH,
        lease_seconds: float = 300.0,
        max_attempts: int = 3,
        retry_failed: bool = True,
        workers: int = 1,
        heartbeat_seconds: float = 15.0,
        platform: Optional[LiquidPlatform] = None,
    ):
        self.grid = grid
        self.worker_id = worker_id or default_worker_id()
        self.batch = max(1, batch)
        self.lease_seconds = lease_seconds
        self.max_attempts = max(1, max_attempts)
        self.retry_failed = retry_failed
        self.heartbeat_seconds = max(0.0, heartbeat_seconds)
        self._loop_start = 0.0
        self._last_beat = 0.0
        #: the store this worker opened (and closes); never a caller's
        self._opened_store: Optional[ResultStore] = None
        if platform is None or platform.store is None:
            self._opened_store = ResultStore(grid.path)
            platform = LiquidPlatform(store=self._opened_store)
        self.platform = platform
        #: fingerprint -> workload this worker can replay (fingerprinting
        #: generates each trace once; the replays need it anyway)
        self.workloads: Dict[str, Workload] = {
            workload.fingerprint(): workload for workload in workloads}
        self.report = CampaignReport(worker_id=self.worker_id)

    # -- lifecycle -------------------------------------------------------------------------

    def close(self) -> None:
        """Close the store the worker opened; the grid and a caller's store stay open."""
        if self._opened_store is not None:
            self._opened_store.close()
            self._opened_store = None

    def __enter__(self) -> "CampaignWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the pull loop ---------------------------------------------------------------------

    def _count_conflict(self) -> None:
        self.platform.stats.claim_conflicts += 1

    def _beat(self, *, force: bool = False) -> None:
        """Upsert this worker's heartbeat row when the interval elapsed.

        Heartbeats are strictly best-effort liveness: a locked-out or
        broken beat never interrupts the pull loop (the row ages into
        ``STALE`` on the dashboard instead).
        """
        if self.heartbeat_seconds <= 0:
            return
        now = time.monotonic()
        if not force and now - self._last_beat < self.heartbeat_seconds:
            return
        report = self.report
        elapsed = now - self._loop_start if self._loop_start else 0.0
        rate = report.done / elapsed if elapsed > 0 and report.done else 0.0
        try:
            self.grid.heartbeat(
                self.worker_id,
                batches=report.batches, claimed=report.claimed,
                done=report.done, failed=report.failed,
                rows_per_sec=round(rate, 3),
                engine=self.platform.stats.as_dict(),
                on_conflict=self._count_conflict)
        except Exception:  # pragma: no cover - liveness must not kill work
            return
        self._last_beat = now

    def run(self, max_batches: Optional[int] = None) -> CampaignReport:
        """Drain the grid until nothing is claimable (or ``max_batches``).

        Returns the :class:`CampaignReport`; also leaves it on
        ``self.report`` for callers that stream progress.
        """
        stats = self.platform.stats
        report = self.report
        start = time.perf_counter()
        self._loop_start = time.monotonic()
        self._beat(force=True)
        try:
            while max_batches is None or report.batches < max_batches:
                requeued = self.grid.reclaim_stale(
                    self.lease_seconds, on_conflict=self._count_conflict)
                report.requeued += requeued
                stats.claim_requeues += requeued
                self.grid.retire_exhausted(
                    self.max_attempts, on_conflict=self._count_conflict)
                with span("claim", worker=self.worker_id) as claim_span:
                    rows = self.grid.claim(
                        self.worker_id, batch=self.batch,
                        fingerprints=self.workloads,
                        max_attempts=self.max_attempts,
                        on_conflict=self._count_conflict)
                    claim_span.set(rows=len(rows))
                if not rows:
                    if self.retry_failed:
                        reopened = self.grid.reopen_failed(
                            self.max_attempts, on_conflict=self._count_conflict)
                        if reopened:
                            report.reopened += reopened
                            stats.claim_requeues += reopened
                            continue
                    break
                report.batches += 1
                report.claimed += len(rows)
                stats.claim_batches += 1
                stats.claim_rows += len(rows)
                self._evaluate(rows)
                self._beat()
        finally:
            # clean hand-back of anything still claimed: an interrupt (or a
            # bug above) must never park rows until the lease expires
            try:
                self.grid.release_worker(self.worker_id)
            except Exception:  # pragma: no cover - the original error wins
                pass
            report.wall_seconds += time.perf_counter() - start
            report.engine = stats.as_dict()
            self._beat(force=True)
        return report

    def _evaluate(self, rows: Sequence[GridRow]) -> None:
        """Make one claimed batch's replays present and settle its rows.

        A claim holds rows of one trace fingerprint, hence one workload.
        A replay error fails the rows (error recorded, campaign
        continues); an interrupt releases them and propagates.
        """
        ids = [row.rowid for row in rows]
        try:
            self.platform.provide(self.workloads[rows[0].job[0]],
                                  [row.job for row in rows])
        except KeyboardInterrupt:
            self.grid.release(ids, self.worker_id)
            raise
        except Exception as exc:
            self.grid.mark_failed(
                ids, self.worker_id, repr(exc), on_conflict=self._count_conflict)
            self.report.failed += len(ids)
            return
        self.report.done += self.grid.mark_done(
            ids, self.worker_id, on_conflict=self._count_conflict)
