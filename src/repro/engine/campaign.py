"""Distributed campaign grid: a pull-based experiment queue over SQLite.

PyExperimenter-style horizontal scaling for configuration sweeps: a
campaign *registers* its full configuration grid as rows of an
``experiments`` table inside the same SQLite file the
:class:`~repro.engine.store.ResultStore` keeps its trace summaries and
cache statistics in, and any number of :class:`CampaignWorker`
processes -- in one terminal, many terminals, or many hosts sharing the
file -- *claim* batches of open rows, evaluate them through a store-backed
:meth:`~repro.platform.liquid.LiquidPlatform.measure_many`, and write
the rows a batch produced back into the store's tables, exactly like a
direct sweep would.  A campaign is therefore resumable (kill
everything, restart, nothing done is redone) and shardable (N workers
drain one grid cooperatively) without any coordinator process.

The moving parts:

* :class:`CampaignGrid` owns the ``experiments`` table.  Each row is one
  ``(workload fingerprint, configuration)`` evaluation with a status
  machine ``open -> claimed -> done|failed``, the claiming worker's id,
  the claim timestamp (lease), and an attempt counter.  Rows carry a
  *batch key* -- ``fingerprint | icache linesize | dcache linesize`` --
  and a claim always takes rows of a single batch key, so the rows a
  worker evaluates together share their columnar trace decodes and the
  broadcast-batched timing evaluation: sharding never forfeits the
  single-host sweep wins.
* Claims are one atomic ``UPDATE ... RETURNING`` statement under WAL
  (single writer at a time, readers unblocked), wrapped in
  :func:`~repro.engine.store.busy_retry`; two workers can never claim
  the same row.
* A worker that dies mid-claim leaves its rows ``claimed``; any worker's
  next loop iteration reclaims claims older than the *lease* back to
  ``open`` (:meth:`CampaignGrid.reclaim_stale`).  A worker interrupted
  cleanly (``KeyboardInterrupt``/``SystemExit``) releases its claims
  immediately instead of squatting on them until the lease expires.
* Rows whose evaluation raises are marked ``failed`` with the error
  recorded; :meth:`CampaignGrid.reopen_failed` (the worker's automatic
  retry) re-opens them while their attempt count is below the cap, and
  :meth:`CampaignGrid.reset_failed` (the operator's ``--reset-failed``)
  clears the counter and starts over.

Crash safety of results: a worker writes its batch's rows (through the
platform's store) *before* marking rows done, so a crash between the
two leaves rows to be claimed again -- and because every evaluation is
deterministic and store writes are ``INSERT OR IGNORE``, re-evaluating a
row is wasted work but never wrong data.

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
from repro.config.leon_space import leon_parameter_space
from repro.config.parameters import ParameterSpace
from repro.engine.store import (
    ResultStore,
    busy_retry,
    config_key_string,
    connect_sqlite,
    platform_context,
)
from repro.fpga.device import FpgaDevice, XCV2000E
from repro.microarch.timing import TimingParameters
from repro.obs.tracer import span
from repro.platform.liquid import LiquidPlatform
from repro.workloads.base import Workload

__all__ = [
    "CampaignGrid",
    "CampaignWorker",
    "CampaignReport",
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

#: Error recorded when an open row has burnt through its attempt budget.
_EXHAUSTED_ERROR = "attempts exhausted"


def default_worker_id() -> str:
    """A worker id unique across hosts and processes (host:pid:nonce)."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


@dataclass(frozen=True)
class GridRow:
    """One claimed experiment row, ready to evaluate."""

    #: Database row id (stable claim/done/release handle).
    rowid: int
    #: Trace fingerprint of the workload this row measures.
    fingerprint: str
    #: Workload display name recorded at registration.
    workload: str
    #: The full configuration assignment, reconstructed from the row.
    configuration: Configuration
    #: Claim attempts spent on this row so far (including the current one).
    attempts: int


class CampaignGrid:
    """The experiment table of one campaign database.

    Opens (and creates on demand) the ``experiments`` table inside
    ``path`` -- normally the same SQLite file as the campaign's
    :class:`~repro.engine.store.ResultStore`, so grid and results
    travel together.  Rows are keyed ``(context, fingerprint, config
    key)``: registering the same grid twice is a no-op, and a calibration change (different platform context)
    starts a fresh campaign in the same file without touching the old
    one's rows.
    """

    def __init__(
        self,
        path: str,
        *,
        device: FpgaDevice = XCV2000E,
        timing_parameters: Optional[TimingParameters] = None,
        space: Optional[ParameterSpace] = None,
    ):
        self.path = path
        self.device = device
        self.context = platform_context(device, timing_parameters or TimingParameters())
        #: Parameter space configurations are reconstructed against; every
        #: consumer in this repo sweeps the LEON space of Figure 1.
        self.space = space if space is not None else leon_parameter_space()
        self._conn = connect_sqlite(path)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS experiments ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " context TEXT NOT NULL,"
            " fingerprint TEXT NOT NULL,"
            " workload TEXT NOT NULL,"
            " config_key TEXT NOT NULL,"
            " config TEXT NOT NULL,"
            " batch_key TEXT NOT NULL,"
            " status TEXT NOT NULL DEFAULT 'open',"
            " worker TEXT,"
            " claimed_at REAL,"
            " finished_at REAL,"
            " attempts INTEGER NOT NULL DEFAULT 0,"
            " error TEXT,"
            " UNIQUE (context, fingerprint, config_key))")
        # the claim statement's working set: open rows of one context in
        # batch-key groups, oldest first
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS experiments_claim"
            " ON experiments (context, status, batch_key, id)")
        # one row per live worker, upserted on every beat: the dashboard's
        # view of who is draining the grid and how fast (same file, so any
        # terminal that can see the campaign can see its workers)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS heartbeats ("
            " context TEXT NOT NULL,"
            " worker TEXT NOT NULL,"
            " host TEXT NOT NULL,"
            " pid INTEGER NOT NULL,"
            " ts REAL NOT NULL,"
            " batches INTEGER NOT NULL DEFAULT 0,"
            " claimed INTEGER NOT NULL DEFAULT 0,"
            " done INTEGER NOT NULL DEFAULT 0,"
            " failed INTEGER NOT NULL DEFAULT 0,"
            " rows_per_sec REAL NOT NULL DEFAULT 0,"
            " engine TEXT,"
            " PRIMARY KEY (context, worker))")
        self._conn.commit()

    def bind_platform(self, device: FpgaDevice, timing_parameters: TimingParameters) -> None:
        """Re-key the grid to a platform's actual calibration context."""
        self.device = device
        self.context = platform_context(device, timing_parameters)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignGrid":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- registration ----------------------------------------------------------------------

    @staticmethod
    def batch_key(fingerprint: str, config: Configuration) -> str:
        """The shared-decode claim group of one row.

        Rows sharing a batch key share their trace fingerprint and both
        cache line sizes, i.e. exactly the ``(trace, kind, linesize)``
        decode groups of the engine's sweep planner -- a claimed batch
        therefore always replays against shared columnar views.
        """
        return (f"{fingerprint}|{config.icache_linesize_words}"
                f"|{config.dcache_linesize_words}")

    def register(self, workload: Workload, configs: Sequence[Configuration]) -> int:
        """Add one workload's configuration grid; returns the new-row count.

        Registration is idempotent per ``(context, fingerprint, config)``
        -- re-registering a partially drained campaign adds only rows it
        has never seen, so ``--register`` is safe to re-run at any time.
        """
        fingerprint = workload.fingerprint()
        rows = [
            (self.context, fingerprint, workload.name,
             config_key_string(config),
             json.dumps(config.as_dict(), sort_keys=True),
             self.batch_key(fingerprint, config))
            for config in configs
        ]

        def write() -> int:
            before = self._conn.total_changes
            self._conn.executemany(
                "INSERT OR IGNORE INTO experiments"
                " (context, fingerprint, workload, config_key, config, batch_key)"
                " VALUES (?, ?, ?, ?, ?, ?)", rows)
            self._conn.commit()
            return self._conn.total_changes - before

        return busy_retry(write)

    # -- claiming --------------------------------------------------------------------------

    def claim(
        self,
        worker_id: str,
        *,
        batch: int = 16,
        fingerprints: Optional[Iterable[str]] = None,
        max_attempts: Optional[int] = None,
        on_conflict=None,
    ) -> List[GridRow]:
        """Atomically claim up to ``batch`` open rows of one batch key.

        One ``UPDATE ... RETURNING`` statement moves the rows to
        ``claimed``, stamps this worker and the claim time, and bumps
        each row's attempt counter -- all or nothing with respect to any
        concurrently claiming worker (WAL admits one writer at a time;
        ``busy_timeout`` plus :func:`~repro.engine.store.busy_retry`
        absorb the contention).  ``fingerprints`` restricts claims to
        workloads this worker can actually evaluate; ``max_attempts``
        leaves exhausted rows alone (see :meth:`retire_exhausted`).
        Returns the claimed rows (empty when nothing is claimable).
        """
        filters = ["status = 'open'", "context = :context"]
        params: Dict[str, Any] = {
            "context": self.context,
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
            "UPDATE experiments SET"
            " status = 'claimed', worker = :worker, claimed_at = :now,"
            " attempts = attempts + 1"
            " WHERE id IN ("
            f"  SELECT id FROM experiments WHERE {where}"
            "   AND batch_key = ("
            f"    SELECT batch_key FROM experiments WHERE {where}"
            "     ORDER BY id LIMIT 1)"
            "   ORDER BY id LIMIT :batch)"
            " RETURNING id, fingerprint, workload, config, attempts")

        def transact() -> List[Tuple]:
            cursor = self._conn.execute(statement, params)
            returned = cursor.fetchall()
            self._conn.commit()
            return returned

        return [
            GridRow(
                rowid=rowid,
                fingerprint=fingerprint,
                workload=workload,
                configuration=Configuration(self.space, json.loads(config)),
                attempts=attempts,
            )
            for rowid, fingerprint, workload, config, attempts
            in busy_retry(transact, on_conflict=on_conflict)
        ]

    # -- completion and requeueing ---------------------------------------------------------

    def _update_rows(
        self, ids: Sequence[int], assignment: str,
        params: Tuple = (), *, guard: str = "status = 'claimed'",
        on_conflict=None,
    ) -> int:
        if not ids:
            return 0
        placeholders = ", ".join("?" for _ in ids)

        def transact() -> int:
            cursor = self._conn.execute(
                f"UPDATE experiments SET {assignment}"
                f" WHERE {guard} AND id IN ({placeholders})",
                (*params, *ids))
            self._conn.commit()
            return cursor.rowcount

        return busy_retry(transact, on_conflict=on_conflict)

    def mark_done(self, ids: Sequence[int], worker_id: str, *, on_conflict=None) -> int:
        """Move claimed rows to ``done`` (only rows this worker still holds)."""
        return self._update_rows(
            ids, "status = 'done', finished_at = ?, error = NULL",
            (time.time(), worker_id),
            guard="status = 'claimed' AND worker = ?", on_conflict=on_conflict)

    def mark_failed(self, ids: Sequence[int], worker_id: str, error: str, *,
                    on_conflict=None) -> int:
        """Move claimed rows to ``failed`` (only rows this worker still
        holds), recording the error text."""
        return self._update_rows(
            ids, "status = 'failed', finished_at = ?, error = ?",
            (time.time(), error[:500], worker_id),
            guard="status = 'claimed' AND worker = ?", on_conflict=on_conflict)

    def release(self, ids: Sequence[int], worker_id: str, *, on_conflict=None) -> int:
        """Return claimed rows this worker still holds to ``open`` without
        burning their attempt.

        This is the *clean* hand-back (interrupt, shutdown): the claim
        did not fail, so the attempt spent on it is refunded -- unlike
        stale reclamation, where the vanished worker's attempt stays
        burnt so a crash-looping row still converges on the cap.
        """
        return self._update_rows(
            ids, "status = 'open', worker = NULL, claimed_at = NULL,"
                 " attempts = MAX(attempts - 1, 0)", (worker_id,),
            guard="status = 'claimed' AND worker = ?", on_conflict=on_conflict)

    def release_worker(self, worker_id: str) -> int:
        """Release every row still claimed by ``worker_id`` (shutdown path)."""

        def transact() -> int:
            cursor = self._conn.execute(
                "UPDATE experiments SET status = 'open', worker = NULL,"
                " claimed_at = NULL, attempts = MAX(attempts - 1, 0)"
                " WHERE status = 'claimed' AND context = ? AND worker = ?",
                (self.context, worker_id))
            self._conn.commit()
            return cursor.rowcount

        return busy_retry(transact)

    def reclaim_stale(self, lease_seconds: float, *, on_conflict=None) -> int:
        """Requeue claims older than the lease (their worker is presumed dead).

        The burnt attempt is *not* refunded: a worker that keeps dying on
        the same rows drives them toward the attempt cap instead of
        wedging the campaign forever.
        """

        def transact() -> int:
            cursor = self._conn.execute(
                "UPDATE experiments SET status = 'open', worker = NULL,"
                " claimed_at = NULL"
                " WHERE status = 'claimed' AND context = ? AND claimed_at <= ?",
                (self.context, time.time() - max(0.0, lease_seconds)))
            self._conn.commit()
            return cursor.rowcount

        return busy_retry(transact, on_conflict=on_conflict)

    def retire_exhausted(self, max_attempts: int, *, on_conflict=None) -> int:
        """Fail open rows whose attempt budget is spent (reclaimed crashers)."""

        def transact() -> int:
            cursor = self._conn.execute(
                "UPDATE experiments SET status = 'failed', finished_at = ?,"
                " error = ?"
                " WHERE status = 'open' AND context = ? AND attempts >= ?",
                (time.time(), _EXHAUSTED_ERROR, self.context, max(1, max_attempts)))
            self._conn.commit()
            return cursor.rowcount

        return busy_retry(transact, on_conflict=on_conflict)

    def reopen_failed(self, max_attempts: int, *, on_conflict=None) -> int:
        """Reopen failed rows still under the attempt cap (automatic retry)."""

        def transact() -> int:
            cursor = self._conn.execute(
                "UPDATE experiments SET status = 'open', worker = NULL,"
                " claimed_at = NULL, finished_at = NULL"
                " WHERE status = 'failed' AND context = ? AND attempts < ?",
                (self.context, max(1, max_attempts)))
            self._conn.commit()
            return cursor.rowcount

        return busy_retry(transact, on_conflict=on_conflict)

    def reset_failed(self) -> int:
        """Operator reset: every failed row back to ``open`` with a fresh budget."""

        def transact() -> int:
            cursor = self._conn.execute(
                "UPDATE experiments SET status = 'open', worker = NULL,"
                " claimed_at = NULL, finished_at = NULL, attempts = 0,"
                " error = NULL"
                " WHERE status = 'failed' AND context = ?", (self.context,))
            self._conn.commit()
            return cursor.rowcount

        return busy_retry(transact)

    # -- inspection ------------------------------------------------------------------------

    def status(self) -> Dict[str, int]:
        """Row counts by status (plus ``total``) for this context."""
        counts = {status: 0 for status in _STATUSES}
        for status, count in self._conn.execute(
                "SELECT status, COUNT(*) FROM experiments"
                " WHERE context = ? GROUP BY status", (self.context,)):
            counts[status] = count
        counts["total"] = sum(counts[status] for status in _STATUSES)
        return counts

    def workload_status(self) -> List[Tuple[str, str, int]]:
        """Per-(workload, status) row counts, registration order."""
        return list(self._conn.execute(
            "SELECT workload, status, COUNT(*) FROM experiments"
            " WHERE context = ? GROUP BY workload, status"
            " ORDER BY MIN(id)", (self.context,)))

    def failures(self, limit: int = 20) -> List[Tuple[int, str, int, str]]:
        """The most recent failed rows: (id, workload, attempts, error)."""
        return list(self._conn.execute(
            "SELECT id, workload, attempts, error FROM experiments"
            " WHERE context = ? AND status = 'failed'"
            " ORDER BY finished_at DESC LIMIT ?", (self.context, limit)))

    def pending(self) -> int:
        """Rows not yet done (open + claimed + failed)."""
        counts = self.status()
        return counts["total"] - counts[STATUS_DONE]

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
            self.context, worker_id, socket.gethostname(), os.getpid(),
            time.time(), batches, claimed, done, failed, rows_per_sec,
            json.dumps(engine, sort_keys=True) if engine else None)

        def transact() -> None:
            self._conn.execute(
                "INSERT OR REPLACE INTO heartbeats"
                " (context, worker, host, pid, ts, batches, claimed, done,"
                "  failed, rows_per_sec, engine)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", params)
            self._conn.commit()

        busy_retry(transact, on_conflict=on_conflict)

    def worker_heartbeats(self) -> List[Dict[str, Any]]:
        """Every worker's latest heartbeat for this context, newest first."""
        rows = self._conn.execute(
            "SELECT worker, host, pid, ts, batches, claimed, done, failed,"
            " rows_per_sec, engine FROM heartbeats"
            " WHERE context = ? ORDER BY ts DESC", (self.context,))
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
    #: Rows evaluated and marked done by this worker.
    done: int = 0
    #: Rows this worker marked failed (evaluation raised).
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
    evaluates the batch through its platform's
    :meth:`~repro.platform.liquid.LiquidPlatform.measure_many` -- the
    batch's cache statistics and trace summary land in the campaign
    database via the platform's store, so :meth:`ResultStore.get
    <repro.engine.store.ResultStore.get>` assembles every done row
    bit-identical to a direct sweep -- and marks the rows done.  When no
    row is claimable it reopens retryable failed rows once, and exits
    when the grid has nothing left for it.

    ``KeyboardInterrupt`` (or any other teardown) releases the rows the
    worker still holds, so an operator hitting Ctrl-C hands the work
    straight back to the other workers instead of parking it until the
    lease expires.

    Parameters mirror the CLI: ``batch`` rows per claim, ``lease_seconds``
    before another worker may steal a silent claim, ``max_attempts``
    per row before it rests in ``failed``, and ``heartbeat_seconds`` between liveness upserts into the grid's
    ``heartbeats`` table (0 disables them; a beat is also written at
    loop entry and on exit so even instant drains leave a row for the
    dashboard).  The campaign process is the unit of parallelism: run
    more ``--claim`` processes against the same database to drain faster.

    ``platform`` measures the claims when it has a store (the tuning
    service drains its sweeps on its resident platform); that store must
    write into the campaign database so results land where claims do.
    Otherwise the worker measures on its own platform, with the given
    platform's device and calibration, over a
    :class:`~repro.engine.store.ResultStore` it opens on ``grid.path``
    and closes in :meth:`close`.

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
        batch: int = 16,
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
            device, timing = ((XCV2000E, None) if platform is None
                              else (platform.device, platform.timing_parameters))
            self._opened_store = ResultStore(grid.path)
            platform = LiquidPlatform(
                device, timing_parameters=timing, store=self._opened_store)
        self.platform = platform
        grid.bind_platform(self.platform.device, self.platform.timing_parameters)
        #: fingerprint -> workload this worker can evaluate (fingerprinting
        #: generates each trace once; the evaluations need it anyway)
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
                stats.registry.histogram("campaign.claim_rows").observe(len(rows))
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
        """Evaluate one claimed batch and settle every row's status.

        A batch shares one batch key, hence one workload; grouping by
        fingerprint anyway keeps the settle logic correct if a caller
        ever claims across groups.  Evaluation errors fail the affected
        rows (error recorded, campaign continues); interrupts release
        them and propagate.
        """
        by_fingerprint: Dict[str, List[GridRow]] = {}
        for row in rows:
            by_fingerprint.setdefault(row.fingerprint, []).append(row)
        for fingerprint, group in by_fingerprint.items():
            workload = self.workloads[fingerprint]
            ids = [row.rowid for row in group]
            try:
                self.platform.measure_many(
                    workload, [row.configuration for row in group])
            except KeyboardInterrupt:
                self.grid.release(ids, self.worker_id)
                raise
            except Exception as exc:
                self.grid.mark_failed(
                    ids, self.worker_id, repr(exc), on_conflict=self._count_conflict)
                self.report.failed += len(ids)
                continue
            done = self.grid.mark_done(
                ids, self.worker_id, on_conflict=self._count_conflict)
            self.report.done += done
