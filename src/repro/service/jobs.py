"""In-process job queue of the tuning service.

One executor thread drains a FIFO of submitted jobs against the single
resident evaluator -- serialising jobs is deliberate: two jobs
interleaving on one evaluator would only fight over the same cores
while wrecking the per-job accounting the service reports.

Jobs are plain state machines (``queued -> running -> done | failed``)
whose mutations all happen under the manager lock, so HTTP handler
threads can snapshot any job mid-run and see a consistent view --
including *incremental results*: the executors append measurement
records batch by batch, which is what lets ``GET /jobs/<id>`` stream
progress on a long sweep instead of answering only at the end.
At most :data:`MAX_FINISHED_JOBS` finished jobs are kept, the oldest
evicted first; queued and running jobs are never evicted.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Job", "JobManager", "MAX_FINISHED_JOBS",
           "JOB_QUEUED", "JOB_RUNNING", "JOB_DONE", "JOB_FAILED"]

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Finished (done or failed) jobs a manager keeps before evicting the oldest.
MAX_FINISHED_JOBS = 1024


@dataclass
class Job:
    """One submitted unit of service work (sweep or tune)."""

    id: str
    kind: str
    payload: Dict[str, Any]
    status: str = JOB_QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Progress: results produced so far / results expected (0 = unknown).
    done: int = 0
    total: int = 0
    #: Incremental result records, appended as batches complete.
    results: List[Any] = field(default_factory=list)
    error: Optional[str] = None
    #: Executor-attached extras (engine accounting deltas, store hits).
    meta: Dict[str, Any] = field(default_factory=dict)


class JobManager:
    """FIFO job queue with one executor thread and locked snapshots.

    ``executor`` is called with each job once it reaches the front of
    the queue; raising marks the job ``failed`` with the repr of the
    error, returning marks it ``done``.  Executors report progress
    through :meth:`append_results` / :meth:`set_total` / :meth:`annotate`
    so every mutation shares the manager lock with the snapshot readers.
    """

    def __init__(self, executor: Callable[[Job], None]):
        self._executor = executor
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._finished: "deque[str]" = deque()  # finished job ids, oldest first
        self._lock = threading.RLock()
        self._idle = threading.Event()
        self._idle.set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="service-jobs", daemon=True)
        self._thread.start()

    def stop(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the executor thread; ``drain`` finishes queued jobs first."""
        if drain:
            self.drain(timeout=timeout)
        self._stop.set()
        self._queue.put(None)  # wake the executor so it observes the stop
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def drain(self, *, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job has finished (the SIGTERM path)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                pending = any(job.status in (JOB_QUEUED, JOB_RUNNING)
                              for job in self._jobs.values())
            if not pending:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            self._idle.wait(timeout=0.05)

    # -- submission and inspection ---------------------------------------------------------

    def submit(self, kind: str, payload: Dict[str, Any]) -> Job:
        job = Job(id=uuid.uuid4().hex[:12], kind=kind, payload=payload)
        with self._lock:
            self._jobs[job.id] = job
        self._idle.clear()
        self._queue.put(job.id)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def snapshot(self, job: Job, *, results: bool = True) -> Dict[str, Any]:
        """A consistent JSON-ready view of one job."""
        with self._lock:
            snap = {
                "id": job.id,
                "kind": job.kind,
                "status": job.status,
                "submitted_at": job.submitted_at,
                "started_at": job.started_at,
                "finished_at": job.finished_at,
                "done": job.done,
                "total": job.total,
                "error": job.error,
                "meta": dict(job.meta),
            }
            if results:
                snap["results"] = list(job.results)
            return snap

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Submission-ordered summaries (no result bodies) of every job."""
        with self._lock:
            jobs = list(self._jobs.values())
        return [self.snapshot(job, results=False) for job in jobs]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {s: 0 for s in (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)}
            for job in self._jobs.values():
                counts[job.status] += 1
            counts["total"] = len(self._jobs)
        return counts

    # -- executor-side progress reporting --------------------------------------------------

    def set_total(self, job: Job, total: int) -> None:
        with self._lock:
            job.total = total

    def append_results(self, job: Job, records: List[Any]) -> None:
        with self._lock:
            job.results.extend(records)
            job.done = len(job.results)

    def annotate(self, job: Job, **meta: Any) -> None:
        with self._lock:
            job.meta.update(meta)

    # -- the executor loop -----------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                self._idle.set()
                continue
            if job_id is None:  # stop() wake-up token
                continue
            job = self.get(job_id)
            if job is None:  # pragma: no cover - defensive
                continue
            with self._lock:
                job.status = JOB_RUNNING
                job.started_at = time.time()
            error = None
            try:
                self._executor(job)
            except Exception as exc:
                error = repr(exc)
            with self._lock:
                job.status = JOB_DONE if error is None else JOB_FAILED
                job.error = error
                job.finished_at = time.time()
                self._finished.append(job.id)
                while len(self._finished) > MAX_FINISHED_JOBS:
                    del self._jobs[self._finished.popleft()]
            if self._queue.empty():
                self._idle.set()
