"""Live in-terminal dashboard over a draining campaign grid.

Everything renders from one :func:`campaign_snapshot` dict -- the same
structure ``run_experiments.py --grid-db ... --status --json`` prints for
machine consumption -- assembled purely from the campaign database: row
counts by status (a row is one cache replay, one per trace, cache kind
and geometry), the per-workload status matrix (each workload's
geometries by status), and the per-worker
heartbeat rows :class:`~repro.engine.campaign.CampaignWorker` persists
into the same SQLite file (no network layer; any terminal that can see
the file can watch the campaign).

:func:`watch` refreshes the rendered view on an interval until the grid
drains, the refresh budget runs out, or the operator hits Ctrl-C (a
clean exit, never a traceback).  Workers whose last heartbeat is older
than ``stale_after`` are flagged ``STALE`` -- the early warning that a
lease is about to be reclaimed.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, IO, List, Optional

from repro.engine.campaign import STATUS_DONE, STATUS_FAILED, CampaignGrid

__all__ = ["campaign_snapshot", "render_dashboard", "watch"]

#: Ordered statuses shown by every rendering.
_STATUS_ORDER = ("open", "claimed", "done", "failed")


def campaign_snapshot(
    grid: CampaignGrid,
    *,
    stale_after: float = 300.0,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """One poll of a campaign: counts, per-workload matrix, worker health.

    ``rows_per_sec`` aggregates the self-reported throughput of every
    non-stale worker; ``eta_seconds`` divides the not-yet-done rows by
    it (``None`` while no live worker reports progress).  ``stalled``
    flags the campaign whose workers have all gone silent: rows are
    still pending but every known worker's heartbeat has aged past
    ``stale_after``, so live throughput is zero and no ETA exists --
    the state a normal-looking progress bar used to hide.  The result
    is JSON-serialisable as-is.
    """
    now = time.time() if now is None else now
    counts = grid.status()
    workloads: Dict[str, Dict[str, int]] = {}
    for workload, status, count in grid.workload_status():
        workloads.setdefault(workload, {})[status] = count

    workers: List[Dict[str, Any]] = []
    throughput = 0.0
    for beat in grid.worker_heartbeats():
        age = max(0.0, now - beat["ts"])
        stale = age > stale_after
        rate = float(beat["rows_per_sec"] or 0.0)
        if not stale:
            throughput += rate
        workers.append({
            "worker": beat["worker"],
            "host": beat["host"],
            "pid": beat["pid"],
            "age_seconds": round(age, 1),
            "batches": beat["batches"],
            "claimed": beat["claimed"],
            "done": beat["done"],
            "failed": beat["failed"],
            "rows_per_sec": round(rate, 2),
            "stale": stale,
        })

    pending = counts["total"] - counts[STATUS_DONE]
    eta = round(pending / throughput, 1) if throughput > 0 and pending else None
    live = [worker for worker in workers if not worker["stale"]]
    stalled = bool(pending and workers and not live)
    return {
        "ts": now,
        "counts": counts,
        "workloads": workloads,
        "workers": workers,
        "rows_per_sec": round(throughput, 2),
        "eta_seconds": eta,
        "stalled": stalled,
        "failures": [
            {"id": rowid, "workload": workload, "attempts": attempts,
             "error": error}
            for rowid, workload, attempts, error in grid.failures(limit=5)
        ],
    }


def _progress_bar(done: int, total: int, width: int = 32) -> str:
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(round(width * done / total))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_dashboard(snapshot: Dict[str, Any]) -> str:
    """Render one snapshot as a fixed-layout multi-line terminal view."""
    counts = snapshot["counts"]
    total = counts["total"]
    done = counts[STATUS_DONE]
    percent = (100.0 * done / total) if total else 0.0
    lines = [
        "campaign grid  "
        + time.strftime("%H:%M:%S", time.localtime(snapshot["ts"])),
        f"  {_progress_bar(done, total)} {done}/{total} done ({percent:.1f}%)",
        "  " + "  ".join(f"{counts[s]} {s}" for s in _STATUS_ORDER),
    ]
    if snapshot["eta_seconds"] is not None:
        lines.append(f"  throughput {snapshot['rows_per_sec']:.2f} rows/s, "
                     f"ETA {snapshot['eta_seconds']:.0f}s")
    elif snapshot.get("stalled"):
        pending = total - done
        stale = sum(1 for worker in snapshot["workers"] if worker["stale"])
        lines.append(
            f"  STALLED: {pending} rows pending, zero live throughput "
            f"({stale} stale worker{'s' if stale != 1 else ''}, no ETA)")

    if snapshot["workloads"]:
        lines.append("  workloads:")
        width = max(len(name) for name in snapshot["workloads"])
        for name, states in snapshot["workloads"].items():
            cells = "  ".join(
                f"{states.get(s, 0)} {s}" for s in _STATUS_ORDER if states.get(s))
            lines.append(f"    {name:<{width}}  {cells}")

    lines.append("  workers:" if snapshot["workers"] else "  workers: none yet")
    for worker in snapshot["workers"]:
        flag = "  STALE" if worker["stale"] else ""
        lines.append(
            f"    {worker['worker']}  {worker['done']} done, "
            f"{worker['failed']} failed in {worker['batches']} batches, "
            f"{worker['rows_per_sec']:.2f} rows/s, "
            f"beat {worker['age_seconds']:.0f}s ago{flag}")

    for failure in snapshot["failures"]:
        lines.append(
            f"  failed row {failure['id']} ({failure['workload']}, "
            f"{failure['attempts']} attempts): {failure['error']}")
    if total and done == total and not counts[STATUS_FAILED]:
        lines.append("  grid drained.")
    return "\n".join(lines)


def watch(
    grid: CampaignGrid,
    *,
    interval: float = 2.0,
    stale_after: float = 300.0,
    max_refreshes: Optional[int] = None,
    stream: Optional[IO[str]] = None,
    clear: Optional[bool] = None,
) -> Dict[str, Any]:
    """Refresh the dashboard until the grid drains (or Ctrl-C); returns
    the last snapshot.

    ``clear`` repaints in place with ANSI clear-screen when the stream
    is a terminal (pass ``False`` to append screens instead, e.g. when
    piping to a file); ``max_refreshes`` bounds the loop for CI and
    tests.  ``KeyboardInterrupt`` exits cleanly after finishing the
    current frame.
    """
    stream = sys.stdout if stream is None else stream
    if clear is None:
        clear = bool(getattr(stream, "isatty", lambda: False)())
    refreshes = 0
    snapshot = campaign_snapshot(grid, stale_after=stale_after)
    try:
        while True:
            if clear:
                stream.write("\x1b[H\x1b[2J")
            stream.write(render_dashboard(snapshot) + "\n")
            stream.flush()
            refreshes += 1
            counts = snapshot["counts"]
            drained = counts["total"] and (
                counts[STATUS_DONE] + counts[STATUS_FAILED] == counts["total"])
            if drained or (max_refreshes is not None
                           and refreshes >= max_refreshes):
                return snapshot
            time.sleep(max(0.0, interval))
            snapshot = campaign_snapshot(grid, stale_after=stale_after)
    except KeyboardInterrupt:
        stream.write("\nwatch interrupted.\n")
        stream.flush()
        return snapshot
