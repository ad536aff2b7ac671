"""The always-on tuning service: HTTP jobs over one resident platform.

:class:`TuningService` is the HTTP-free application object -- it owns
the resident store-backed platform and the job queue, and can be
driven directly from tests without a socket.  The thin stdlib HTTP
layer (:func:`make_server`, built on ``ThreadingHTTPServer``) maps five
routes onto it:

* ``POST /sweep`` -- evaluate a ``{workload} x {configurations}`` grid
  (the Figure-2 dcache grid by default); returns a job id immediately.
* ``POST /tune``  -- run a full BINLP tuning job (one-factor campaign,
  solve, optional verification) for a workload under given weights.
* ``GET /jobs`` and ``GET /jobs/<id>`` -- job status with incremental
  results: a long sweep streams its finished batches before the job is
  done.
* ``GET /metrics`` -- engine statistics, the full metrics registry and
  job counts in one JSON document.
* ``GET /healthz`` -- liveness.

Repeat traffic is the point: the service keeps ONE
:class:`~repro.platform.liquid.LiquidPlatform` (hence one store and
warm memos) across every job, and the store keeps each trace's
summary and cache statistics -- so re-submitting an identical sweep
answers from the memos with zero new evaluations, and a new
configuration over known cache geometries costs only the timing model,
bit for bit identical to the first answer *and* to a direct
``measure_many`` call.  Sweep results on the wire are the store's
encoded records (:meth:`ResultStore.encode
<repro.engine.store.ResultStore.encode>`), which is what makes that
equality a one-line comparison.

When the service is given a campaign database (``grid_path``), a sweep
job registers the cache replays of its configurations as campaign-grid
rows and drains them through a
:class:`~repro.engine.campaign.CampaignWorker` running on the resident
platform -- so CLI ``--claim`` workers pointed at the same file pull
from the same queue as the service, and either side may finish any row
-- then times the sweep from the replayed rows.
"""

from __future__ import annotations

import itertools
import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence

from repro.config import (
    CACHE_SET_COUNTS,
    CACHE_SET_SIZES_KB,
    base_configuration,
)
from repro.config.configuration import Configuration
from repro.config.leon_space import leon_parameter_space
from repro.core.tuner import MicroarchTuner
from repro.core.weights import (
    RESOURCE_OPTIMIZATION,
    RUNTIME_ONLY,
    RUNTIME_OPTIMIZATION,
    Weights,
)
from repro.engine.campaign import CampaignGrid, CampaignWorker
from repro.engine.store import ResultStore, open_store
from repro.platform.liquid import LiquidPlatform
from repro.service.jobs import Job, JobManager
from repro.workloads import small_workloads, standard_workloads
from repro.workloads.base import Workload

__all__ = ["TuningService", "figure2_grid", "make_server", "serve"]

#: Named weight presets accepted by ``POST /tune`` payloads.
_WEIGHT_PRESETS = {
    "runtime": RUNTIME_OPTIMIZATION,
    "resources": RESOURCE_OPTIMIZATION,
    "runtime-only": RUNTIME_ONLY,
}


def figure2_grid(platform: LiquidPlatform) -> List[Configuration]:
    """The buildable Figure-2 dcache ``{sets x set size}`` grid.

    Canonical home of the grid every surface shares: the experiment
    script, the campaign ``--register`` and the service's default sweep
    all call this, so "the same grid" is true by construction.
    """
    base = base_configuration()
    configs = [
        base.replace(dcache_sets=sets, dcache_setsize_kb=size)
        for sets, size in itertools.product(CACHE_SET_COUNTS, CACHE_SET_SIZES_KB)
    ]
    return [config for config, fits in zip(configs, platform.fits_many(configs)) if fits]


#: Largest request body the HTTP layer reads, in bytes (larger ones get 413).
MAX_BODY_BYTES = 1 << 20

#: Most configurations one sweep job may list (longer lists get 413 at
#: submission).  Bounds the job's memory and its result record; every
#: cache geometry of the LEON space (under 300 configurations) fits.
MAX_SWEEP_CONFIGS = 4096


class ServiceBadRequest(ValueError):
    """A malformed job payload (mapped to HTTP 400)."""

    status = 400


class ServicePayloadTooLarge(ServiceBadRequest):
    """A body over :data:`MAX_BODY_BYTES`, or a sweep over
    :data:`MAX_SWEEP_CONFIGS` configurations (mapped to HTTP 413)."""

    status = 413


class TuningService:
    """The resident application object behind the HTTP routes.

    Parameters
    ----------
    scale:
        Workload registry served: ``"standard"`` (benchmark traces) or
        ``"small"`` (quick smoke traces; the test/CI default).
    store_path:
        Persistent result store path (a SQLite file).  Ignored when
        ``grid_path`` is given; default is an in-memory store
        (memoisation still works within the service's lifetime).
    grid_path:
        Campaign database.  A sweep job's cache replays then run as
        campaign-grid rows, shared with any CLI ``--claim`` workers on the
        same file, and the replayed rows persist in the same database.
    sweep_chunk:
        Configurations per evaluation batch of a direct (non-grid)
        sweep job; smaller chunks stream results sooner.
    """

    def __init__(
        self,
        *,
        scale: str = "small",
        store_path: Optional[str] = None,
        grid_path: Optional[str] = None,
        sweep_chunk: int = 16,
    ):
        if scale not in ("standard", "small"):
            raise ValueError(f"unknown workload scale: {scale!r}")
        self.grid: Optional[CampaignGrid] = None
        if grid_path:
            self.grid = CampaignGrid(grid_path)
            self.store = ResultStore(grid_path)
        else:
            self.store = open_store(store_path)
        self.platform = LiquidPlatform(store=self.store)
        self.workloads: Dict[str, Workload] = (
            small_workloads() if scale == "small" else standard_workloads())
        self.space = leon_parameter_space()
        # one tuner, so every tune job reuses its one-factor plans; jobs run
        # one at a time on the job thread
        self.tuner = MicroarchTuner(self.platform, self.space)
        self.sweep_chunk = max(1, sweep_chunk)
        self.jobs = JobManager(self._execute)

    # -- lifecycle -------------------------------------------------------------------------

    def start(self) -> "TuningService":
        self.jobs.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Finish queued jobs (unless ``drain=False``), then tear down."""
        self.jobs.stop(drain=drain)
        self.store.close()
        if self.grid is not None:
            self.grid.close()

    def __enter__(self) -> "TuningService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- payload handling ------------------------------------------------------------------

    def _workload(self, payload: Dict[str, Any]) -> Workload:
        name = payload.get("workload")
        if not name:
            raise ServiceBadRequest("payload needs a 'workload' name")
        try:
            return self.workloads[name]
        except KeyError:
            raise ServiceBadRequest(
                f"unknown workload {name!r} "
                f"(have: {', '.join(sorted(self.workloads))})") from None

    def _configs(self, payload: Dict[str, Any]) -> List[Configuration]:
        """Sweep targets: explicit config dicts, or the Figure-2 grid.

        Every explicit configuration must be valid and buildable on the
        platform's device, so a sweep that would fail midway is refused
        at submission instead.
        """
        raw = payload.get("configs")
        if raw is None:
            return figure2_grid(self.platform)
        if not isinstance(raw, list) or not raw:
            raise ServiceBadRequest("'configs' must be a non-empty list")
        if len(raw) > MAX_SWEEP_CONFIGS:
            raise ServicePayloadTooLarge(
                f"'configs' lists {len(raw)} configurations; a sweep takes at "
                f"most {MAX_SWEEP_CONFIGS}")
        base = base_configuration()
        configs = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ServiceBadRequest(f"configs[{index}] is not an object")
            try:
                configs.append(base.replace(**entry))
            except Exception as exc:
                raise ServiceBadRequest(
                    f"configs[{index}] is invalid: {exc}") from None
        for index, fits in enumerate(self.platform.fits_many(configs).tolist()):
            if not fits:
                report = self.platform.report(configs[index])
                raise ServiceBadRequest(
                    f"configs[{index}] does not fit on "
                    f"{self.platform.device.name}: {report.summary()}")
        return configs

    def _weights(self, payload: Dict[str, Any]) -> Weights:
        raw = payload.get("weights", "runtime")
        if isinstance(raw, str):
            try:
                return _WEIGHT_PRESETS[raw]
            except KeyError:
                raise ServiceBadRequest(
                    f"unknown weights preset {raw!r} "
                    f"(have: {', '.join(sorted(_WEIGHT_PRESETS))})") from None
        if isinstance(raw, dict):
            try:
                return Weights(
                    runtime=float(raw.get("runtime", 0.0)),
                    resources=float(raw.get("resources", 0.0)),
                    label=str(raw.get("label", "custom")))
            except ValueError as exc:
                raise ServiceBadRequest(f"invalid weights: {exc}") from None
        raise ServiceBadRequest("'weights' must be a preset name or an object")

    # -- job submission --------------------------------------------------------------------

    def submit_sweep(self, payload: Dict[str, Any]) -> Job:
        """Validate and enqueue a sweep job.

        Validation errors -- unknown workload, malformed or unbuildable
        configurations -- raise now, before the caller gets a job id, so
        a queued job never fails validation."""
        self._workload(payload)
        self._configs(payload)
        return self.jobs.submit("sweep", payload)

    def submit_tune(self, payload: Dict[str, Any]) -> Job:
        self._workload(payload)
        self._weights(payload)
        return self.jobs.submit("tune", payload)

    def job_snapshot(self, job_id: str, *, results: bool = True) -> Optional[Dict[str, Any]]:
        job = self.jobs.get(job_id)
        if job is None:
            return None
        return self.jobs.snapshot(job, results=results)

    def metrics(self) -> Dict[str, Any]:
        """Everything ``GET /metrics`` reports, as one JSON document."""
        stats = self.platform.stats
        return {
            "engine": stats.as_dict(),
            "registry": stats.registry.snapshot(),
            "jobs": self.jobs.counts(),
            "store": {"records": len(self.store)},
        }

    # -- job execution (runs on the JobManager thread) -------------------------------------

    def _execute(self, job: Job) -> None:
        if job.kind == "sweep":
            self._run_sweep(job)
        elif job.kind == "tune":
            self._run_tune(job)
        else:  # pragma: no cover - submit() only enqueues known kinds
            raise ServiceBadRequest(f"unknown job kind {job.kind!r}")

    def _run_sweep(self, job: Job) -> None:
        workload = self._workload(job.payload)
        configs = self._configs(job.payload)
        self.jobs.set_total(job, len(configs))
        if self.grid is not None:
            self._drain_grid(job, workload, configs)
            # every row is settled (by us or by a CLI --claim worker
            # sharing the queue); answering the job from the store is a
            # pure re-read -- and if a foreign worker still holds a row,
            # evaluating it here is deterministic duplicate work, never
            # wrong data
        for start in range(0, len(configs), self.sweep_chunk):
            chunk = configs[start:start + self.sweep_chunk]
            measurements = self.platform.measure_many(workload, chunk)
            self.jobs.append_results(
                job, [self.store.encode(workload, m) for m in measurements])

    def _drain_grid(
        self, job: Job, workload: Workload, configs: Sequence[Configuration]
    ) -> None:
        """Register the sweep's replays as campaign rows and pull until settled."""
        grid = self.grid
        assert grid is not None
        added = grid.register(workload, configs)
        self.jobs.annotate(job, grid_rows_added=added)
        worker = CampaignWorker(
            grid, [workload], platform=self.platform,
            worker_id=f"service:{job.id}", batch=self.sweep_chunk,
            heartbeat_seconds=15.0)
        while True:
            batches_before = worker.report.batches
            worker.run(max_batches=batches_before + 1)
            self.jobs.annotate(
                job,
                grid_done=worker.report.done,
                grid_failed=worker.report.failed,
                grid_batches=worker.report.batches)
            if worker.report.batches == batches_before:
                return  # nothing claimable: grid settled (or held elsewhere)

    def _run_tune(self, job: Job) -> None:
        workload = self._workload(job.payload)
        weights = self._weights(job.payload)
        parameters = job.payload.get("parameters")
        verify = bool(job.payload.get("verify", False))
        result = self.tuner.tune(
            workload, weights, parameters=parameters, verify=verify)
        record: Dict[str, Any] = {
            "workload": result.workload,
            "weights": {"runtime": weights.runtime,
                        "resources": weights.resources,
                        "label": weights.describe()},
            "configuration": result.configuration.as_dict(),
            "changed_parameters": {
                name: {"base": base, "tuned": tuned}
                for name, (base, tuned) in result.changed_parameters().items()
            },
            "predicted": {
                "runtime_percent": result.predicted.runtime_percent,
                "runtime_cycles": result.predicted.runtime_cycles,
                "lut_percent": result.predicted.lut_percent_linear,
                "bram_percent": result.predicted.bram_percent_nonlinear,
            },
        }
        if result.actual is not None:
            record["actual"] = self.store.encode(workload, result.actual)
        self.jobs.set_total(job, 1)
        self.jobs.append_results(job, [record])


# -- the stdlib HTTP layer ---------------------------------------------------------------------


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes five paths onto the ``TuningService`` hanging off the server."""

    server_version = "repro-tuning/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> TuningService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet by default; the service's own telemetry covers requests."""

    def _reply(self, status: int, document: Dict[str, Any]) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _payload(self) -> Dict[str, Any]:
        length = self._content_length()
        if not length:
            return {}
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceBadRequest(f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ServiceBadRequest("request body must be a JSON object")
        return payload

    def _content_length(self) -> int:
        """The body length, validated before anything is read.

        A rejected length leaves the body unread, so the connection closes
        after the error reply instead of parsing the body as a request.
        """
        text = self.headers.get("Content-Length") or "0"
        try:
            length = int(text)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ServiceBadRequest(f"invalid Content-Length {text!r}")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ServicePayloadTooLarge(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        return length

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._reply(200, {"ok": True})
        elif path == "/metrics":
            self._reply(200, self.service.metrics())
        elif path == "/jobs":
            self._reply(200, {"jobs": self.service.jobs.list_jobs()})
        elif path.startswith("/jobs/"):
            snapshot = self.service.job_snapshot(path[len("/jobs/"):])
            if snapshot is None:
                self._reply(404, {"error": "no such job"})
            else:
                self._reply(200, snapshot)
        else:
            self._reply(404, {"error": f"no route for GET {path}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            payload = self._payload()
            if path == "/sweep":
                job = self.service.submit_sweep(payload)
            elif path == "/tune":
                job = self.service.submit_tune(payload)
            else:
                self._reply(404, {"error": f"no route for POST {path}"})
                return
        except ServiceBadRequest as exc:
            self._reply(exc.status, {"error": str(exc)})
            return
        self._reply(202, self.service.jobs.snapshot(job, results=False))


def make_server(
    service: TuningService, *, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``service`` (port 0 = ephemeral)."""
    httpd = ThreadingHTTPServer((host, port), _ServiceHandler)
    httpd.daemon_threads = True
    httpd.service = service  # type: ignore[attr-defined]
    return httpd


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8023,
    scale: str = "small",
    store_path: Optional[str] = None,
    grid_path: Optional[str] = None,
    install_signals: bool = True,
    announce=print,
) -> None:
    """Run the tuning service until SIGTERM/SIGINT, then drain and exit.

    The accept loop runs on a background thread; the main thread parks
    on a stop event.  The signal handler only sets that event
    (``HTTPServer.shutdown`` *waits* for the serve loop and would
    deadlock called from a handler on the serving thread), so shutdown
    is: event set -> main thread stops the accept loop -> queued jobs
    finish -> the service closes.  Nothing is killed mid-job.
    """
    service = TuningService(
        scale=scale, store_path=store_path, grid_path=grid_path)
    httpd = make_server(service, host=host, port=port)
    stop = threading.Event()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda signum, frame: stop.set())
    service.start()
    announce(f"tuning service on http://{httpd.server_address[0]}:"
             f"{httpd.server_address[1]} "
             f"(scale={scale}, grid={grid_path or 'none'}, "
             f"store={store_path or grid_path or 'memory'})")
    accept_loop = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.2},
        name="service-http", daemon=True)
    accept_loop.start()
    try:
        while not stop.wait(0.2):
            pass
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        httpd.shutdown()
        accept_loop.join(timeout=10.0)
        httpd.server_close()
        announce("draining jobs...")
        service.stop(drain=True)
        announce("tuning service stopped.")
