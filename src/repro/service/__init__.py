"""Always-on tuning service: HTTP sweep/tune jobs over the resident platform.

The paper's method is a batch pipeline -- trace once, sweep
configurations, solve -- but serving that evaluation to heavy repeat
traffic needs a process that stays up: one resident
:class:`~repro.platform.liquid.LiquidPlatform` with its memos warm and
its persistent store answering repeat queries by trace fingerprint, so a sweep a million users re-submit costs one evaluation.
The service evaluates in its own process; to add capacity, point CLI
``--claim`` workers at the campaign database it serves from.

Three modules:

* :mod:`repro.service.jobs` -- the in-process job queue (one executor
  thread, because there is exactly one resident platform);
* :mod:`repro.service.server` -- :class:`TuningService` (the HTTP-free
  application object) plus the stdlib ``ThreadingHTTPServer`` layer:
  ``POST /sweep``, ``POST /tune``, ``GET /jobs[/<id>]``,
  ``GET /metrics``, ``GET /healthz``;
* :mod:`repro.service.client` -- a tiny ``urllib`` client used by the
  tests, the CI service job and the README walkthrough.

Everything is standard library (plus the engine's numpy); the service
adds no dependency.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobManager
from repro.service.server import TuningService, figure2_grid, make_server, serve

__all__ = [
    "Job",
    "JobManager",
    "ServiceClient",
    "ServiceError",
    "TuningService",
    "figure2_grid",
    "make_server",
    "serve",
]
