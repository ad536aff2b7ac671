"""Evaluation engine: batched, persistent configuration measurement.

The engine layer sits between the measurement consumers (campaign, tuner,
experiment drivers) and the build-and-measure platform.  It turns *sets*
of requested evaluations into the minimum amount of actual simulation
work: duplicates are collapsed, previously persisted trace summaries and
cache statistics are loaded from a :class:`~repro.engine.store.ResultStore`,
and the remaining cache simulations are replayed in shared-decode groups by the
:class:`~repro.engine.parallel.ParallelEvaluator`, in the calling
process.  A campaign scales out as several processes claiming rows of
one :class:`~repro.engine.campaign.CampaignGrid`.

Every backend -- the bare :class:`~repro.platform.LiquidPlatform` and
the store-backed evaluator alike -- satisfies the structural
:class:`~repro.engine.backend.EvaluationBackend` protocol, so consumers
are written once against the protocol and scaled by swapping the backend.
"""

from repro.engine.backend import EngineStats, EvaluationBackend
from repro.engine.campaign import CampaignGrid, CampaignReport, CampaignWorker
from repro.engine.parallel import ParallelEvaluator
from repro.engine.store import (
    ResultStore,
    busy_retry,
    connect_sqlite,
    open_store,
    workload_fingerprint,
)

__all__ = [
    "CampaignGrid",
    "CampaignReport",
    "CampaignWorker",
    "EngineStats",
    "EvaluationBackend",
    "ParallelEvaluator",
    "ResultStore",
    "busy_retry",
    "connect_sqlite",
    "open_store",
    "workload_fingerprint",
]
