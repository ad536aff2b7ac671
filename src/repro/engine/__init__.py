"""Persistence and distribution around the one measuring platform.

Every measurement runs on :class:`~repro.platform.LiquidPlatform`: it
collapses duplicates, plans a batch once, replays the missing cache
geometries in shared-decode groups and times the batch in one broadcast.
Constructed with ``store=``, the platform also reads the trace summaries,
cache statistics and trace identities persisted in a
:class:`~repro.engine.store.ResultStore` instead of simulating them, and
writes the new ones back.  This package holds that store and the
campaign queue: a campaign distributes the expensive unit, one cache
replay per (trace, kind, geometry), as rows of one
:class:`~repro.engine.campaign.CampaignGrid`, and scales out as several
processes claiming them, each replaying on its own store-backed
platform into the same store.
"""

import contextlib

from repro.engine.campaign import CampaignGrid, CampaignReport, CampaignWorker
from repro.engine.store import (
    ResultStore,
    busy_retry,
    connect_sqlite,
    open_store,
)
from repro.platform.liquid import LiquidPlatform

__all__ = [
    "CampaignGrid",
    "CampaignReport",
    "CampaignWorker",
    "ResultStore",
    "busy_retry",
    "connect_sqlite",
    "open_store",
]


def ParallelEvaluator(platform=None, *, store=None):  # noqa: N802 - the harness's name
    """``LiquidPlatform(store=store)`` under the benchmark harness's old name.

    Exists only for the pinned harness (``perfbench/``), which still opens it
    with ``with``; ROADMAP item 1 deletes it.
    """
    platform = platform or LiquidPlatform()
    return contextlib.nullcontext(LiquidPlatform(
        platform.device, platform.synthesis, platform.timing_parameters, store=store))
