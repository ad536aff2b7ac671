"""The platform's run record: :class:`EngineStats`.

Every count a run keeps lives in one plain dataclass on the measuring
platform (:attr:`LiquidPlatform.stats
<repro.platform.liquid.LiquidPlatform.stats>`): typed scalar fields,
bumped where the work happens, and per-stage wall-clock sums with their
call counts.  :meth:`EngineStats.record` is the one flat view that
``--profile`` prints and ``GET /metrics`` serves; attributes that only
one span knows (a replay's native calls, say) stay on that span.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict

__all__ = ["EngineStats"]

#: The non-scalar fields: per-stage sums and call counts.
_STAGE_FIELDS = ("stage_seconds", "stage_calls")


@dataclass
class EngineStats:
    """Work accounting of one :class:`~repro.platform.liquid.LiquidPlatform`.

    The counters quantify how much simulation the platform *avoided*
    (deduplication and store hits) versus how much it actually ran:
    ``cache_simulations`` counts distinct cache replays and
    ``cache_groups`` the shared decodes they were batched into.
    """

    #: Total measurements requested through the batch API.
    requested: int = 0
    #: Requests answered by collapsing duplicates within a batch.
    dedup_hits: int = 0
    #: Configurations measured from cache rows read from the persistent
    #: result store (none of their geometries replayed by this platform).
    store_hits: int = 0
    #: Rows -- cache geometries, trace summaries and input-key rows --
    #: written to the store.
    store_writes: int = 0
    #: SQLite lock conflicts retried during the platform's store writes.
    store_conflicts: int = 0
    #: Workload trace fingerprints resolved from the store's input-key
    #: rows (no program assembled or simulated to key the lookups), and
    #: input-key lookups that found no row, so the workload was simulated.
    input_hits: int = 0
    input_misses: int = 0
    #: Instructions the functional simulator executed for the traces the
    #: platform generated.
    instructions: int = 0
    #: Distinct cache simulations executed on behalf of the batches.
    cache_simulations: int = 0
    #: Shared-decode groups -- distinct ``(trace, kind, linesize)`` decodes --
    #: the cache simulations were batched into.
    cache_groups: int = 0
    #: Configurations evaluated through
    #: :func:`~repro.microarch.timing.evaluate_many` (in-process memo hits
    #: excluded; store hits are timed like any other configuration) --
    #: the distinct runs of the platform's ``effort()``.
    sweep_evaluations: int = 0
    #: One-factor campaign plans built, and campaign runs that reused a
    #: plan built before (see :class:`~repro.core.campaign.OneFactorCampaign`).
    plans_built: int = 0
    plans_reused: int = 0
    #: Campaign-grid sharding accounting (see
    #: :class:`~repro.engine.campaign.CampaignWorker`): claim transactions
    #: issued, replay rows claimed by them, SQLite lock conflicts
    #: retried during claim/write transactions, and rows requeued --
    #: stale claims reclaimed from dead workers plus failed rows reopened
    #: for retry.  Together they bound the sharding overhead a pull-based
    #: campaign pays on top of the evaluation itself.
    claim_batches: int = 0
    claim_rows: int = 0
    claim_conflicts: int = 0
    claim_requeues: int = 0
    #: Batch calls served.
    batches: int = 0
    #: Wall-clock seconds spent inside the batch API.
    wall_seconds: float = 0.0
    #: Per-stage wall-clock, accumulated across batches and disjoint where
    #: the platform can observe the stages directly, and how many times
    #: each stage ran.  Stages recorded by the platform itself:
    #: ``input_key`` (a workload's fingerprint lookup in the store),
    #: ``trace_generation``, ``store_io`` (the batch's store read and
    #: write), ``cache_simulation`` and ``sweep_evaluate``; the tuner adds
    #: ``solve`` around its solver pass.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_calls: Dict[str, int] = field(default_factory=dict)

    def add_stage(self, stage: str, seconds: float) -> None:
        """Accumulate one run of a named pipeline stage."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
        self.stage_calls[stage] = self.stage_calls.get(stage, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        """The scalar fields, row-ready for the experiment tables."""
        row = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in _STAGE_FIELDS}
        row["wall_seconds"] = round(row["wall_seconds"], 3)
        return row

    def record(self) -> Dict[str, Any]:
        """The flat run record (``--profile``, ``GET /metrics``).

        ``engine.<field>`` for every scalar field, then
        ``stage.<name>`` -> ``{"count": runs, "total": seconds}`` for
        every stage that ran.
        """
        flat: Dict[str, Any] = {
            f"engine.{name}": value for name, value in self.as_dict().items()}
        for stage in sorted(self.stage_seconds):
            flat[f"stage.{stage}"] = {"count": self.stage_calls[stage],
                                      "total": self.stage_seconds[stage]}
        return flat

    def summary(self) -> str:
        """One-line human readable summary for script output."""
        return (
            f"engine: {self.requested} requests, {self.dedup_hits} dedup hits, "
            f"{self.store_hits} store hits, {self.cache_simulations} cache sims "
            f"in {self.cache_groups} decode groups, {self.wall_seconds:.2f}s"
        )
