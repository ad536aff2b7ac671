"""Per-layer busy time and work counts for a traced benchmark run.

:class:`LayerProbe` wraps the entry point of each pipeline layer -- the
functional simulator, trace decode, cache replay, timing evaluation,
synthesis, the BINLP solve and the result store -- in a timer, for the
length of a traced run only.  Wrapping happens on classes and module
attributes from the benchmark's side, so the program itself carries no
benchmark code and an untraced run pays nothing.  Work done in another
process (the service's server) is not wrapped; a scenario books it
through :meth:`LayerProbe.add` and :meth:`LayerProbe.count`.

Time is *self* time: when one layer calls into another (replay asks
for a decode, ``measure_sweep`` runs replay before the timing model),
the inner layer's time is subtracted from the outer one, so the layer
times of one operation never overlap.  Stacks are per thread; the
totals are shared, so work done on the service's job thread counts
too.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names in report order.
LAYERS = ("functional_sim", "decode", "replay", "timing_eval", "synthesis",
          "solve", "store_get", "store_put", "campaign_db", "http")

#: ``CampaignGrid`` methods that read or write the campaign's row table
#: (``claim`` is wrapped on its own, to count the batches it returns).
_CAMPAIGN_DB = ("register", "mark_done", "mark_failed",
                "release_worker", "reclaim_stale", "retire_exhausted",
                "reopen_failed", "heartbeat")


class LayerProbe:
    """Accumulates self time per layer and named work counters."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- accounting ------------------------------------------------------------------

    @contextmanager
    def layer(self, name: str):
        """Time the enclosed block as self time of layer ``name``."""
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [0.0]  # time spent in nested layers
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.seconds[name] += elapsed - frame[0]

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add(self, layer: str, seconds: float) -> None:
        """Account time measured outside a wrapped call to ``layer``."""
        with self._lock:
            self.seconds[layer] += seconds

    # -- installation ----------------------------------------------------------------

    def _patch(self, module: str, owner: Optional[str], attr: str,
               make: Callable[[Any], Any]) -> None:
        """Replace ``module[.owner].attr`` by ``make(original)``, if present."""
        target: Any = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        original = getattr(target, attr, None) if target is not None else None
        if original is None:  # the layer moved: report it as idle, not crash
            return
        self._patches.append((target, attr, original))
        setattr(target, attr, functools.wraps(original)(make(original)))

    def _timed(self, layer: str, counter: Optional[Callable[..., None]] = None):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.layer(layer):
                    result = original(*args, **kwargs)
                if counter is not None:
                    counter(args, result)
                return result
            return wrapper
        return make

    def _decode(self, original):
        def wrapper(trace, kind, linesize_bytes, *args, **kwargs):
            fresh = not trace.has_columnar_view(kind, linesize_bytes)
            with self.layer("decode"):
                view = original(trace, kind, linesize_bytes, *args, **kwargs)
            if fresh:
                self.count("decodes")
            return view
        return wrapper

    def install(self) -> "LayerProbe":
        count = self.count
        patch = self._patch
        patch("repro.microarch.functional", "FunctionalSimulator", "run",
              self._timed("functional_sim", lambda a, r: count(
                  "instructions", r.trace.instruction_count)))
        patch("repro.microarch.trace", "ExecutionTrace", "columnar_view",
              self._decode)
        patch("repro.platform.liquid", "LiquidPlatform", "simulate_cache_jobs",
              self._timed("replay", lambda a, r: count("cache_sims", len(r))))
        patch("repro.platform.liquid", "LiquidPlatform", "simulate_cache_job",
              self._timed("replay", lambda a, r: count("cache_sims")))
        patch("repro.microarch.timing", "TimingModel", "evaluate",
              self._timed("timing_eval", lambda a, r: count("timing_evals")))
        # the broadcast timing model of a sweep, called only for the
        # configurations the sweep did not find in its memo
        patch("repro.platform.liquid", None, "evaluate_many",
              self._timed("timing_eval", lambda a, r: count("timing_evals", len(r))))
        patch("repro.fpga.synthesis", "SynthesisModel", "synthesize",
              self._timed("synthesis"))
        patch("repro.core.tuner", None, "build_problem", self._timed("solve"))
        patch("repro.core.solvers", "BranchAndBoundSolver", "solve",
              self._timed("solve", lambda a, r: count("solves")))
        for store in ("SqliteResultStore", "ResultStore"):
            patch("repro.engine.store", store, "get", self._timed(
                "store_get", lambda a, r: count(
                    "store_hits" if r is not None else "store_misses")))
            patch("repro.engine.store", store, "put", self._timed(
                "store_put", lambda a, r: count("store_puts")))
        for method in _CAMPAIGN_DB:
            patch("repro.engine.campaign", "CampaignGrid", method,
                  self._timed("campaign_db"))
        patch("repro.engine.campaign", "CampaignGrid", "claim", self._timed(
            "campaign_db", lambda a, r: count("claims") if r else None))
        return self

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)
