"""Measurement records returned by the Liquid platform.

A :class:`Measurement` bundles everything the paper's campaign extracts
from one (configuration, application) pair: the synthesis resource report
(LUT/BRAM utilisation) and the cycle-accurate runtime profile.  The
convenience delta methods compute the paper's rho (runtime %), lambda
(LUT %) and beta (BRAM %) values relative to a base measurement.

A batch of measurements is a :class:`MeasurementBatch`: NumPy columns for
the whole batch, from which ``batch[i]`` builds row ``i``'s
:class:`Measurement` only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.config.configuration import Configuration
from repro.fpga.device import FpgaDevice
from repro.fpga.report import LUT_COMPONENTS, ResourceReport
from repro.microarch.cache import CacheStatistics
from repro.microarch.statistics import ExecutionStatistics
from repro.microarch.timing import BREAKDOWN_CATEGORIES

__all__ = ["Measurement", "MeasurementBatch", "CostDelta"]


@dataclass(frozen=True)
class CostDelta:
    """Per-perturbation cost deltas relative to the base configuration."""

    #: Runtime delta in percent of the base runtime (the paper's rho_i).
    rho: float
    #: LUT utilisation delta in percentage points (the paper's lambda_i).
    lam: float
    #: BRAM utilisation delta in percentage points (the paper's beta_i).
    beta: float

    @property
    def chip(self) -> float:
        """Combined chip-resource delta (lambda + beta), the paper's chip cost term."""
        return self.lam + self.beta


@dataclass(frozen=True)
class Measurement:
    """Resources and runtime of one workload on one configuration."""

    workload: str
    configuration: Configuration
    resources: ResourceReport
    statistics: ExecutionStatistics

    # -- absolute values --------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.statistics.cycles

    @property
    def seconds(self) -> float:
        return self.statistics.seconds

    @property
    def lut_percent(self) -> float:
        return self.resources.lut_percent

    @property
    def bram_percent(self) -> float:
        return self.resources.bram_percent

    @property
    def chip_cost(self) -> float:
        return self.resources.chip_cost

    # -- deltas ---------------------------------------------------------------------------

    def delta(self, base: "Measurement") -> CostDelta:
        """rho/lambda/beta of this measurement relative to ``base``."""
        rho = self.statistics.runtime_delta_percent(base.statistics)
        resource_delta = self.resources.delta_percent(base.resources)
        return CostDelta(rho=rho, lam=resource_delta["lut"], beta=resource_delta["bram"])

    def summary(self) -> Dict[str, float]:
        """Row-ready summary used by the experiment tables."""
        return {
            "cycles": float(self.cycles),
            "seconds": self.seconds,
            "lut_percent": self.lut_percent,
            "bram_percent": self.bram_percent,
        }


class MeasurementBatch(Sequence[Measurement]):
    """The measurements of one batch of configurations, held as columns.

    :meth:`LiquidPlatform.measure_many
    <repro.platform.liquid.LiquidPlatform.measure_many>` returns one.  It
    holds the batch's resource table (:mod:`repro.fpga.report`), its
    timing term table (:data:`~repro.microarch.timing.TIMING_COLUMNS`)
    and each row's cache statistics, aligned with :attr:`configurations`.
    The named columns are views of those tables or derive from them:

    * :attr:`cycles`, :attr:`breakdown` (one column per
      :data:`~repro.microarch.timing.BREAKDOWN_CATEGORIES` entry),
      :attr:`window_overflows` and :attr:`window_underflows`;
    * :attr:`icache` and :attr:`dcache`, each row's cache statistics;
    * :attr:`luts`, :attr:`brams`, their breakdowns :attr:`lut_breakdown`
      and :attr:`bram_breakdown`, :attr:`lut_percent`, :attr:`bram_percent`
      and :attr:`fits`.

    ``batch[i]`` builds row ``i``'s frozen :class:`Measurement`, every
    number a Python ``int`` or ``float``; a slice is a batch of those
    rows.  A batch equals any sequence of equal measurements.
    """

    def __init__(
        self,
        workload: str,
        configurations: Sequence[Configuration],
        device: FpgaDevice,
        resources: np.ndarray,
        trace: str,
        instruction_count: int,
        timing: np.ndarray,
        icache: Sequence[CacheStatistics],
        dcache: Sequence[CacheStatistics],
    ):
        self.workload = workload
        self.configurations = tuple(configurations)
        self.device = device
        #: The resource table: one row per configuration.
        self.resources = resources
        #: Name the rows' :class:`~repro.microarch.statistics.ExecutionStatistics`
        #: carry (the measured trace's).
        self.trace = trace
        self.instruction_count = instruction_count
        #: The timing term table: one row per configuration.
        self.timing = timing
        self.icache = tuple(icache)
        self.dcache = tuple(dcache)
        categories, components = len(BREAKDOWN_CATEGORIES), len(LUT_COMPONENTS)
        self.breakdown = timing[:, :categories]
        self.window_overflows = timing[:, categories]
        self.window_underflows = timing[:, categories + 1]
        self.lut_breakdown = resources[:, :components]
        self.bram_breakdown = resources[:, components:]

    # -- columns derived on first use ------------------------------------------------------

    @cached_property
    def cycles(self) -> np.ndarray:
        return self.breakdown.sum(axis=1)

    @cached_property
    def luts(self) -> np.ndarray:
        return self.lut_breakdown.sum(axis=1)

    @cached_property
    def brams(self) -> np.ndarray:
        return self.bram_breakdown.sum(axis=1)

    @cached_property
    def lut_percent(self) -> np.ndarray:
        return self.device.lut_percent(self.luts)

    @cached_property
    def bram_percent(self) -> np.ndarray:
        return self.device.bram_percent(self.brams)

    @cached_property
    def fits(self) -> np.ndarray:
        return self.device.fits(self.luts, self.brams)

    # -- rows --------------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.configurations)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        return self._row(range(len(self))[index])

    def __iter__(self) -> Iterator[Measurement]:
        return map(self._row, range(len(self)))

    def take(self, indices: Sequence[int]) -> "MeasurementBatch":
        """The batch of the rows at ``indices``, in that order."""
        rows = np.asarray(indices, dtype=np.intp)
        configurations, icache, dcache = self.configurations, self.icache, self.dcache
        return MeasurementBatch(
            self.workload, [configurations[i] for i in indices], self.device,
            self.resources[rows], self.trace, self.instruction_count, self.timing[rows],
            [icache[i] for i in indices], [dcache[i] for i in indices])

    @cached_property
    def _lists(self) -> Tuple[List[List[int]], List[List[int]]]:
        # one conversion per batch: every row reads Python ints from here
        return self.resources.tolist(), self.timing.tolist()

    def _row(self, i: int) -> Measurement:
        resources, timing = self._lists
        config = self.configurations[i]
        row = timing[i]
        breakdown = dict(zip(BREAKDOWN_CATEGORIES, row))
        split = len(BREAKDOWN_CATEGORIES)
        return Measurement(
            self.workload, config, ResourceReport.from_row(self.device, resources[i]),
            ExecutionStatistics(
                self.trace, config, self.instruction_count, sum(breakdown.values()),
                breakdown, self.icache[i], self.dcache[i], row[split], row[split + 1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"MeasurementBatch(workload={self.workload!r}, rows={len(self)})"
