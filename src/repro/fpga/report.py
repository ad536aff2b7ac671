"""Synthesis resource reports.

A :class:`ResourceReport` is the output of "building" a processor
configuration: absolute LUT and BRAM counts, a per-component breakdown and
utilisation percentages relative to the target device.  The paper works
almost exclusively in utilisation percentages (its chip-resource cost is
``%LUT + %BRAM``), so the report exposes those directly.

The synthesis model produces a batch's reports as one resource table:
a row per configuration holding its :data:`LUT_COMPONENTS` and then its
:data:`BRAM_COMPONENTS`; :meth:`ResourceReport.from_row` reads one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.fpga.device import FpgaDevice
from repro.errors import ResourceError

__all__ = ["BRAM_COMPONENTS", "LUT_COMPONENTS", "ResourceReport", "resource_totals"]

#: The LUT breakdown of a report, in resource-table column order.
LUT_COMPONENTS: Tuple[str, ...] = (
    "icache", "dcache", "integer_unit", "multiplier", "divider", "synthesis_options",
    "fixed")

#: The BRAM breakdown of a report; these columns follow the LUT ones.
BRAM_COMPONENTS: Tuple[str, ...] = ("icache", "dcache", "register_file", "fixed")


def resource_totals(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The LUT and BRAM columns of a resource table (sums of their components)."""
    split = len(LUT_COMPONENTS)
    return table[:, :split].sum(axis=1), table[:, split:].sum(axis=1)


@dataclass(frozen=True)
class ResourceReport:
    """Resource utilisation of one synthesised processor configuration."""

    device: FpgaDevice
    luts: int
    brams: int
    lut_breakdown: Mapping[str, int] = field(default_factory=dict)
    bram_breakdown: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.luts < 0 or self.brams < 0:
            raise ResourceError("resource counts cannot be negative")

    @classmethod
    def from_row(cls, device: FpgaDevice, row: Sequence[int]) -> "ResourceReport":
        """The report of one resource-table row (a list of ``int``)."""
        split = len(LUT_COMPONENTS)
        return cls(device, sum(row[:split]), sum(row[split:]),
                   dict(zip(LUT_COMPONENTS, row)), dict(zip(BRAM_COMPONENTS, row[split:])))

    # -- utilisation --------------------------------------------------------------

    @property
    def lut_percent(self) -> float:
        """LUT utilisation as a percentage of the device capacity."""
        return self.device.lut_percent(self.luts)

    @property
    def bram_percent(self) -> float:
        """BRAM utilisation as a percentage of the device capacity."""
        return self.device.bram_percent(self.brams)

    @property
    def chip_cost(self) -> float:
        """The paper's unified chip-resource cost: %LUT + %BRAM."""
        return self.lut_percent + self.bram_percent

    def fits(self) -> bool:
        """True when the configuration fits on the device."""
        return self.device.fits(self.luts, self.brams)

    def require_fits(self) -> "ResourceReport":
        """Return ``self`` or raise :class:`ResourceError` when over capacity."""
        if not self.fits():
            raise ResourceError(
                f"configuration does not fit on {self.device.name}: "
                f"{self.luts} LUTs of {self.device.luts}, "
                f"{self.brams} BRAMs of {self.device.brams}"
            )
        return self

    # -- comparisons ------------------------------------------------------------------

    def delta_percent(self, base: "ResourceReport") -> Dict[str, float]:
        """Percentage-point deltas relative to a base report.

        Returns the paper's ``lambda`` (LUT) and ``beta`` (BRAM) values for
        this configuration when ``base`` is the base configuration.
        """
        return {
            "lut": self.lut_percent - base.lut_percent,
            "bram": self.bram_percent - base.bram_percent,
        }

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.luts} LUTs ({self.lut_percent:.1f}%), "
            f"{self.brams} BRAMs ({self.bram_percent:.1f}%) on {self.device.name}"
        )
