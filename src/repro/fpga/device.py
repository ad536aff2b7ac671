"""FPGA device resource envelopes.

The paper instantiates LEON2 on a Xilinx Virtex XCV2000E, which provides
38,400 look-up tables (LUTs) and 160 block RAMs (each 4,096 bits).  The
device model knows its capacities and converts absolute resource counts to
the utilisation percentages the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ResourceError

__all__ = ["FpgaDevice", "XCV2000E", "BRAM_BYTES"]

#: Capacity of one Virtex-E block RAM in bytes (4,096 bits).
BRAM_BYTES = 512


@dataclass(frozen=True)
class FpgaDevice:
    """Resource envelope of an FPGA device."""

    name: str
    luts: int
    brams: int
    bram_bytes: int = BRAM_BYTES

    def __post_init__(self) -> None:
        if self.luts <= 0 or self.brams <= 0:
            raise ResourceError(f"device {self.name!r} must have positive capacities")

    # -- utilisation helpers -----------------------------------------------------

    def lut_percent(self, luts: int) -> float:
        """LUT utilisation as a percentage of device capacity."""
        return 100.0 * luts / self.luts

    def bram_percent(self, brams: int) -> float:
        """BRAM utilisation as a percentage of device capacity."""
        return 100.0 * brams / self.brams

    def fits(self, luts, brams):
        """True when the given resource usage fits on the device.

        Elementwise on arrays of counts (a batch's LUT and BRAM columns).
        """
        return (0 <= luts) & (luts <= self.luts) & (0 <= brams) & (brams <= self.brams)

    def headroom(self, luts: int, brams: int) -> tuple[int, int]:
        """Remaining (LUTs, BRAMs) after subtracting the given usage.

        The paper calls the percentage equivalents of these quantities
        ``L`` and ``B`` (the resources left after the base configuration).
        """
        return self.luts - luts, self.brams - brams


#: The device used throughout the paper.
XCV2000E = FpgaDevice(name="Xilinx Virtex XCV2000E", luts=38_400, brams=160)
