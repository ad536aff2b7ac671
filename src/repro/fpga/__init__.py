"""FPGA device model, analytic synthesis cost model and power/energy estimation."""

from repro.fpga.device import BRAM_BYTES, FpgaDevice, XCV2000E
from repro.fpga.report import ResourceReport
from repro.fpga.synthesis import SynthesisModel
from repro.fpga.power import EnergyEstimate, PowerModel, energy_cost_percent

__all__ = [
    "BRAM_BYTES",
    "FpgaDevice",
    "XCV2000E",
    "ResourceReport",
    "SynthesisModel",
    "EnergyEstimate",
    "PowerModel",
    "energy_cost_percent",
]
