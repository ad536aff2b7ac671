"""Black-box build-and-measure platform (the paper's Liquid Architecture platform)."""

from repro.platform.liquid import LiquidPlatform
from repro.platform.measurement import CostDelta, Measurement, MeasurementBatch

__all__ = ["LiquidPlatform", "CostDelta", "Measurement", "MeasurementBatch"]
