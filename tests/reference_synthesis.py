"""Per-configuration synthesis oracle: the reference for ``SynthesisModel.synthesize``.

:func:`synthesize_reference` is the scalar statement of the analytic
synthesis model: it walks one configuration's cache geometries, pipeline
options and implementations and sums their LUT and BRAM terms into a
:class:`~repro.fpga.report.ResourceReport`, reading only the calibration
constants of :class:`~repro.fpga.synthesis.SynthesisModel`.  The
production model synthesises a whole batch as integer columns; the
property suite (``test_measurement_batch.py``) holds the two equal bit
for bit over the whole LEON space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.config.configuration import Configuration
from repro.config.leon_space import Replacement
from repro.fpga.device import BRAM_BYTES
from repro.fpga.report import ResourceReport
from repro.fpga.synthesis import SynthesisModel

__all__ = ["CacheGeometry", "bram_breakdown", "lut_breakdown", "synthesize_reference"]


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache (instruction or data)."""

    sets: int
    setsize_kb: int
    linesize_words: int

    @property
    def total_bytes(self) -> int:
        return self.sets * self.setsize_kb * 1024

    @property
    def linesize_bytes(self) -> int:
        return self.linesize_words * 4

    @property
    def lines_per_set(self) -> int:
        return (self.setsize_kb * 1024) // self.linesize_bytes

    @property
    def total_lines(self) -> int:
        return self.sets * self.lines_per_set


def _geometries(config: Configuration):
    return (CacheGeometry(config.icache_sets, config.icache_setsize_kb,
                          config.icache_linesize_words),
            CacheGeometry(config.dcache_sets, config.dcache_setsize_kb,
                          config.dcache_linesize_words))


def cache_brams(model: SynthesisModel, geometry: CacheGeometry) -> int:
    """Block RAMs of one cache: data arrays plus tag arrays."""
    data = math.ceil(geometry.total_bytes / BRAM_BYTES)
    tag_bytes = geometry.total_lines * model.TAG_ENTRY_BYTES
    return data + max(1, math.ceil(tag_bytes / BRAM_BYTES))


def bram_breakdown(model: SynthesisModel, config: Configuration) -> Dict[str, int]:
    icache, dcache = _geometries(config)
    registers = config.register_windows * 16 + 8
    return {
        "icache": cache_brams(model, icache),
        "dcache": cache_brams(model, dcache),
        "register_file": 2 * math.ceil(registers * 4 / BRAM_BYTES),
        "fixed": model.FIXED_BRAM,
    }


def cache_luts(model: SynthesisModel, geometry: CacheGeometry, replacement: str,
               fast_read: bool = False, fast_write: bool = False) -> int:
    luts = model.CACHE_CONTROLLER_LUTS
    luts += model.CACHE_EXTRA_SET_LUTS * (geometry.sets - 1)
    if replacement == Replacement.LRU:
        luts += model.CACHE_LRU_LUTS
    elif replacement == Replacement.LRR:
        luts += model.CACHE_LRR_LUTS
    if geometry.linesize_words == 4:
        luts += model.CACHE_SHORT_LINE_LUTS
    if fast_read:
        luts += model.DCACHE_FAST_READ_LUTS
    if fast_write:
        luts += model.DCACHE_FAST_WRITE_LUTS
    return luts


def integer_unit_luts(model: SynthesisModel, config: Configuration) -> int:
    luts = 0
    if config.fast_jump:
        luts += model.FAST_JUMP_LUTS
    if config.icc_hold:
        luts += model.ICC_HOLD_LUTS
    if config.fast_decode:
        luts += model.FAST_DECODE_LUTS
    if config.load_delay == 1:
        luts += model.LOAD_DELAY1_LUTS
    extra_windows = max(0, config.register_windows - model.BASE_REGISTER_WINDOWS)
    return luts + model.REGISTER_WINDOW_LUTS * extra_windows


def lut_breakdown(model: SynthesisModel, config: Configuration) -> Dict[str, int]:
    icache, dcache = _geometries(config)
    return {
        "icache": cache_luts(model, icache, config.icache_replacement),
        "dcache": cache_luts(
            model, dcache, config.dcache_replacement,
            fast_read=config.dcache_fast_read, fast_write=config.dcache_fast_write),
        "integer_unit": integer_unit_luts(model, config),
        "multiplier": model.MULTIPLIER_LUTS[config.multiplier],
        "divider": model.DIVIDER_LUTS[config.divider],
        "synthesis_options": 0 if config.infer_mult_div else model.NO_INFER_LUTS,
        "fixed": model.FIXED_LUTS,
    }


def synthesize_reference(config: Configuration,
                         model: Optional[SynthesisModel] = None) -> ResourceReport:
    """The resource report of one configuration, term by term."""
    model = model or SynthesisModel()
    luts = lut_breakdown(model, config)
    brams = bram_breakdown(model, config)
    return ResourceReport(device=model.device, luts=sum(luts.values()),
                          brams=sum(brams.values()), lut_breakdown=luts,
                          bram_breakdown=brams)
