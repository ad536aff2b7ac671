"""Analytic synthesis cost model for LEON-like processor configurations.

The paper measures LUT and BRAM utilisation by actually synthesising each
processor configuration from its VHDL sources, which takes about 30
minutes per build.  We replace the synthesis tool with an analytic model
that maps a :class:`~repro.config.Configuration` to LUT/BRAM counts on a
target :class:`~repro.fpga.device.FpgaDevice`.

Calibration
-----------
The model is calibrated against the figures reported in the paper:

* the base configuration uses 14,992 LUTs (39 %) and 82 BRAMs (51 %) of
  the XCV2000E (Section 2.4);
* the dcache sweep of Figure 2 spans roughly 47 %–90 % BRAM, with BRAM
  driven by ``number of sets x set size`` (data arrays) plus tag arrays;
* single-parameter LUT deltas are small (a percent or two): removing the
  divider saves about 2 %, the largest multiplier adds about 1 %
  (Figure 6).

The *structure* of the model mirrors real LEON synthesis results: cache
data and tag arrays consume block RAM proportional to their capacity, the
register file consumes block RAM proportional to the window count, and
LUTs are the sum of per-subsystem contributions.

Because every count is a sum of per-subsystem terms, a batch is
synthesised in one coefficient pass: :meth:`SynthesisModel.synthesize`
reads the batch's :class:`~repro.config.configuration.ConfigurationColumns`
and computes each term as one integer array operation, giving the batch's
resource table (see :mod:`repro.fpga.report`).  All arithmetic is on
integers, so every count is exact.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.config.configuration import Configuration, ConfigurationColumns, configuration_columns
from repro.config.leon_space import Divider, Multiplier, Replacement
from repro.fpga.device import BRAM_BYTES, FpgaDevice, XCV2000E
from repro.fpga.report import BRAM_COMPONENTS, LUT_COMPONENTS

__all__ = ["SynthesisModel"]


def _ceil_brams(nbytes):
    """Block RAMs needed for ``nbytes`` bytes (integer ceiling division)."""
    return -(-nbytes // BRAM_BYTES)


class SynthesisModel:
    """Maps configurations to LUT/BRAM utilisation on an FPGA device."""

    # -- BRAM calibration constants (block RAMs) ----------------------------------
    #: Tag entry width in bytes (tag + valid/dirty bits padded to a word).
    TAG_ENTRY_BYTES = 4
    #: Block RAMs used by everything that is not a cache or the register
    #: file: on-chip AHB RAM, boot PROM image, DSU trace buffer.  Chosen so
    #: the base configuration lands at 82 BRAMs as reported in the paper.
    FIXED_BRAM = 60

    # -- LUT calibration constants (look-up tables) ----------------------------------
    #: Everything outside the knobs below: integer-unit datapath, AHB/APB
    #: bus fabric, memory controller, UART/IRQ/timer peripherals, DSU.
    FIXED_LUTS = 9122
    CACHE_CONTROLLER_LUTS = 1400      # per cache: controller + compare for 1 set
    CACHE_EXTRA_SET_LUTS = 180        # per additional set: compare + way mux
    CACHE_LRU_LUTS = 220              # LRU bookkeeping
    CACHE_LRR_LUTS = 90               # LRR (FIFO) bookkeeping
    CACHE_SHORT_LINE_LUTS = 60        # 4-word lines: more tag bits / fill control
    DCACHE_FAST_READ_LUTS = 80
    DCACHE_FAST_WRITE_LUTS = 120
    FAST_JUMP_LUTS = 300
    ICC_HOLD_LUTS = 120
    FAST_DECODE_LUTS = 250
    LOAD_DELAY1_LUTS = 140            # single-cycle load needs extra forwarding
    REGISTER_WINDOW_LUTS = 55         # control logic per window beyond the default 8
    BASE_REGISTER_WINDOWS = 8
    NO_INFER_LUTS = 150               # explicit mult/div instantiation is less optimal
    MULTIPLIER_LUTS: Dict[str, int] = {
        Multiplier.NONE: 0,
        Multiplier.ITERATIVE: 500,
        Multiplier.M16X16: 1500,
        Multiplier.M16X16_PIPE: 1560,
        Multiplier.M32X8: 1680,
        Multiplier.M32X16: 1760,
        Multiplier.M32X32: 1900,
    }
    DIVIDER_LUTS: Dict[str, int] = {
        Divider.RADIX2: 760,
        Divider.NONE: 0,
    }

    def __init__(self, device: FpgaDevice = XCV2000E):
        self.device = device
        # the symbolic tables as arrays indexed by a column's value codes
        replacement_luts = {Replacement.RANDOM: 0, Replacement.LRR: self.CACHE_LRR_LUTS,
                            Replacement.LRU: self.CACHE_LRU_LUTS}
        self._replacement_luts = np.array(
            [replacement_luts[r] for r in Replacement.ALL], dtype=np.int64)
        self._multiplier_luts = np.array(
            [self.MULTIPLIER_LUTS[m] for m in Multiplier.ALL], dtype=np.int64)
        self._divider_luts = np.array(
            [self.DIVIDER_LUTS[d] for d in Divider.ALL], dtype=np.int64)

    # -- public API ------------------------------------------------------------------

    def synthesize(self, configs: Sequence[Configuration]) -> np.ndarray:
        """The resource table of a batch: one ``int64`` row per configuration.

        Each row holds the configuration's :data:`~repro.fpga.report.LUT_COMPONENTS`
        and then its :data:`~repro.fpga.report.BRAM_COMPONENTS`;
        :meth:`ResourceReport.from_row <repro.fpga.report.ResourceReport.from_row>`
        turns a row into a report.  Rows are not checked against the
        device capacity.
        """
        columns = configuration_columns(configs)
        column = columns.column
        table = np.empty((len(columns), len(LUT_COMPONENTS) + len(BRAM_COMPONENTS)),
                         dtype=np.int64)
        table[:, 0] = self.cache_luts(
            column("icache_sets"), column("icache_linesize_words"),
            column("icache_replacement"))
        table[:, 1] = self.cache_luts(
            column("dcache_sets"), column("dcache_linesize_words"),
            column("dcache_replacement"),
            column("dcache_fast_read") * self.DCACHE_FAST_READ_LUTS
            + column("dcache_fast_write") * self.DCACHE_FAST_WRITE_LUTS)
        table[:, 2] = self.integer_unit_luts(columns)
        table[:, 3] = self._multiplier_luts[column("multiplier")]
        table[:, 4] = self._divider_luts[column("divider")]
        table[:, 5] = (1 - column("infer_mult_div")) * self.NO_INFER_LUTS
        table[:, 6] = self.FIXED_LUTS
        table[:, 7] = self.cache_brams(
            column("icache_sets"), column("icache_setsize_kb"),
            column("icache_linesize_words"))
        table[:, 8] = self.cache_brams(
            column("dcache_sets"), column("dcache_setsize_kb"),
            column("dcache_linesize_words"))
        table[:, 9] = self.register_file_brams(column("register_windows"))
        table[:, 10] = self.FIXED_BRAM
        return table

    # -- BRAM model (elementwise over columns) ----------------------------------------------

    def cache_brams(self, sets, setsize_kb, linesize_words):
        """Block RAMs of one cache: its data arrays plus its tag arrays (at least one)."""
        way_bytes = setsize_kb * 1024
        tag_bytes = sets * (way_bytes // (linesize_words * 4)) * self.TAG_ENTRY_BYTES
        return _ceil_brams(sets * way_bytes) + np.maximum(1, _ceil_brams(tag_bytes))

    def register_file_brams(self, windows):
        """Block RAMs of the windowed register file (dual-ported)."""
        return 2 * _ceil_brams((windows * 16 + 8) * 4)

    # -- LUT model (elementwise over columns) ------------------------------------------------

    def cache_luts(self, sets, linesize_words, replacement, extra=0):
        """LUTs of one cache controller; ``replacement`` holds value codes."""
        return (self.CACHE_CONTROLLER_LUTS + self.CACHE_EXTRA_SET_LUTS * (sets - 1)
                + self._replacement_luts[replacement]
                + (linesize_words == 4) * self.CACHE_SHORT_LINE_LUTS + extra)

    def integer_unit_luts(self, columns: ConfigurationColumns):
        """LUTs of the integer unit excluding multiplier and divider."""
        column = columns.column
        extra_windows = np.maximum(
            0, column("register_windows") - self.BASE_REGISTER_WINDOWS)
        return (column("fast_jump") * self.FAST_JUMP_LUTS
                + column("icc_hold") * self.ICC_HOLD_LUTS
                + column("fast_decode") * self.FAST_DECODE_LUTS
                + (column("load_delay") == 1) * self.LOAD_DELAY1_LUTS
                + self.REGISTER_WINDOW_LUTS * extra_windows)
