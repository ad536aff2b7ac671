"""Tests for the flat memory model and the execution/measurement statistics types."""

import pytest

from repro.config import base_configuration
from repro.errors import SimulationError
from repro.isa import Assembler
from repro.microarch import (
    DEFAULT_CLOCK_MHZ,
    ExecutionStatistics,
    Memory,
    cycles_to_seconds,
)
from repro.microarch.cache import CacheStatistics
from repro.platform.measurement import CostDelta


class TestMemory:
    def test_word_half_byte_roundtrip(self):
        memory = Memory(1024)
        memory.store_word(0, 0xDEADBEEF)
        assert memory.load_word(0) == 0xDEADBEEF
        memory.store_half(4, 0xBEEF)
        assert memory.load_half(4) == 0xBEEF
        memory.store_byte(6, 0xAB)
        assert memory.load_byte(6) == 0xAB

    def test_little_endian_layout(self):
        memory = Memory(64)
        memory.store_word(0, 0x11223344)
        assert memory.load_byte(0) == 0x44
        assert memory.load_half(2) == 0x1122

    def test_values_wrap_to_field_width(self):
        memory = Memory(64)
        memory.store_word(0, 2**40 + 7)
        assert memory.load_word(0) == 7
        memory.store_byte(8, 0x1FF)
        assert memory.load_byte(8) == 0xFF

    def test_alignment_enforced(self):
        memory = Memory(64)
        with pytest.raises(SimulationError):
            memory.load_word(2)
        with pytest.raises(SimulationError):
            memory.store_half(1, 0)

    def test_bounds_enforced(self):
        memory = Memory(64)
        with pytest.raises(SimulationError):
            memory.load_word(64)
        with pytest.raises(SimulationError):
            memory.write_bytes(60, b"123456789")

    def test_bulk_and_word_helpers(self):
        memory = Memory(256)
        memory.write_bytes(100, b"abc")
        assert memory.read_bytes(100, 3) == b"abc"

    def test_for_program_loads_the_data_segment(self):
        asm = Assembler("t")
        asm.data_label("v")
        asm.word_data([42])
        asm.halt()
        program = asm.assemble()
        memory = Memory.for_program(program)
        assert memory.load_word(program.address_of("v")) == 42

    def test_invalid_size_rejected(self):
        with pytest.raises(SimulationError):
            Memory(0)


class TestStatistics:
    def _stats(self, cycles=1000, instructions=500):
        return ExecutionStatistics(
            workload="w",
            configuration=base_configuration(),
            instruction_count=instructions,
            cycles=cycles,
            cycle_breakdown={"base": instructions, "other": cycles - instructions},
            icache=CacheStatistics(100, 100, 0, 5, 0),
            dcache=CacheStatistics(50, 40, 10, 8, 2),
        )

    def test_cpi_and_seconds(self):
        stats = self._stats()
        assert stats.cpi == pytest.approx(2.0)
        assert stats.seconds == pytest.approx(cycles_to_seconds(1000))
        assert cycles_to_seconds(25_000_000) == pytest.approx(1.0)
        assert DEFAULT_CLOCK_MHZ == 25.0

    def test_miss_rates_and_breakdown_fractions(self):
        stats = self._stats()
        assert stats.icache_miss_rate == pytest.approx(0.05)
        assert stats.dcache_miss_rate == pytest.approx(0.2)
        fractions = stats.breakdown_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_runtime_delta_percent(self):
        base = self._stats(cycles=1000)
        faster = self._stats(cycles=900)
        assert faster.runtime_delta_percent(base) == pytest.approx(-10.0)
        assert base.runtime_delta_percent(faster) == pytest.approx(100 * 100 / 900)

    def test_cost_delta_chip(self):
        delta = CostDelta(rho=-3.0, lam=1.5, beta=2.5)
        assert delta.chip == pytest.approx(4.0)
