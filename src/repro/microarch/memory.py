"""Byte-addressable main memory for the functional simulator.

The memory is a flat little-endian byte image sized by the program's
:class:`~repro.isa.program.MemoryLayout`, backed by a private anonymous
:class:`mmap.mmap`: the operating system maps zero pages on first touch,
so a run pays for (and a kept result holds) only the pages it used, not
the whole address space.  It performs bounds and
alignment checking so buggy workload programs fail loudly instead of
corrupting the simulation, and it exposes convenience readers that the
workload verification hooks use to inspect results.
"""

from __future__ import annotations

import mmap

from repro.errors import SimulationError
from repro.isa.program import MemoryLayout, Program

__all__ = ["Memory"]


class Memory:
    """Flat little-endian memory with alignment and bounds checking."""

    __slots__ = ("_data", "size")

    def __init__(self, size: int):
        if size <= 0:
            raise SimulationError("memory size must be positive")
        self.size = size
        self._data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)

    # -- construction ---------------------------------------------------------------

    @classmethod
    def for_program(cls, program: Program) -> "Memory":
        """A memory image with the program's data segment loaded."""
        layout: MemoryLayout = program.layout
        memory = cls(layout.memory_size)
        if program.data:
            memory.write_bytes(layout.data_base, program.data)
        return memory

    @property
    def buffer(self) -> mmap.mmap:
        """The backing little-endian bytes, zero until written.

        The simulator's C loop writes them through their address, exported
        only while it runs; :meth:`mmap.mmap.close` raises
        :class:`BufferError` while any export is alive.
        """
        return self._data

    # -- bounds / alignment -------------------------------------------------------------

    def check(self, address: int, size: int, *, aligned: bool = True) -> None:
        """Raise :class:`SimulationError` unless ``[address, address+size)`` is a valid access."""
        if address < 0 or address + size > self.size:
            raise SimulationError(
                f"memory access at {address:#x} (+{size}) outside memory of size {self.size:#x}")
        if aligned and size > 1 and address % size:
            raise SimulationError(f"misaligned {size}-byte access at {address:#x}")

    # -- word/half/byte accessors -----------------------------------------------------------

    def load_word(self, address: int) -> int:
        self.check(address, 4)
        return int.from_bytes(self._data[address:address + 4], "little")

    def load_half(self, address: int) -> int:
        self.check(address, 2)
        return int.from_bytes(self._data[address:address + 2], "little")

    def load_byte(self, address: int) -> int:
        self.check(address, 1)
        return self._data[address]

    def store_word(self, address: int, value: int) -> None:
        self.check(address, 4)
        self._data[address:address + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def store_half(self, address: int, value: int) -> None:
        self.check(address, 2)
        self._data[address:address + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def store_byte(self, address: int, value: int) -> None:
        self.check(address, 1)
        self._data[address] = value & 0xFF

    # -- bulk helpers (verification & program loading) -----------------------------------------

    def write_bytes(self, address: int, data: bytes) -> None:
        self.check(address, max(1, len(data)), aligned=False)
        self._data[address:address + len(data)] = data

    def read_bytes(self, address: int, length: int) -> bytes:
        self.check(address, max(1, length), aligned=False)
        return bytes(self._data[address:address + length])

