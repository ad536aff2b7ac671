"""Program images: instructions, data segment and symbols.

A :class:`Program` is the output of the assembler and the input of the
functional simulator.  It holds the resolved instruction stream (the text
segment), the initial data image, a symbol table and the memory layout
(text base, data base, stack region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from repro.errors import SimulationError
from repro.isa.encoding import INSTRUCTION_BYTES, encode
from repro.isa.instructions import Instruction

__all__ = ["Program", "MemoryLayout"]


@dataclass(frozen=True)
class MemoryLayout:
    """Address-space layout used by assembled programs.

    The defaults give a 2 MiB address space: text at the bottom, a data
    segment at 512 KiB and a downward-growing stack starting at the top.
    """

    text_base: int = 0x0000_0000
    data_base: int = 0x0008_0000
    stack_top: int = 0x001F_FF00
    memory_size: int = 0x0020_0000

    def __post_init__(self) -> None:
        if self.text_base % INSTRUCTION_BYTES:
            raise SimulationError("text base must be word aligned")
        if not (self.text_base < self.data_base < self.stack_top <= self.memory_size):
            raise SimulationError("memory layout regions must be ordered and non-overlapping")


@dataclass(frozen=True)
class Program:
    """An assembled, resolved program."""

    instructions: Tuple[Instruction, ...]
    data: bytes = b""
    symbols: Mapping[str, int] = field(default_factory=dict)
    layout: MemoryLayout = field(default_factory=MemoryLayout)
    name: str = "program"

    def __post_init__(self) -> None:
        text_end = self.layout.text_base + len(self.instructions) * INSTRUCTION_BYTES
        if text_end > self.layout.data_base:
            raise SimulationError(
                f"program text ({len(self.instructions)} instructions) overflows into the "
                f"data segment"
            )
        if self.layout.data_base + len(self.data) > self.layout.stack_top:
            raise SimulationError("program data overflows into the stack region")

    # -- address helpers -------------------------------------------------------------

    @property
    def entry_point(self) -> int:
        """Address of the first instruction (or the ``start`` symbol if defined)."""
        return self.symbols.get("start", self.layout.text_base)

    @property
    def text_size_bytes(self) -> int:
        return len(self.instructions) * INSTRUCTION_BYTES

    def instruction_index(self, pc: int) -> int:
        """Index into :attr:`instructions` for program counter ``pc``."""
        offset = pc - self.layout.text_base
        if offset < 0 or offset % INSTRUCTION_BYTES:
            raise SimulationError(f"misaligned or out-of-range program counter {pc:#x}")
        index = offset // INSTRUCTION_BYTES
        if index >= len(self.instructions):
            raise SimulationError(f"program counter {pc:#x} is outside the text segment")
        return index

    def instruction_at(self, pc: int) -> Instruction:
        """The instruction located at address ``pc``."""
        return self.instructions[self.instruction_index(pc)]

    def address_of(self, symbol: str) -> int:
        """Address of a label defined in the text or data segment."""
        try:
            return self.symbols[symbol]
        except KeyError:
            raise SimulationError(f"unknown symbol {symbol!r}") from None

    # -- encoded form ------------------------------------------------------------------

    def encoded_text(self) -> bytes:
        """The text segment encoded to 32-bit words (big-endian)."""
        out = bytearray()
        for i, instr in enumerate(self.instructions):
            address = self.layout.text_base + i * INSTRUCTION_BYTES
            out += encode(instr, address).to_bytes(4, "big")
        return bytes(out)

    def summary(self) -> str:
        """Human readable one-line description."""
        return (
            f"{self.name}: {len(self.instructions)} instructions, "
            f"{len(self.data)} data bytes, {len(self.symbols)} symbols"
        )
