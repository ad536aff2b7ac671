"""SPARC-style windowed register file.

The visible architectural registers are the eight globals (``%g0``–``%g7``,
with ``%g0`` hard-wired to zero) plus 24 windowed registers: ``%o0``–``%o7``
(outs), ``%l0``–``%l7`` (locals) and ``%i0``–``%i7`` (ins).  ``SAVE`` rotates
to a new window in which the caller's *outs* become the callee's *ins*;
``RESTORE`` rotates back.

The functional register file is *unbounded*: windows are allocated on
demand so program results never depend on the configured window count.
The configured count (8 or 16–32 in the paper's Figure 1) only matters to
the *timing* model, which charges window overflow/underflow trap costs
based on the call-depth trace recorded by the functional simulator (see
:mod:`repro.microarch.timing`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SimulationError

__all__ = [
    "RegisterFile",
    "register_number",
    "register_name",
    "REGISTER_ALIASES",
    "REGISTER_SLOTS",
]

#: Friendly aliases accepted by the assembler.
REGISTER_ALIASES: Dict[str, str] = {"sp": "o6", "fp": "i6", "ra": "o7", "zero": "g0"}

_GROUP_BASE = {"g": 0, "o": 8, "l": 16, "i": 24}
_GROUP_NAME = {0: "g", 8: "o", 16: "l", 24: "i"}

_MASK32 = 0xFFFFFFFF


def register_number(name: str) -> int:
    """Translate a register name (``"g3"``, ``"%o2"``, ``"sp"``) to 0..31."""
    text = name.lower().lstrip("%")
    text = REGISTER_ALIASES.get(text, text)
    if len(text) != 2 or text[0] not in _GROUP_BASE or not text[1].isdigit():
        raise SimulationError(f"unknown register name {name!r}")
    index = int(text[1])
    if index > 7:
        raise SimulationError(f"unknown register name {name!r}")
    return _GROUP_BASE[text[0]] + index


def register_name(number: int) -> str:
    """Inverse of :func:`register_number` (canonical ``g/o/l/i`` form)."""
    if not 0 <= number < 32:
        raise SimulationError(f"register number {number} out of range")
    base = (number // 8) * 8
    return f"{_GROUP_NAME[base]}{number - base}"


#: Base shift of one SAVE: a window's locals and outs (its ins are the caller's outs).
_WINDOW_STRIDE = 16

#: Where each architectural register (0..31) lives in :attr:`RegisterFile.values`,
#: as ``(offset, mask)``: its position is ``(base & mask) + offset``.  The globals
#: are absolute (mask 0); a windowed register sits at a fixed offset from the
#: window base (mask -1): ins at +8, locals at +16, outs at +24, so the next
#: window's ins are this window's outs.
REGISTER_SLOTS: Tuple[Tuple[int, int], ...] = tuple(
    (reg, 0) if reg < 8 else (reg + 16 if reg < 16 else reg if reg < 24 else reg - 16, -1)
    for reg in range(32))


class RegisterFile:
    """Unbounded windowed register file with 32-bit wrap-around semantics.

    All registers live in one flat list, :attr:`values`: the globals at
    ``[0, 8)`` and the window at depth ``d`` from ``base = 16 * d`` on
    (see :data:`REGISTER_SLOTS`), so window ``d + 1``'s ins are window
    ``d``'s outs and SAVE/RESTORE only move :attr:`base`.  A window is
    allocated, zeroed, the first time a SAVE reaches it and keeps its
    values afterwards; ``values[0]`` (``%g0``) is never written.
    """

    __slots__ = ("values", "base")

    def __init__(self) -> None:
        self.values: List[int] = [0] * 32  # the globals, then window 0
        self.base = 0

    # -- window management --------------------------------------------------------

    @property
    def window(self) -> int:
        """Current window (call depth relative to the initial window)."""
        return self.base // _WINDOW_STRIDE

    @property
    def max_depth(self) -> int:
        """Deepest window reached so far (windows are allocated on first entry)."""
        return (len(self.values) - 32) // _WINDOW_STRIDE

    def save_window(self) -> None:
        """Enter a new register window (callee side of SAVE)."""
        self.base += _WINDOW_STRIDE
        if self.base + 32 > len(self.values):
            self.values.extend([0] * _WINDOW_STRIDE)

    def restore_window(self) -> None:
        """Return to the caller's register window (RESTORE / RET)."""
        if self.base == 0:
            raise SimulationError("register window underflow below the initial window")
        self.base -= _WINDOW_STRIDE

    # -- register access --------------------------------------------------------------

    def index(self, reg: int) -> int:
        """Position of architectural register ``reg`` (0..31) in :attr:`values`."""
        offset, mask = REGISTER_SLOTS[reg]
        return (self.base & mask) + offset

    def read(self, reg: int) -> int:
        """Read architectural register ``reg`` (0..31) in the current window."""
        return self.values[self.index(reg)]

    def write(self, reg: int, value: int) -> None:
        """Write ``value`` (wrapped to 32 bits) to register ``reg``."""
        if reg:  # %g0 ignores writes
            self.values[self.index(reg)] = value & _MASK32

    def read_signed(self, reg: int) -> int:
        """Read a register interpreting the value as a signed 32-bit integer."""
        value = self.read(reg)
        return value - 0x1_0000_0000 if value & 0x8000_0000 else value

    # -- debugging --------------------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """All visible registers of the current window as a name->value mapping."""
        return {register_name(i): self.read(i) for i in range(32)}
