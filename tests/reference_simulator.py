"""Reference functional simulator: the oracle for the pre-decoded interpreter.

This is the original per-instruction ``if/elif`` interpreter, its
list-appending :class:`TraceBuilder` and its per-window
:class:`RegisterFile`, kept verbatim as the single reference the differential suite (``test_functional_oracle.py``)
compares :class:`repro.microarch.functional.FunctionalSimulator`
against: traces, final registers, memory and every error path must
agree bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.isa.instructions import Op, OpClass
from repro.isa.program import Program
from repro.isa.registers import register_name, register_number
from repro.microarch.functional import SimulationResult
from repro.microarch.memory import Memory
from repro.microarch.trace import ExecutionTrace

__all__ = ["ReferenceSimulator", "RegisterFile", "TraceBuilder"]

_MASK32 = 0xFFFFFFFF


def _signed(value: int) -> int:
    """Interpret a 32-bit pattern as a signed integer."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class ReferenceSimulator:
    """Executes programs and records execution traces."""

    def __init__(self, program: Program, *, max_instructions: int = 2_000_000):
        self.program = program
        self.max_instructions = max_instructions

    # -- public API ------------------------------------------------------------------

    def run(self, *, trace_name: Optional[str] = None) -> SimulationResult:
        """Execute the program until HALT (or the instruction budget is hit)."""
        program = self.program
        layout = program.layout
        memory = Memory.for_program(program)
        regs = RegisterFile()
        regs.write(register_number("sp"), layout.stack_top)
        regs.write(register_number("fp"), layout.stack_top)

        builder = TraceBuilder(trace_name or program.name)
        pc = program.entry_point
        halted = False
        executed = 0

        # condition codes
        icc_n = icc_z = icc_v = icc_c = False
        # hazard bookkeeping
        pending_load_index = -1
        pending_load_rd = -1
        previous_sets_icc = False

        instructions = program.instructions
        text_base = layout.text_base
        text_end = text_base + len(instructions) * INSTRUCTION_BYTES

        while not halted:
            if executed >= self.max_instructions:
                raise SimulationError(
                    f"instruction budget of {self.max_instructions} exceeded in "
                    f"{program.name!r} (infinite loop?)")
            if pc < text_base or pc >= text_end or pc % INSTRUCTION_BYTES:
                raise SimulationError(f"program counter {pc:#x} left the text segment")
            instr = instructions[(pc - text_base) // INSTRUCTION_BYTES]
            op = instr.op
            executed += 1
            next_pc = pc + INSTRUCTION_BYTES

            # ---- load-use hazard detection (pipeline-order dependency) ----------
            if pending_load_index >= 0:
                if pending_load_rd in instr.reads_registers:
                    builder.mark_load_use(pending_load_index)
                pending_load_index = -1

            # ---- operand fetch --------------------------------------------------
            if instr.imm is not None:
                op2 = instr.imm & _MASK32
                op2_signed = instr.imm
            elif instr.rs2 is not None:
                op2 = regs.read(instr.rs2)
                op2_signed = _signed(op2)
            else:
                op2 = 0
                op2_signed = 0
            rs1_val = regs.read(instr.rs1)
            rs1_signed = _signed(rs1_val)

            # ---- execute ---------------------------------------------------------
            if op in (Op.ADD, Op.ADDCC):
                result = (rs1_val + op2) & _MASK32
                regs.write(instr.rd, result)
                if op is Op.ADDCC:
                    icc_n = bool(result & 0x8000_0000)
                    icc_z = result == 0
                    icc_v = bool((~(rs1_val ^ op2) & (rs1_val ^ result)) & 0x8000_0000)
                    icc_c = (rs1_val + op2) > _MASK32
                index = builder.append(pc, OpClass.ALU)
            elif op in (Op.SUB, Op.SUBCC):
                result = (rs1_val - op2) & _MASK32
                regs.write(instr.rd, result)
                if op is Op.SUBCC:
                    icc_n = bool(result & 0x8000_0000)
                    icc_z = result == 0
                    icc_v = bool(((rs1_val ^ op2) & (rs1_val ^ result)) & 0x8000_0000)
                    icc_c = op2 > rs1_val
                index = builder.append(pc, OpClass.ALU)
            elif op in (Op.AND, Op.ANDCC, Op.OR, Op.ORCC, Op.XOR, Op.XORCC):
                if op in (Op.AND, Op.ANDCC):
                    result = rs1_val & op2
                elif op in (Op.OR, Op.ORCC):
                    result = rs1_val | op2
                else:
                    result = rs1_val ^ op2
                regs.write(instr.rd, result)
                if instr.sets_icc:
                    icc_n = bool(result & 0x8000_0000)
                    icc_z = result == 0
                    icc_v = icc_c = False
                index = builder.append(pc, OpClass.ALU)
            elif op in (Op.SLL, Op.SRL, Op.SRA):
                shift = op2 & 31
                if op is Op.SLL:
                    result = (rs1_val << shift) & _MASK32
                elif op is Op.SRL:
                    result = rs1_val >> shift
                else:
                    result = (rs1_signed >> shift) & _MASK32
                regs.write(instr.rd, result)
                index = builder.append(pc, OpClass.ALU)
            elif op is Op.SETHI:
                regs.write(instr.rd, (instr.imm << 11) & _MASK32)
                index = builder.append(pc, OpClass.SETHI)
            elif op in (Op.UMUL, Op.SMUL):
                if op is Op.UMUL:
                    result = (rs1_val * op2) & _MASK32
                else:
                    result = (rs1_signed * op2_signed) & _MASK32
                regs.write(instr.rd, result)
                index = builder.append(pc, OpClass.MUL)
            elif op in (Op.UDIV, Op.SDIV):
                if op2 == 0:
                    raise SimulationError(f"division by zero at pc {pc:#x} in {program.name!r}")
                if op is Op.UDIV:
                    result = (rs1_val // op2) & _MASK32
                else:
                    quotient = abs(rs1_signed) // abs(op2_signed)
                    if (rs1_signed < 0) != (op2_signed < 0):
                        quotient = -quotient
                    result = quotient & _MASK32
                regs.write(instr.rd, result)
                index = builder.append(pc, OpClass.DIV)
            elif op in (Op.LD, Op.LDUB, Op.LDUH, Op.LDSB, Op.LDSH):
                address = (rs1_val + op2_signed) & _MASK32
                if op is Op.LD:
                    value = memory.load_word(address)
                elif op is Op.LDUB:
                    value = memory.load_byte(address)
                elif op is Op.LDUH:
                    value = memory.load_half(address)
                elif op is Op.LDSB:
                    value = memory.load_byte(address)
                    value = value - 0x100 if value & 0x80 else value
                else:
                    value = memory.load_half(address)
                    value = value - 0x1_0000 if value & 0x8000 else value
                regs.write(instr.rd, value)
                index = builder.append(pc, OpClass.LOAD, address)
                pending_load_index = index
                pending_load_rd = instr.rd
            elif op in (Op.ST, Op.STB, Op.STH):
                address = (rs1_val + op2_signed) & _MASK32
                value = regs.read(instr.rd)
                if op is Op.ST:
                    memory.store_word(address, value)
                elif op is Op.STB:
                    memory.store_byte(address, value)
                else:
                    memory.store_half(address, value)
                index = builder.append(pc, OpClass.STORE, address)
            elif op is Op.BRANCH:
                taken = self._condition(instr.condition, icc_n, icc_z, icc_v, icc_c)
                index = builder.append(
                    pc, OpClass.BRANCH_TAKEN if taken else OpClass.BRANCH_UNTAKEN)
                if previous_sets_icc:
                    builder.mark_cc_hazard(index)
                if taken:
                    next_pc = instr.target
            elif op is Op.CALL:
                regs.write(register_number("o7"), pc + INSTRUCTION_BYTES)
                index = builder.append(pc, OpClass.CALL)
                next_pc = instr.target
            elif op is Op.JMPL:
                regs.write(instr.rd, pc + INSTRUCTION_BYTES)
                index = builder.append(pc, OpClass.JUMP)
                next_pc = (rs1_val + op2_signed) & _MASK32
            elif op is Op.RETL:
                index = builder.append(pc, OpClass.JUMP)
                next_pc = regs.read(register_number("o7"))
            elif op is Op.RET:
                index = builder.append(pc, OpClass.JUMP)
                next_pc = regs.read(register_number("i7"))
                regs.restore_window()
                builder.window_event(-1)
            elif op is Op.SAVE:
                value = (rs1_val + op2_signed) & _MASK32
                regs.save_window()
                regs.write(instr.rd, value)
                builder.window_event(+1)
                index = builder.append(pc, OpClass.SAVE)
            elif op is Op.RESTORE:
                value = (rs1_val + op2) & _MASK32
                regs.restore_window()
                regs.write(instr.rd, value)
                builder.window_event(-1)
                index = builder.append(pc, OpClass.RESTORE)
            elif op is Op.NOP:
                index = builder.append(pc, OpClass.NOP)
            elif op is Op.HALT:
                builder.append(pc, OpClass.HALT)
                halted = True
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unimplemented opcode {op!r}")

            previous_sets_icc = instr.sets_icc
            pc = next_pc

        return SimulationResult(
            trace=builder.build(),
            registers=regs,
            memory=memory,
            instruction_count=executed,
            halted=halted,
            max_window_depth=regs.max_depth,
        )

    # -- condition codes -------------------------------------------------------------------

    @staticmethod
    def _condition(condition: str, n: bool, z: bool, v: bool, c: bool) -> bool:
        """Evaluate a SPARC integer condition code predicate."""
        if condition == "a":
            return True
        if condition == "n":
            return False
        if condition == "e":
            return z
        if condition == "ne":
            return not z
        if condition == "g":
            return not (z or (n != v))
        if condition == "le":
            return z or (n != v)
        if condition == "ge":
            return not (n != v)
        if condition == "l":
            return n != v
        if condition == "gu":
            return not (c or z)
        if condition == "leu":
            return c or z
        if condition == "cc":
            return not c
        if condition == "cs":
            return c
        if condition == "pos":
            return not n
        if condition == "neg":
            return n
        raise SimulationError(f"unknown branch condition {condition!r}")


class TraceBuilder:
    """Accumulates per-instruction records and produces an :class:`ExecutionTrace`."""

    def __init__(self, name: str = "trace"):
        self.name = name
        self._pcs: list[int] = []
        self._op_classes: list[int] = []
        self._mem_addrs: list[int] = []
        self._load_use: list[bool] = []
        self._cc_hazard: list[bool] = []
        self._window_events: list[int] = []

    def append(self, pc: int, op_class: OpClass, mem_addr: int = 0) -> int:
        """Record one executed instruction; returns its trace index."""
        self._pcs.append(pc)
        self._op_classes.append(int(op_class))
        self._mem_addrs.append(mem_addr)
        self._load_use.append(False)
        self._cc_hazard.append(False)
        return len(self._pcs) - 1

    def mark_load_use(self, index: int) -> None:
        """Mark the load at ``index`` as having a load-use dependency."""
        self._load_use[index] = True

    def mark_cc_hazard(self, index: int) -> None:
        """Mark the branch at ``index`` as depending on the immediately preceding CC update."""
        self._cc_hazard[index] = True

    def set_op_class(self, index: int, op_class: OpClass) -> None:
        """Reclassify an instruction (used to mark taken branches)."""
        self._op_classes[index] = int(op_class)

    def window_event(self, delta: int) -> None:
        """Record a register-window push (+1) or pop (-1)."""
        self._window_events.append(delta)

    def __len__(self) -> int:
        return len(self._pcs)

    def build(self) -> ExecutionTrace:
        """Freeze the accumulated records into an immutable trace."""
        return ExecutionTrace(
            pcs=np.asarray(self._pcs, dtype=np.uint32),
            op_classes=np.asarray(self._op_classes, dtype=np.uint8),
            mem_addrs=np.asarray(self._mem_addrs, dtype=np.uint32),
            load_use_hazard=np.asarray(self._load_use, dtype=bool),
            cc_branch_hazard=np.asarray(self._cc_hazard, dtype=bool),
            window_events=np.asarray(self._window_events, dtype=np.int8),
            name=self.name,
        )


class RegisterFile:
    """Unbounded windowed register file with 32-bit wrap-around semantics."""

    __slots__ = ("_globals", "_windows", "_bottom_ins", "_cwp", "max_depth")

    def __init__(self) -> None:
        self._globals: List[int] = [0] * 8
        # each window holds locals[0:8] + outs[8:16]
        self._windows: List[List[int]] = [[0] * 16]
        self._bottom_ins: List[int] = [0] * 8
        self._cwp = 0
        self.max_depth = 0

    # -- window management --------------------------------------------------------

    @property
    def window(self) -> int:
        """Current window (call depth relative to the initial window)."""
        return self._cwp

    def save_window(self) -> None:
        """Enter a new register window (callee side of SAVE)."""
        self._cwp += 1
        if self._cwp == len(self._windows):
            self._windows.append([0] * 16)
        self.max_depth = max(self.max_depth, self._cwp)

    def restore_window(self) -> None:
        """Return to the caller's register window (RESTORE / RET)."""
        if self._cwp == 0:
            raise SimulationError("register window underflow below the initial window")
        self._cwp -= 1

    # -- register access --------------------------------------------------------------

    def read(self, reg: int) -> int:
        """Read architectural register ``reg`` (0..31) in the current window."""
        if reg == 0:
            return 0
        if reg < 8:
            return self._globals[reg]
        if reg < 16:  # outs
            return self._windows[self._cwp][8 + (reg - 8)]
        if reg < 24:  # locals
            return self._windows[self._cwp][reg - 16]
        # ins: the caller's outs
        if self._cwp == 0:
            return self._bottom_ins[reg - 24]
        return self._windows[self._cwp - 1][8 + (reg - 24)]

    def write(self, reg: int, value: int) -> None:
        """Write ``value`` (wrapped to 32 bits) to register ``reg``."""
        value &= _MASK32
        if reg == 0:
            return  # %g0 ignores writes
        if reg < 8:
            self._globals[reg] = value
        elif reg < 16:
            self._windows[self._cwp][8 + (reg - 8)] = value
        elif reg < 24:
            self._windows[self._cwp][reg - 16] = value
        else:
            if self._cwp == 0:
                self._bottom_ins[reg - 24] = value
            else:
                self._windows[self._cwp - 1][8 + (reg - 24)] = value

    def read_signed(self, reg: int) -> int:
        """Read a register interpreting the value as a signed 32-bit integer."""
        value = self.read(reg)
        return value - 0x1_0000_0000 if value & 0x8000_0000 else value

    # -- debugging --------------------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """All visible registers of the current window as a name->value mapping."""
        return {register_name(i): self.read(i) for i in range(32)}
