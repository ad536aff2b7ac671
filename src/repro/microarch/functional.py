"""Functional (architecture-level) simulator.

Executes a :class:`~repro.isa.program.Program` instruction by instruction,
producing (a) the architectural outcome -- final registers and memory --
used by the workload verification hooks, and (b) a configuration-
independent :class:`~repro.microarch.trace.ExecutionTrace` that the timing
model replays for every candidate microarchitecture (see
:mod:`repro.microarch.timing`).

The simulator corresponds to the "direct execution" of applications on the
Liquid Architecture platform in the paper: it is a black box that needs no
knowledge of the application's internals.

It is a pre-decoded interpreter.  Before a run, every static instruction
becomes a handler closure with its operands resolved: a register to its
slot in the flat windowed register list of
:class:`~repro.isa.registers.RegisterFile` (SAVE/RESTORE only move the
window base), an immediate to its value, a static transfer target to an
instruction index.  Loads and stores index the
:class:`~repro.microarch.memory.Memory` bytearray directly.  A handler
returns the index of the next instruction, so the dispatch loop only
calls ``handlers[i]()`` and records three streams: the executed
instruction index, the address of each load or store, and each branch
outcome.  :func:`_build_trace` derives every trace column from those
streams and static per-instruction tables with NumPy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.isa.instructions import OP_CLASS, Instruction, Op, OpClass
from repro.isa.program import Program
from repro.isa.registers import REGISTER_SLOTS, RegisterFile, register_number
from repro.microarch.memory import Memory
from repro.microarch.trace import ExecutionTrace
from repro.obs.tracer import span

__all__ = ["SIMULATOR_VERSION", "FunctionalSimulator", "SimulationResult"]

#: Version of the simulator's trace semantics.  A workload's trace recipe
#: (:meth:`~repro.workloads.base.Workload.recipe`) covers it, so bump it
#: with any change that alters a trace column: every persisted recipe row
#: then misses instead of naming a stale fingerprint, and the golden
#: fingerprint test demands a new entry under the new version.
SIMULATOR_VERSION = 1

_MASK32 = 0xFFFFFFFF
_O7 = register_number("o7")
_I7 = register_number("i7")

# Condition codes are packed into one int ``icc = N<<3 | Z<<2 | V<<1 | C``;
# a branch indexes a 16-entry truth table of its condition with it.
_PREDICATES = {
    "a": lambda n, z, v, c: True,
    "n": lambda n, z, v, c: False,
    "e": lambda n, z, v, c: z,
    "ne": lambda n, z, v, c: not z,
    "g": lambda n, z, v, c: not (z or (n != v)),
    "le": lambda n, z, v, c: z or (n != v),
    "ge": lambda n, z, v, c: n == v,
    "l": lambda n, z, v, c: n != v,
    "gu": lambda n, z, v, c: not (c or z),
    "leu": lambda n, z, v, c: c or z,
    "cc": lambda n, z, v, c: not c,
    "cs": lambda n, z, v, c: c,
    "pos": lambda n, z, v, c: not n,
    "neg": lambda n, z, v, c: n,
}
_CONDITION_TABLES = {
    cond: tuple(predicate(bool(icc & 8), bool(icc & 4), bool(icc & 2), bool(icc & 1))
                for icc in range(16))
    for cond, predicate in _PREDICATES.items()
}

def _signed(value: int) -> int:
    """Interpret a 32-bit pattern as a signed integer."""
    return (value ^ 0x80000000) - 0x80000000


#: ALU operations on 32-bit operands; the result is masked to 32 bits after.
#: The low 32 bits of a product do not depend on signedness.
_ALU = {
    Op.ADD: operator.add, Op.SUB: operator.sub, Op.AND: operator.and_,
    Op.OR: operator.or_, Op.XOR: operator.xor, Op.UMUL: operator.mul, Op.SMUL: operator.mul,
    Op.SLL: lambda x, y: x << (y & 31),
    Op.SRL: lambda x, y: x >> (y & 31),
    Op.SRA: lambda x, y: _signed(x) >> (y & 31),
}


def _nz(r: int) -> int:
    """The N and Z bits of a 32-bit result."""
    return (r >> 28 & 8) | (not r) << 2


#: Condition-code operations: ``(operation, flags(x, y, result))``.
_ALU_CC = {
    Op.ADDCC: (operator.add,
               lambda x, y, r: _nz(r) | ((~(x ^ y) & (x ^ r)) >> 30 & 2) | (x + y) >> 32),
    Op.SUBCC: (operator.sub,
               lambda x, y, r: _nz(r) | (((x ^ y) & (x ^ r)) >> 30 & 2) | (y > x)),
    Op.ANDCC: (operator.and_, lambda x, y, r: _nz(r)),
    Op.ORCC: (operator.or_, lambda x, y, r: _nz(r)),
    Op.XORCC: (operator.xor, lambda x, y, r: _nz(r)),
}

#: Loads: ``(bytes, sign bit)``; stores: bytes.
_LOADS = {Op.LD: (4, 0), Op.LDUB: (1, 0), Op.LDUH: (2, 0), Op.LDSB: (1, 0x80),
          Op.LDSH: (2, 0x8000)}
_STORES = {Op.ST: 4, Op.STB: 1, Op.STH: 2}
_WINDOW_DELTA = {Op.SAVE: 1, Op.RESTORE: -1, Op.RET: -1}


class _Halt(Exception):
    """Raised by the HALT handler to leave the dispatch loop."""


def _fail(message: str) -> None:
    raise SimulationError(message)


@dataclass
class SimulationResult:
    """Outcome of one functional simulation."""

    trace: ExecutionTrace
    registers: RegisterFile
    memory: Memory
    instruction_count: int
    halted: bool
    max_window_depth: int

    def register(self, name: str) -> int:
        """Read a register of the final architectural state by name."""
        return self.registers.read(register_number(name))


class _Decoder:
    """Turns the instructions of one run into handler closures.

    A register operand becomes the ``(offset, mask)`` slot of
    :data:`~repro.isa.registers.REGISTER_SLOTS`, read as
    ``R[(regs.base & mask) + offset]``; a write to ``%g0`` goes to a
    throwaway list instead.  The second operand is always read as
    ``register + constant``: an immediate reads ``%g0`` (zero) plus its
    value, a register adds nothing.  Condition codes live in :attr:`icc`.
    """

    def __init__(self, program: Program, regs: RegisterFile, memory: Memory,
                 addresses: List[int], outcomes: List[bool]):
        self.program = program
        self.regs = regs
        self.memory = memory
        self.addresses = addresses
        self.outcomes = outcomes
        self.icc = 0
        self.text_base = program.layout.text_base
        self.text_bytes = len(program.instructions) * INSTRUCTION_BYTES
        #: One handler per instruction, then those raising a program-counter fault.
        self.handlers: List[Callable[[], int]] = [None] * len(program.instructions)
        for index, instr in enumerate(program.instructions):
            self.handlers[index] = self.decode(index, instr)
        self.entry = self.target(program.entry_point)

    def target(self, pc: Optional[int]) -> int:
        """Index of the handler that runs at ``pc``: its instruction's, or a fault."""
        if pc is not None:
            offset = pc - self.text_base
            if not offset & 3 and 0 <= offset < self.text_bytes:
                return offset >> 2
            message = f"program counter {pc:#x} left the text segment"
        else:
            message = "control transfer without a resolved target"
        self.handlers.append(partial(_fail, message))
        return len(self.handlers) - 1

    def destination(self, reg: int) -> Tuple[list, int, int]:
        """The list a write to ``reg`` goes to, and the register's slot in it."""
        if reg == 0:
            return [0], 0, 0  # %g0 discards writes
        return (self.regs.values, *REGISTER_SLOTS[reg])

    def decode(self, index: int, instr: Instruction) -> Callable[[], int]:
        op = instr.op
        pc = self.text_base + index * INSTRUCTION_BYTES
        nxt = self.target(pc + INSTRUCTION_BYTES)
        x = REGISTER_SLOTS[instr.rs1]
        if instr.imm is not None:
            y, c = REGISTER_SLOTS[0], instr.imm & _MASK32
        else:
            y, c = REGISTER_SLOTS[instr.rs2 or 0], 0

        if op in _ALU:
            return self.alu(_ALU[op], instr.rd, x, y, c, nxt)
        if op in _ALU_CC:
            return self.alu_cc(*_ALU_CC[op], instr.rd, x, y, c, nxt)
        if op is Op.SETHI:
            return self.constant(instr.rd, (instr.imm << 11) & _MASK32, nxt)
        if op in (Op.UDIV, Op.SDIV):
            message = f"division by zero at pc {pc:#x} in {self.program.name!r}"
            return self.divide(op is Op.SDIV, instr.rd, x, y, c, message, nxt)
        if op in _LOADS:
            return self.load(*_LOADS[op], instr.rd, x, y, c, nxt)
        if op in _STORES:
            return self.store(_STORES[op], instr.rd, x, y, c, nxt)
        if op is Op.BRANCH:
            if instr.condition not in _CONDITION_TABLES:
                return partial(_fail, f"unknown branch condition {instr.condition!r}")
            return self.branch(_CONDITION_TABLES[instr.condition], self.target(instr.target),
                               nxt)
        link = (pc + INSTRUCTION_BYTES) & _MASK32
        if op is Op.CALL:
            return self.constant(_O7, link, self.target(instr.target))
        if op is Op.JMPL:
            return self.jmpl(instr.rd, x, y, c, link)
        if op in (Op.RETL, Op.RET):
            return self.jump_register(_O7 if op is Op.RETL else _I7, op is Op.RET)
        if op in (Op.SAVE, Op.RESTORE):
            window = self.regs.save_window if op is Op.SAVE else self.regs.restore_window
            return self.switch_window(window, instr.rd, x, y, c, nxt)
        if op is Op.HALT:
            return self.halt
        if op is Op.NOP:
            return lambda: nxt
        return partial(_fail, f"unimplemented opcode {op!r}")

    # -- handler factories -------------------------------------------------------------

    @staticmethod
    def halt() -> int:
        raise _Halt

    def constant(self, rd, value, nxt):
        """SETHI, and CALL's write of the link register."""
        regs = self.regs
        D, dk, dm = self.destination(rd)

        def handler():
            D[(regs.base & dm) + dk] = value
            return nxt
        return handler

    def alu(self, fn, rd, x, y, c, nxt):
        regs, R = self.regs, self.regs.values
        D, dk, dm = self.destination(rd)
        (xk, xm), (yk, ym) = x, y

        def handler():
            b = regs.base
            D[(b & dm) + dk] = fn(R[(b & xm) + xk], R[(b & ym) + yk] + c) & _MASK32
            return nxt
        return handler

    def alu_cc(self, fn, flags, rd, x, y, c, nxt):
        regs, R = self.regs, self.regs.values
        D, dk, dm = self.destination(rd)
        (xk, xm), (yk, ym) = x, y
        state = self

        def handler():
            b = regs.base
            xv = R[(b & xm) + xk]
            yv = R[(b & ym) + yk] + c
            r = fn(xv, yv) & _MASK32
            D[(b & dm) + dk] = r
            state.icc = flags(xv, yv, r)
            return nxt
        return handler

    def divide(self, signed, rd, x, y, c, message, nxt):
        regs, R = self.regs, self.regs.values
        D, dk, dm = self.destination(rd)
        (xk, xm), (yk, ym) = x, y

        def handler():
            b = regs.base
            xv = R[(b & xm) + xk]
            yv = R[(b & ym) + yk] + c
            if not yv:
                raise SimulationError(message)
            if signed:
                xv, yv = _signed(xv), _signed(yv)
                q = abs(xv) // abs(yv)
                r = -q if (xv < 0) != (yv < 0) else q
            else:
                r = xv // yv
            D[(b & dm) + dk] = r & _MASK32
            return nxt
        return handler

    def load(self, size, sign, rd, x, y, c, nxt):
        regs, R, M = self.regs, self.regs.values, self.memory.buffer
        D, dk, dm = self.destination(rd)
        (xk, xm), (yk, ym) = x, y
        misaligned, last = size - 1, self.memory.size - size
        check, record = self.memory.check, self.addresses.append

        def handler():
            b = regs.base
            a = (R[(b & xm) + xk] + R[(b & ym) + yk] + c) & _MASK32
            if a & misaligned or a > last:
                check(a, size)
            D[(b & dm) + dk] = ((int.from_bytes(M[a:a + size], "little") ^ sign) - sign) & _MASK32
            record(a)
            return nxt
        return handler

    def store(self, size, rd, x, y, c, nxt):
        regs, R, M = self.regs, self.regs.values, self.memory.buffer
        (sk, sm), (xk, xm), (yk, ym) = REGISTER_SLOTS[rd], x, y
        misaligned, last, width = size - 1, self.memory.size - size, (1 << 8 * size) - 1
        check, record = self.memory.check, self.addresses.append

        def handler():
            b = regs.base
            a = (R[(b & xm) + xk] + R[(b & ym) + yk] + c) & _MASK32
            if a & misaligned or a > last:
                check(a, size)
            M[a:a + size] = (R[(b & sm) + sk] & width).to_bytes(size, "little")
            record(a)
            return nxt
        return handler

    def branch(self, taken, target, nxt):
        state, record = self, self.outcomes.append

        def handler():
            if taken[state.icc]:
                record(True)
                return target
            record(False)
            return nxt
        return handler

    def jmpl(self, rd, x, y, c, link):
        regs, R = self.regs, self.regs.values
        D, dk, dm = self.destination(rd)
        (xk, xm), (yk, ym) = x, y
        jump = self.target

        def handler():
            b = regs.base
            t = (R[(b & xm) + xk] + R[(b & ym) + yk] + c) & _MASK32
            D[(b & dm) + dk] = link
            return jump(t)
        return handler

    def jump_register(self, reg, restore):
        """RETL (through ``%o7``) or RET (through ``%i7``, then RESTORE)."""
        regs, R = self.regs, self.regs.values
        k, m = REGISTER_SLOTS[reg]
        jump = self.target

        def handler():
            t = R[(regs.base & m) + k]
            if restore:
                regs.restore_window()
            return jump(t)
        return handler

    def switch_window(self, window, rd, x, y, c, nxt):
        """SAVE/RESTORE: add in the old window, write ``rd`` in the new one."""
        regs, R = self.regs, self.regs.values
        D, dk, dm = self.destination(rd)
        (xk, xm), (yk, ym) = x, y

        def handler():
            b = regs.base
            v = (R[(b & xm) + xk] + R[(b & ym) + yk] + c) & _MASK32
            window()
            D[(regs.base & dm) + dk] = v
            return nxt
        return handler


def _build_trace(instructions: Tuple[Instruction, ...], text_base: int, indices: List[int],
                 addresses: List[int], outcomes: List[bool], name: str) -> ExecutionTrace:
    """Expand the recorded streams of one run into an :class:`ExecutionTrace`."""
    classes = [OP_CLASS.get(i.op, OpClass.NOP) for i in instructions]
    is_branch = np.asarray([i.op is Op.BRANCH for i in instructions], dtype=bool)
    is_memory = np.asarray([c in (OpClass.LOAD, OpClass.STORE) for c in classes], dtype=bool)
    sets_icc = np.asarray([i.sets_icc for i in instructions], dtype=bool)
    # load-use hazards: the loaded register (as a bit) against the
    # window-relative registers the next executed instruction reads
    load_bits = np.asarray([1 << i.rd if c is OpClass.LOAD else 0
                            for i, c in zip(instructions, classes)], dtype=np.uint32)
    read_bits = np.asarray([sum(1 << r for r in set(i.reads_registers)) for i in instructions],
                           dtype=np.uint32)
    window_delta = np.asarray([_WINDOW_DELTA.get(i.op, 0) for i in instructions], dtype=np.int8)
    pcs = (text_base + INSTRUCTION_BYTES * np.arange(len(instructions))).astype(np.uint32)

    count = len(indices)
    idx = np.fromiter(indices, dtype=np.intp, count=count)
    op_classes = np.asarray(classes, dtype=np.uint8)[idx]
    branch = is_branch[idx]
    op_classes[branch] = np.where(np.fromiter(outcomes, dtype=bool, count=len(outcomes)),
                                  np.uint8(OpClass.BRANCH_TAKEN), np.uint8(OpClass.BRANCH_UNTAKEN))
    mem_addrs = np.zeros(count, dtype=np.uint32)
    mem_addrs[is_memory[idx]] = np.fromiter(addresses, dtype=np.uint32, count=len(addresses))
    load_use = np.zeros(count, dtype=bool)
    np.not_equal(load_bits[idx[:-1]] & read_bits[idx[1:]], 0, out=load_use[:-1])
    cc_hazard = np.zeros(count, dtype=bool)
    np.logical_and(branch[1:], sets_icc[idx[:-1]], out=cc_hazard[1:])
    events = window_delta[idx]
    return ExecutionTrace(
        pcs=pcs[idx],
        op_classes=op_classes,
        mem_addrs=mem_addrs,
        load_use_hazard=load_use,
        cc_branch_hazard=cc_hazard,
        window_events=events[events != 0],
        name=name,
    )


class FunctionalSimulator:
    """Executes programs and records execution traces."""

    def __init__(self, program: Program, *, max_instructions: int = 2_000_000):
        self.program = program
        self.max_instructions = max_instructions

    # -- public API ------------------------------------------------------------------

    def run(self, *, trace_name: Optional[str] = None) -> SimulationResult:
        """Execute the program until HALT (or the instruction budget is hit)."""
        program = self.program
        name = trace_name or program.name
        with span("functional_sim", workload=name) as sim_span:
            layout = program.layout
            memory = Memory.for_program(program)
            regs = RegisterFile()
            regs.write(register_number("sp"), layout.stack_top)
            regs.write(register_number("fp"), layout.stack_top)

            indices: List[int] = []
            addresses: List[int] = []
            outcomes: List[bool] = []
            decoder = _Decoder(program, regs, memory, addresses, outcomes)
            handlers = decoder.handlers
            record = indices.append
            i = decoder.entry
            try:
                for _ in repeat(None, self.max_instructions):
                    record(i)
                    i = handlers[i]()
                raise SimulationError(
                    f"instruction budget of {self.max_instructions} exceeded in "
                    f"{program.name!r} (infinite loop?)")
            except _Halt:
                pass
            trace = _build_trace(program.instructions, layout.text_base, indices, addresses,
                                 outcomes, name)
            sim_span.set(instructions=len(indices))

        return SimulationResult(
            trace=trace,
            registers=regs,
            memory=memory,
            instruction_count=len(indices),
            halted=True,
            max_window_depth=regs.max_depth,
        )
