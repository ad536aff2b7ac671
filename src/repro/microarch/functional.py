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

A run decodes the program into one int64 row per static instruction
(:data:`~repro.microarch.native.RUN_COLUMNS`: the operation, each register
as its :data:`~repro.isa.registers.REGISTER_SLOTS` slot, the immediate, a
branch's target row and condition mask) and hands it to the interpreter
loop of the compiled library, :func:`~repro.microarch.native.run_program`,
in one call.  The loop runs on the windowed register file as a flat
uint32 array and writes the :class:`~repro.microarch.memory.Memory` image
in place; it records three streams -- the executed instruction indices,
the load/store addresses and the branch outcomes -- from which
:func:`_build_trace` derives every trace column with NumPy.  Faults stop
the loop where they execute, and this module raises each as the same
:class:`~repro.errors.SimulationError` the reference interpreter in
``tests/reference_simulator.py`` raises; a refused memory access is
re-checked by :meth:`Memory.check <repro.microarch.memory.Memory.check>`,
which words the message.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, NoReturn, Optional, Tuple

import numpy as np

from repro.errors import ReplayKernelError, SimulationError
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.isa.instructions import OP_CLASS, Instruction, Op, OpClass
from repro.isa.program import Program
from repro.isa.registers import REGISTER_SLOTS, RegisterFile, register_number
from repro.microarch import native
from repro.microarch.memory import Memory
from repro.microarch.trace import ExecutionTrace
from repro.obs.metrics import get_registry
from repro.obs.tracer import span

__all__ = ["SIMULATOR_VERSION", "FunctionalSimulator", "SimulationResult"]

# The interpreter reads words and halfwords of the little-endian memory
# image in native byte order.
if sys.byteorder != "little":
    raise ImportError("repro.microarch.functional needs a little-endian host")

#: Version of the simulator's trace semantics.  A workload's trace recipe
#: and input key (:meth:`~repro.workloads.base.Workload.recipe`,
#: :meth:`~repro.workloads.base.Workload.input_key`) cover it, so bump it
#: with any change that alters a trace column: every persisted identity row
#: then misses instead of naming a stale fingerprint, and the golden
#: fingerprint test demands a new entry under the new version.
SIMULATOR_VERSION = 1

_MASK32 = 0xFFFFFFFF
_O7 = register_number("o7")
_I7 = register_number("i7")

# Condition codes are packed into one int ``icc = N<<3 | Z<<2 | V<<1 | C``;
# a branch tests bit ``icc`` of its condition's 16-bit truth mask.
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
_CONDITION_MASKS = {cond: sum(1 << icc for icc, taken in enumerate(table) if taken)
                    for cond, table in _CONDITION_TABLES.items()}

#: Interpreter opcode of each operation; any other runs as FAULT.
_OPCODES = {Op[name]: code for code, name in enumerate(native.OPCODES) if name in Op.__members__}
_FAULT = native.OPCODES.index("FAULT")
#: An SDIV immediate beyond this magnitude divides every 32-bit value to 0,
#: so it is clamped to keep its sign in the int64 table.
_DIVISOR_BOUND = 1 << 33
_WINDOW_DELTA = {Op.SAVE: 1, Op.RESTORE: -1, Op.RET: -1}


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


def _decode(program: Program) -> Tuple[np.ndarray, int, List[Optional[str]]]:
    """The program as :func:`~repro.microarch.native.run_program` rows.

    Returns the rows, the entry row and the message of each FAULT row
    after the text segment: falling off its end, a computed jump leaving
    it (``None``: the message names the jump's target, known only when
    it runs), then one row per static target outside it.
    """
    instructions = program.instructions
    text_base = program.layout.text_base
    n = len(instructions)
    messages: List[Optional[str]] = [
        f"program counter {text_base + n * INSTRUCTION_BYTES:#x} left the text segment", None]
    faults: Dict[Optional[int], int] = {}

    def row(pc: Optional[int]) -> int:
        """The row entered at ``pc``: its instruction's, or a FAULT row."""
        if pc is not None:
            offset = pc - text_base
            if not offset & 3 and 0 <= offset < n * INSTRUCTION_BYTES:
                return offset >> 2
        if pc not in faults:
            faults[pc] = n + len(messages)
            messages.append("control transfer without a resolved target" if pc is None
                            else f"program counter {pc:#x} left the text segment")
        return faults[pc]

    entry = row(program.entry_point)
    rows = []  # each in native.RUN_COLUMNS order
    for instr in instructions:
        op = instr.op
        imm = instr.imm or 0
        rs2 = (-1, 0) if instr.imm is not None or instr.rs2 is None else REGISTER_SLOTS[instr.rs2]
        rows.append((
            _OPCODES.get(op, _FAULT),
            *REGISTER_SLOTS[_O7 if op is Op.CALL else instr.rd],
            *REGISTER_SLOTS[_I7 if op is Op.RET else _O7 if op is Op.RETL else instr.rs1],
            *rs2,
            ((imm << 11) if op is Op.SETHI else imm) & _MASK32,
            max(-_DIVISOR_BOUND, min(imm, _DIVISOR_BOUND)),
            row(instr.target) if op in (Op.BRANCH, Op.CALL) else 0,
            _CONDITION_MASKS.get(instr.condition, -1) if op is Op.BRANCH else 0))
    fault = (_FAULT,) + (0,) * (len(native.RUN_COLUMNS) - 1)
    rows += [fault] * len(messages)
    return np.array(rows, dtype=np.int64), entry, messages


def _build_trace(instructions: Tuple[Instruction, ...], text_base: int, idx: np.ndarray,
                 addresses: np.ndarray, outcomes: np.ndarray, name: str) -> ExecutionTrace:
    """Expand the executed instruction indices and recorded streams into a trace."""
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

    count = len(idx)
    op_classes = np.asarray(classes, dtype=np.uint8)[idx]
    branch = is_branch[idx]
    op_classes[branch] = np.where(outcomes, np.uint8(OpClass.BRANCH_TAKEN),
                                  np.uint8(OpClass.BRANCH_UNTAKEN))
    mem_addrs = np.zeros(count, dtype=np.uint32)
    mem_addrs[is_memory[idx]] = addresses
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
            code, entry, messages = _decode(program)
            regs = RegisterFile()
            regs.write(register_number("sp"), layout.stack_top)
            regs.write(register_number("fp"), layout.stack_top)
            memory = Memory.for_program(program)
            run = native.run_program(
                code, len(program.instructions), entry, layout.text_base, memory.buffer,
                np.array(regs.values, dtype=np.uint32), self.max_instructions)
            if run.status != native.RUN_HALT:
                self._fail(run, memory, messages)
            regs.values = run.registers.tolist()
            regs.base = run.state["BASE"]
            trace = _build_trace(program.instructions, layout.text_base, run.indices,
                                 run.addresses, run.outcomes, name)
            count = len(run.indices)
            sim_span.set(instructions=count)
            get_registry().counter("functional_sim.instructions").inc(count)

        return SimulationResult(
            trace=trace,
            registers=regs,
            memory=memory,
            instruction_count=count,
            halted=True,
            max_window_depth=regs.max_depth,
        )

    def _fail(self, run: native.Run, memory: Memory, messages: List[Optional[str]]) -> NoReturn:
        """Raise the error of a run that stopped before HALT, worded as the reference's."""
        program = self.program
        state = run.state
        if run.status == native.RUN_BUDGET:
            raise SimulationError(
                f"instruction budget of {self.max_instructions} exceeded in "
                f"{program.name!r} (infinite loop?)")
        if run.status == native.RUN_UNDERFLOW:
            RegisterFile().restore_window()  # raises the underflow error
        elif run.status == native.RUN_MEMORY:
            # the loop refuses exactly the accesses check refuses
            memory.check(state["ADDRESS"], state["SIZE"])
        else:
            k = state["ROW"]
            n = len(program.instructions)
            if k == n + 1:
                raise SimulationError(
                    f"program counter {state['PC']:#x} left the text segment")
            if k >= n:
                raise SimulationError(messages[k - n])
            instr = program.instructions[k]
            if instr.op in (Op.UDIV, Op.SDIV):
                pc = program.layout.text_base + k * INSTRUCTION_BYTES
                raise SimulationError(f"division by zero at pc {pc:#x} in {program.name!r}")
            if instr.op is Op.BRANCH:
                raise SimulationError(f"unknown branch condition {instr.condition!r}")
            raise SimulationError(f"unimplemented opcode {instr.op!r}")
        raise ReplayKernelError(f"the interpreter stopped (status {run.status}) where "
                                f"the program does not fault")
