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
branch's target row and condition mask, then the timing class, the bit of
the register a load writes, the bits of the registers it reads, whether it
sets the condition codes and its window step) and hands it to the
interpreter loop of the compiled library,
:func:`~repro.microarch.native.run_program`, in one call.  The rows depend
only on the text segment, which an application assembles identically for
every input, so they are memoised per text (:func:`_decode_text`).  The
loop runs on the windowed register file as a flat uint32 array, writes the
:class:`~repro.microarch.memory.Memory` image in place and writes the
trace as it executes: the six
:class:`~repro.microarch.trace.ExecutionTrace` columns, the data-cache
access stream and the feature counts, which become the trace's
:attr:`~repro.microarch.trace.ExecutionTrace.counted_features`.  Faults stop
the loop where they execute, and this module raises each as the same
:class:`~repro.errors.SimulationError` the reference interpreter in
``tests/reference_simulator.py`` raises; a refused memory access is
re-checked by :meth:`Memory.check <repro.microarch.memory.Memory.check>`,
which words the message.
"""

from __future__ import annotations

import functools
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
from repro.microarch.trace import ExecutionTrace, TraceFeatures
from repro.obs.tracer import span

__all__ = ["SIMULATOR_VERSION", "FunctionalSimulator", "SimulationResult"]

# The interpreter reads words and halfwords of the little-endian memory
# image in native byte order.
if sys.byteorder != "little":
    raise ImportError("repro.microarch.functional needs a little-endian host")

#: Version of the simulator's trace semantics.  A workload's input key
#: (:meth:`~repro.workloads.base.Workload.input_key`) covers it beside the
#: package's code digest.  Bump it with any change that alters a trace
#: column: the golden fingerprint test pins each version's fingerprints and
#: demands a new entry under the new version, so a trace change is a
#: recorded decision, not a side effect of an edit.
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
#: Timing class of each operation as decoded: a branch's is the untaken
#: class, which the interpreter steps to the taken class when it branches.
_CLASSES = {**OP_CLASS, Op.BRANCH: OpClass.BRANCH_UNTAKEN}
_SETS_ICC = frozenset(op for op in Op if Instruction(op).sets_icc)
#: Operations whose :attr:`~repro.isa.instructions.Instruction.reads_registers`
#: is empty, and those that also read RD (stores: their data).
_READS_NOTHING = frozenset(op for op in Op if not Instruction(op).reads_registers)
_READS_RD = frozenset(op for op in Op if 7 in Instruction(op, rd=7).reads_registers)


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


def _decode(program: Program) -> Tuple[np.ndarray, int, Tuple[Optional[str], ...]]:
    """The program as :func:`~repro.microarch.native.run_program` rows.

    Returns the read-only rows, the entry row and the message of each
    FAULT row after the text segment: falling off its end, a computed
    jump leaving it (``None``: the message names the jump's target, known
    only when it runs), then one row per static target outside it.
    """
    return _decode_text(program.instructions, program.layout.text_base, program.entry_point)


@functools.lru_cache(maxsize=16)
def _decode_text(instructions: Tuple[Instruction, ...], text_base: int,
                 entry_point: int) -> Tuple[np.ndarray, int, Tuple[Optional[str], ...]]:
    """:func:`_decode` of one text segment, memoised.

    An application assembles the same text for every input it is given,
    so a process decodes each application's text once; the rows do not
    depend on the data segment.
    """
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

    entry = row(entry_point)
    rows = []  # each in native.RUN_COLUMNS order
    for instr in instructions:
        op, rd, rs1, rs2, imm = instr.op, instr.rd, instr.rs1, instr.rs2, instr.imm
        op_class = _CLASSES.get(op, OpClass.NOP)
        if op in _READS_NOTHING:
            reads = 0
        else:  # Instruction.reads_registers as bits
            reads = 1 << rs1 | (0 if rs2 is None else 1 << rs2)
            if op in _READS_RD:
                reads |= 1 << rd
        value = imm or 0
        rows.append((
            _OPCODES.get(op, _FAULT),
            *REGISTER_SLOTS[_O7 if op is Op.CALL else rd],
            *REGISTER_SLOTS[_I7 if op is Op.RET else _O7 if op is Op.RETL else rs1],
            *((-1, 0) if imm is not None or rs2 is None else REGISTER_SLOTS[rs2]),
            ((value << 11) if op is Op.SETHI else value) & _MASK32,
            max(-_DIVISOR_BOUND, min(value, _DIVISOR_BOUND)),
            row(instr.target) if op is Op.BRANCH or op is Op.CALL else 0,
            _CONDITION_MASKS.get(instr.condition, -1) if op is Op.BRANCH else 0,
            op_class,
            1 << rd if op_class is OpClass.LOAD else 0,
            reads,
            op in _SETS_ICC,
            _WINDOW_DELTA.get(op, 0)))
    fault = (_FAULT,) + (0,) * (len(native.RUN_COLUMNS) - 1)
    rows += [fault] * len(messages)
    code = np.array(rows, dtype=np.int64)
    code.flags.writeable = False  # shared by every run of this text
    return code, entry, tuple(messages)


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
            state = run.state
            regs.values = run.registers.tolist()
            regs.base = state["BASE"]
            count = state["EXECUTED"]
            trace = ExecutionTrace(**run.trace, name=name, counted_features=TraceFeatures(
                instruction_count=count, class_counts=run.class_counts[:len(OpClass)],
                load_use_hazards=state["LOAD_USES"], cc_branch_hazards=state["CC_BRANCHES"]))
            sim_span.set(instructions=count)

        return SimulationResult(
            trace=trace,
            registers=regs,
            memory=memory,
            instruction_count=count,
            halted=True,
            max_window_depth=regs.max_depth,
        )

    def _fail(self, run: native.Run, memory: Memory,
              messages: Tuple[Optional[str], ...]) -> NoReturn:
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
