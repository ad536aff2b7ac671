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

It is a basic-block compiler.  At the start of every run the program is
split at its leaders -- the entry point, every static branch and call
target, and the instruction after each control transfer or HALT -- and
each block becomes one generated Python function that runs the block's
instructions on the flat windowed register list of
:class:`~repro.isa.registers.RegisterFile` (``R``) and memoryviews of the
:class:`~repro.microarch.memory.Memory` image (bytes ``M``, words ``W``,
halfwords ``H``), and returns the id of the next block.
A loop of BLASTN that clears a table, one word per iteration::

    def b24():
        global icc
        b = regs.base
        a0 = R[b + 17]
        if a0 & 3 or a0 > 2097148: check(a0, 4)
        W[a0 >> 2] = 0
        R[b + 17] = (R[b + 17] + 4) & 0xFFFFFFFF
        x = R[b + 16]
        y = 1
        r = (x - y) & 0xFFFFFFFF
        R[b + 16] = r
        icc = (r >> 28 & 8) | (not r) << 2 | (((x ^ y) & (x ^ r)) >> 30 & 2) | (y > x)
        rec(a0)
        return 24 if 3855 >> icc & 1 else 28

The dispatch loop records one block id per executed block, the blocks
record the address of each load and store, and :func:`_build_trace`
derives every trace column with NumPy from the instruction indices,
expanded from block starts and static block lengths (a branch's outcome
is whether the next block is its target).

Compiled code is shared across runs, like the translation cache of Shade
(Cmelik & Keppel, 1994): :data:`_CODE_CACHE` maps each generated
function's exact source text to its code object, and a run compiles, in
one :func:`compile` call, only the sources it misses (the same programs
recur across runs and seeds, so most blocks hit).  Each run binds the
code to its own registers and memory with :class:`types.FunctionType`.
An entry can never be stale: the source names every constant the code
uses (block ids, immediates, memory bounds) and all run state is reached
through the run's namespace, so equal text means equal behaviour.  The
cache keeps code objects only, at most :data:`CODE_CACHE_SIZE` of them,
evicting the oldest first.  Nothing else outlives a run.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.isa.instructions import OP_CLASS, Instruction, Op, OpClass
from repro.isa.program import Program
from repro.isa.registers import REGISTER_SLOTS, RegisterFile, register_number
from repro.microarch.memory import Memory
from repro.microarch.trace import ExecutionTrace
from repro.obs.metrics import get_registry
from repro.obs.tracer import span

__all__ = ["SIMULATOR_VERSION", "FunctionalSimulator", "SimulationResult"]

# Words and halfwords are read and written through native-order memoryviews
# of the little-endian memory image.
if sys.byteorder != "little":
    raise ImportError("repro.microarch.functional needs a little-endian host")

#: Version of the simulator's trace semantics.  A workload's trace recipe
#: (:meth:`~repro.workloads.base.Workload.recipe`) covers it, so bump it
#: with any change that alters a trace column: every persisted recipe row
#: then misses instead of naming a stale fingerprint, and the golden
#: fingerprint test demands a new entry under the new version.
SIMULATOR_VERSION = 1

#: Most block functions whose compiled code :data:`_CODE_CACHE` keeps
#: (about 2 KB each with its source key, so ~8 MB when full).
CODE_CACHE_SIZE = 4096

#: Generated function source -> its code object, oldest first.  Keyed by
#: the exact source text, so a hit runs exactly the code that text
#: compiles to; it holds code objects only, never a run's namespace.
_CODE_CACHE: Dict[str, CodeType] = {}
_CODE_LOCK = threading.Lock()

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

#: ALU operations on 32-bit operands ``x`` and ``y``.  The low 32 bits of a
#: product do not depend on signedness.
_ALU = {
    Op.ADD: "({x} + {y}) & 0xFFFFFFFF",
    Op.SUB: "({x} - {y}) & 0xFFFFFFFF",
    Op.AND: "{x} & {y}",
    Op.OR: "{x} | {y}",
    Op.XOR: "{x} ^ {y}",
    Op.UMUL: "({x} * {y}) & 0xFFFFFFFF",
    Op.SMUL: "({x} * {y}) & 0xFFFFFFFF",
    Op.SLL: "({x} << ({y} & 31)) & 0xFFFFFFFF",
    Op.SRL: "{x} >> ({y} & 31)",
    Op.SRA: "(({x} ^ 0x80000000) - 0x80000000 >> ({y} & 31)) & 0xFFFFFFFF",
}

#: Condition-code operations: the result ``r`` of locals ``x`` and ``y``,
#: and the packed flags of ``x``, ``y`` and ``r``.
_NZ = "(r >> 28 & 8) | (not r) << 2"
_ALU_CC = {
    Op.ADDCC: ("(x + y) & 0xFFFFFFFF",
               _NZ + " | ((~(x ^ y) & (x ^ r)) >> 30 & 2) | (x + y) >> 32"),
    Op.SUBCC: ("(x - y) & 0xFFFFFFFF",
               _NZ + " | (((x ^ y) & (x ^ r)) >> 30 & 2) | (y > x)"),
    Op.ANDCC: ("x & y", _NZ),
    Op.ORCC: ("x | y", _NZ),
    Op.XORCC: ("x ^ y", _NZ),
}

#: Loads: ``(bytes, the 32-bit value at address {a})``; stores: ``(bytes,
#: the assignment of value {v} to address {a})``.
_LOADS = {
    Op.LD: (4, "W[{a} >> 2]"),
    Op.LDUB: (1, "M[{a}]"),
    Op.LDUH: (2, "H[{a} >> 1]"),
    Op.LDSB: (1, "((M[{a}] ^ 0x80) - 0x80) & 0xFFFFFFFF"),
    Op.LDSH: (2, "((H[{a} >> 1] ^ 0x8000) - 0x8000) & 0xFFFFFFFF"),
}
_STORES = {
    Op.ST: (4, "W[{a} >> 2] = {v}"),
    Op.STB: (1, "M[{a}] = {v} & 0xFF"),
    Op.STH: (2, "H[{a} >> 1] = {v} & 0xFFFF"),
}
_WINDOW_DELTA = {Op.SAVE: 1, Op.RESTORE: -1, Op.RET: -1}

#: Instructions that end a basic block.
_TRANSFERS = frozenset({Op.BRANCH, Op.CALL, Op.JMPL, Op.RET, Op.RETL, Op.HALT})


class _Halt(Exception):
    """Raised by the HALT block to leave the dispatch loop."""


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


class _Body:
    """The statements of one block function under construction.

    A register reads as its :data:`~repro.isa.registers.REGISTER_SLOTS`
    slot in ``R`` -- ``R[k]`` for a global, ``R[b + k]`` for a windowed
    register, ``b`` being the window base -- and ``%g0`` as the int 0.
    The second operand is an int (the immediate, as 32 bits) or ``rs2``.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.addresses: List[str] = []  # locals holding each load/store address
        self.windowed = False
        self.sets_icc = False

    def read(self, reg: int):
        if not reg:
            return 0
        offset, mask = REGISTER_SLOTS[reg]
        if not mask:
            return f"R[{offset}]"
        self.windowed = True
        return f"R[b + {offset}]"

    def write(self, reg: int, value) -> None:
        if reg:  # %g0 discards writes
            self.lines.append(f"{self.read(reg)} = {value}")

    def operand(self, instr: Instruction):
        if instr.imm is not None:
            return instr.imm & _MASK32
        return self.read(instr.rs2 or 0)

    def address(self, instr: Instruction):
        """``rs1`` plus the second operand, wrapped to 32 bits."""
        x, y = self.read(instr.rs1), self.operand(instr)
        if y == 0:
            return x
        if x == 0:
            return y
        return f"({x} + {y}) & 0xFFFFFFFF"

    def access(self, instr: Instruction, size: int, last: int) -> str:
        """Compute and check the address of a ``size``-byte access; its local."""
        a = f"a{len(self.addresses)}"
        self.addresses.append(a)
        self.lines.append(f"{a} = {self.address(instr)}")
        misaligned = f"{a} & {size - 1} or " if size > 1 else ""
        self.lines.append(f"if {misaligned}{a} > {last}: check({a}, {size})")
        return a

    def record_addresses(self) -> None:
        if len(self.addresses) == 1:
            self.lines.append(f"rec({self.addresses[0]})")
        elif self.addresses:
            self.lines.append(f"ext(({', '.join(self.addresses)}))")

    def function(self, name: str) -> str:
        head = [f"def {name}():"]
        if self.sets_icc:
            head.append("    global icc")
        if self.windowed:
            head.append("    b = regs.base")
        return "\n".join(head + [f"    {line}" for line in self.lines or ["pass"]])


class _Blocks:
    """One run's program, compiled to one Python function per basic block.

    Block ids index :attr:`blocks`, :attr:`starts` and :attr:`lengths`.
    Id ``k`` below the instruction count is the block entered at
    instruction ``k``: it runs to the end of ``k``'s basic block.  A jump
    into the middle of a block compiles that entry on first use.  Later ids
    are one-instruction faults (a program counter outside the text
    segment) and aliases: a branch whose target is its own fall-through
    takes an alias of it, so the trace can tell taken from untaken.

    Generated source interpolates only ints and ``repr()`` literals into
    fixed templates.  Its functions share :attr:`namespace` as globals but
    are defined outside it, so :meth:`close` frees them and everything they
    reach by refcount.
    """

    def __init__(self, program: Program, regs: RegisterFile, memory: Memory,
                 addresses: List[int]):
        self.instructions = instructions = program.instructions
        self.name = program.name
        self.text_base = program.layout.text_base
        n = len(instructions)
        self.text_bytes = n * INSTRUCTION_BYTES
        self.memory_size = memory.size

        leaders = {self.index(program.entry_point)}
        for k, instr in enumerate(instructions):
            if instr.op in _TRANSFERS:
                leaders.add(k + 1)
            if instr.op in (Op.BRANCH, Op.CALL):
                leaders.add(self.index(instr.target))
        leaders.discard(None)
        leaders.discard(n)
        lengths = [0] * n
        end = n
        for k in range(n - 1, -1, -1):
            if instructions[k].op in _TRANSFERS:
                end = k + 1
            lengths[k] = end - k
            if k in leaders:
                end = k

        self.blocks: List[Optional[Callable[[], int]]] = [None] * n
        self.starts = list(range(n))
        self.lengths = lengths
        self.entry = self.target(program.entry_point)
        self.end = self.target(self.text_base + self.text_bytes)
        #: Block id of each branch's taken side (-1 for other instructions).
        self.taken = [-1] * n
        for k, instr in enumerate(instructions):
            if instr.op is Op.BRANCH:
                self.taken[k] = self.target(instr.target)
                if self.taken[k] == k + 1:
                    self.taken[k] = self.add(None, k + 1, lengths[k + 1])

        memory_view = memoryview(memory.buffer)
        self.views = (memory_view, memory_view[:memory.size & -4].cast("I"),
                      memory_view[:memory.size & -2].cast("H"))
        self.compiled = self.reused = 0  # block functions built, by code-cache outcome
        self.namespace: Dict[str, object] = {
            "R": regs.values, "M": memory_view, "W": self.views[1], "H": self.views[2],
            "regs": regs, "save": regs.save_window, "restore": regs.restore_window,
            "check": memory.check, "rec": addresses.append, "ext": addresses.extend,
            "jump": self.jump, "SimulationError": SimulationError, "Halt": _Halt, "icc": 0,
        }
        order = sorted(leaders)
        functions = self.define([(f"b{k}", k, lengths[k], True) for k in order])
        for k in order:
            self.blocks[k] = functions[f"b{k}"]
        for k, taken in enumerate(self.taken):
            if taken >= n and self.blocks[taken] is None:  # an alias
                self.blocks[taken] = self.blocks[k + 1]

    # -- block ids --------------------------------------------------------------------

    def add(self, function, start: int, length: int) -> int:
        self.blocks.append(function)
        self.starts.append(start)
        self.lengths.append(length)
        return len(self.blocks) - 1

    def index(self, pc: Optional[int]) -> Optional[int]:
        """The instruction index of ``pc``, or None outside the text segment."""
        if pc is None:
            return None
        offset = pc - self.text_base
        if not offset & 3 and 0 <= offset < self.text_bytes:
            return offset >> 2
        return None

    def target(self, pc: Optional[int]) -> int:
        """The id of the block entered at ``pc``: its instruction's, or a fault."""
        k = self.index(pc)
        if k is not None:
            return k
        if pc is None:
            message = "control transfer without a resolved target"
        else:
            message = f"program counter {pc:#x} left the text segment"
        return self.add(partial(_fail, message), -1, 1)

    def jump(self, pc: int) -> int:
        """A computed jump: the target's block id, compiling a new entry first."""
        k = self.target(pc)
        if self.blocks[k] is None:
            self.blocks[k] = self.define([("b", k, self.lengths[k], True)])["b"]
        return k

    def prefix(self, block: int, count: int) -> Callable[[], None]:
        """The first ``count`` instructions of ``block``, for a budget that ends there."""
        return self.define([("p", self.starts[block], count, False)])["p"]

    # -- code generation --------------------------------------------------------------

    def define(self, parts: Sequence[Tuple[str, int, int, bool]]) -> Dict[str, Callable]:
        """Build ``(name, start, count, complete)`` functions on :attr:`namespace`.

        Sources missing from the code cache compile in one go; the rest
        reuse the code their exact text compiled to in an earlier run.
        """
        sources = {part[0]: self.source(*part) for part in parts}
        with _CODE_LOCK:
            codes = {name: _CODE_CACHE.get(source) for name, source in sources.items()}
        missing = [name for name, code in codes.items() if code is None]
        if missing:
            module = compile("\n".join(sources[name] for name in missing), "<blocks>", "exec")
            compiled = {const.co_name: const for const in module.co_consts
                        if isinstance(const, CodeType)}
            with _CODE_LOCK:
                for name in missing:
                    codes[name] = _CODE_CACHE[sources[name]] = compiled[name]
                while len(_CODE_CACHE) > CODE_CACHE_SIZE:
                    del _CODE_CACHE[next(iter(_CODE_CACHE))]
        self.compiled += len(missing)
        self.reused += len(parts) - len(missing)
        return {name: FunctionType(code, self.namespace) for name, code in codes.items()}

    def source(self, name: str, start: int, count: int, complete: bool) -> str:
        """A function running ``count`` instructions from ``start``.

        A complete block then records its addresses and returns the next
        block id; a budget prefix (which never reaches a transfer) stops.
        """
        body = _Body()
        stop = start + count
        transfer = complete and self.instructions[stop - 1].op in _TRANSFERS
        for k in range(start, stop - transfer):
            self.emit(body, self.instructions[k], k)
        if complete:
            body.record_addresses()
            if transfer:
                self.emit_transfer(body, self.instructions[stop - 1], stop - 1)
            else:
                body.lines.append(f"return {self.next(stop - 1)}")
        return body.function(name)

    def next(self, k: int) -> int:
        return k + 1 if k + 1 < len(self.instructions) else self.end

    def emit(self, body: _Body, instr: Instruction, k: int) -> None:
        op = instr.op
        if op in _ALU:
            self.alu(body, instr)
        elif op in _ALU_CC:
            self.alu_cc(body, instr)
        elif op is Op.SETHI:
            body.write(instr.rd, (instr.imm << 11) & _MASK32)
        elif op in (Op.UDIV, Op.SDIV):
            self.divide(body, instr, k)
        elif op in _LOADS:
            size, value = _LOADS[op]
            a = body.access(instr, size, self.memory_size - size)
            body.write(instr.rd, value.format(a=a))
        elif op in _STORES:
            size, assignment = _STORES[op]
            a = body.access(instr, size, self.memory_size - size)
            body.lines.append(assignment.format(a=a, v=body.read(instr.rd)))
        elif op in (Op.SAVE, Op.RESTORE):
            self.switch_window(body, instr)
        elif op is not Op.NOP:
            body.lines.append(f"raise SimulationError({f'unimplemented opcode {op!r}'!r})")

    def emit_transfer(self, body: _Body, instr: Instruction, k: int) -> None:
        op, lines = instr.op, body.lines
        link = (self.text_base + (k + 1) * INSTRUCTION_BYTES) & _MASK32
        if op is Op.BRANCH:
            mask = _CONDITION_MASKS.get(instr.condition)
            if mask is None:
                message = f"unknown branch condition {instr.condition!r}"
                lines.append(f"raise SimulationError({message!r})")
            elif mask in (0, 0xFFFF):
                lines.append(f"return {self.taken[k] if mask else self.next(k)}")
            else:
                lines.append(f"return {self.taken[k]} if {mask} >> icc & 1 else {self.next(k)}")
        elif op is Op.CALL:
            body.write(_O7, link)
            lines.append(f"return {self.target(instr.target)}")
        elif op is Op.JMPL:
            lines.append(f"t = {body.address(instr)}")
            body.write(instr.rd, link)
            lines.append("return jump(t)")
        elif op is Op.RETL:
            lines.append(f"return jump({body.read(_O7)})")
        elif op is Op.RET:
            lines += [f"t = {body.read(_I7)}", "restore()", "return jump(t)"]
        else:
            lines.append("raise Halt")

    # -- one emitter per operation kind -----------------------------------------------

    @staticmethod
    def alu(body: _Body, instr: Instruction) -> None:
        if not instr.rd:
            return  # no flags, no faults: writing %g0 does nothing
        x, y = body.read(instr.rs1), body.operand(instr)
        if instr.op in (Op.ADD, Op.OR, Op.XOR, Op.SUB) and y == 0:
            value = x
        elif instr.op in (Op.ADD, Op.OR, Op.XOR) and x == 0:
            value = y
        else:
            value = _ALU[instr.op].format(x=x, y=y)
        body.write(instr.rd, value)

    @staticmethod
    def alu_cc(body: _Body, instr: Instruction) -> None:
        result, flags = _ALU_CC[instr.op]
        body.lines += [f"x = {body.read(instr.rs1)}", f"y = {body.operand(instr)}",
                       f"r = {result}"]
        body.write(instr.rd, "r")
        body.lines.append(f"icc = {flags}")
        body.sets_icc = True

    def divide(self, body: _Body, instr: Instruction, k: int) -> None:
        pc = self.text_base + k * INSTRUCTION_BYTES
        fault = f"raise SimulationError({f'division by zero at pc {pc:#x} in {self.name!r}'!r})"
        y = body.operand(instr)
        if y == 0:
            body.lines.append(fault)
            return
        x = body.read(instr.rs1)
        if instr.op is Op.UDIV:
            body.lines += [f"y = {y}", f"if not y: {fault}"]
            body.write(instr.rd, f"{x} // y")
            return
        # signed operands; an immediate divisor keeps its own sign
        y = instr.imm if instr.imm is not None else f"({y} ^ 0x80000000) - 0x80000000"
        body.lines += [f"y = {y}", f"if not y: {fault}", f"x = ({x} ^ 0x80000000) - 0x80000000",
                       "q = abs(x) // abs(y)"]
        body.write(instr.rd, "(-q if (x < 0) != (y < 0) else q) & 0xFFFFFFFF")

    @staticmethod
    def switch_window(body: _Body, instr: Instruction) -> None:
        """SAVE/RESTORE: add in the old window, write ``rd`` in the new one."""
        body.lines += [f"v = {body.address(instr)}",
                       "save()" if instr.op is Op.SAVE else "restore()", "b = regs.base"]
        body.write(instr.rd, "v")

    # -- after the run ----------------------------------------------------------------

    def expand(self, entries: List[int]) -> Tuple[np.ndarray, np.ndarray]:
        """The executed instruction indices, and each executed branch's outcome."""
        ids = np.fromiter(entries, dtype=np.intp, count=len(entries))
        first = np.asarray(self.starts, dtype=np.intp)[ids]
        length = np.asarray(self.lengths, dtype=np.intp)[ids]
        ends = np.cumsum(length)
        indices = np.arange(ends[-1], dtype=np.intp) + np.repeat(first + length - ends, length)
        # the last block halted; every other one's last instruction chose the next
        taken = np.asarray(self.taken, dtype=np.intp)[(first + length - 1)[:-1]]
        return indices, (ids[1:] == taken)[taken >= 0]

    def close(self) -> None:
        """Drop the generated functions and release the memory views."""
        self.blocks.clear()
        self.namespace.clear()
        for view in reversed(self.views):
            view.release()


def _build_trace(instructions: Tuple[Instruction, ...], text_base: int, idx: np.ndarray,
                 addresses: List[int], outcomes: np.ndarray, name: str) -> ExecutionTrace:
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

            entries: List[int] = []
            addresses: List[int] = []
            code = _Blocks(program, regs, memory, addresses)
            try:
                self._execute(code, entries)
                idx, outcomes = code.expand(entries)
            finally:
                code.close()
            trace = _build_trace(program.instructions, layout.text_base, idx, addresses,
                                 outcomes, name)
            sim_span.set(instructions=len(idx), blocks_compiled=code.compiled,
                         blocks_reused=code.reused)
            registry = get_registry()
            registry.counter("functional_sim.blocks_compiled").inc(code.compiled)
            registry.counter("functional_sim.blocks_reused").inc(code.reused)

        return SimulationResult(
            trace=trace,
            registers=regs,
            memory=memory,
            instruction_count=len(idx),
            halted=True,
            max_window_depth=regs.max_depth,
        )

    def _execute(self, code: _Blocks, entries: List[int]) -> None:
        """Run blocks from the entry point until HALT, recording each block id."""
        blocks, lengths = code.blocks, code.lengths
        record = entries.append
        i = code.entry
        left = self.max_instructions
        longest = max(lengths)
        try:
            # no ``left // longest`` blocks can overrun the budget
            while left >= longest:
                done = len(entries)
                for _ in repeat(None, left // longest):
                    record(i)
                    i = blocks[i]()
                left -= sum(map(lengths.__getitem__, entries[done:]))
            # the last few blocks, checked one by one
            while lengths[i] <= left:
                left -= lengths[i]
                record(i)
                i = blocks[i]()
            if left > 0:
                code.prefix(i, left)()
        except _Halt:
            return
        raise SimulationError(
            f"instruction budget of {self.max_instructions} exceeded in "
            f"{self.program.name!r} (infinite loop?)")
