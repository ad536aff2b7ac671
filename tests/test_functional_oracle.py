"""Differential suite: the compiled interpreter against the reference interpreter.

:class:`~repro.microarch.functional.FunctionalSimulator` runs each
program in the C interpreter loop of :mod:`repro.microarch.native`,
which writes every trace column, the data-cache access stream and the
feature counts as it executes; ``reference_simulator.ReferenceSimulator``
is the original per-instruction interpreter.  On the four applications
and hypothesis-generated programs the two must agree bit for bit: all six trace columns (dtype and values), the final
register file, the memory image, the instruction count and the window
depth -- and every error path must raise :class:`SimulationError` with
the same message on both sides.  The simulator's access stream and
feature vector must equal the mask and ``bincount`` formulas over the
reference's columns.  The loop stops and resumes when its columns fill
or its register file runs out, so the same must hold with a resume at
nearly every instruction and with hazards straddling a resume.  The
reference keeps its own per-window register file, so the flat windowed
layout is checked window by window.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_simulator import ReferenceSimulator

from repro.errors import SimulationError
from repro.isa import Assembler
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.isa.instructions import CONDITION_CODES, Instruction, Op, OpClass
from repro.isa.program import MemoryLayout, Program
from repro.microarch import native
from repro.microarch.functional import _CONDITION_TABLES, FunctionalSimulator

TRACE_COLUMNS = ("pcs", "op_classes", "mem_addrs", "load_use_hazard",
                 "cc_branch_hazard", "window_events")
LAYOUT = MemoryLayout()


def run_both(program, max_instructions=2_000_000):
    """Run both simulators; return both results, or assert both fail alike."""
    try:
        expected = ReferenceSimulator(
            program, max_instructions=max_instructions).run(trace_name="t")
    except SimulationError as error:
        with pytest.raises(SimulationError) as raised:
            FunctionalSimulator(program, max_instructions=max_instructions).run(
                trace_name="t")
        assert str(raised.value) == str(error)
        return None, None
    actual = FunctionalSimulator(program, max_instructions=max_instructions).run(
        trace_name="t")
    assert_same_result(actual, expected)
    return actual, expected


def assert_same_trace(actual, expected):
    for column in TRACE_COLUMNS:
        got, want = getattr(actual, column), getattr(expected, column)
        assert got.dtype == want.dtype, column
        np.testing.assert_array_equal(got, want, err_msg=column)
    assert actual.name == expected.name
    assert_streams_match_columns(actual, expected)


def assert_streams_match_columns(actual, expected):
    """``actual``'s data-access stream and feature vector against the mask and
    ``bincount`` formulas over ``expected``'s columns."""
    classes = expected.op_classes
    memory = (classes == OpClass.LOAD.value) | (classes == OpClass.STORE.value)
    assert actual.data_addresses.dtype == np.uint32
    np.testing.assert_array_equal(actual.data_addresses, expected.mem_addrs[memory])
    assert actual.data_is_write.dtype == np.bool_
    np.testing.assert_array_equal(actual.data_is_write,
                                  classes[memory] == OpClass.STORE.value)
    features = actual.features()
    assert features.instruction_count == len(expected.pcs)
    np.testing.assert_array_equal(features.class_counts,
                                  np.bincount(classes, minlength=len(OpClass)))
    assert features.load_use_hazards == np.count_nonzero(expected.load_use_hazard)
    assert features.cc_branch_hazards == np.count_nonzero(expected.cc_branch_hazard)


def window_snapshots(registers):
    """``snapshot()`` of every window allocated so far, from the initial one down."""
    current = registers.window
    while registers.window:
        registers.restore_window()
    snapshots = [registers.snapshot()]
    for _ in range(registers.max_depth):
        registers.save_window()
        snapshots.append(registers.snapshot())
    while registers.window > current:
        registers.restore_window()
    return snapshots


def assert_same_result(actual, expected):
    assert actual.trace.counted_features is not None  # the loop's own counts
    assert_same_trace(actual.trace, expected.trace)
    assert actual.registers.snapshot() == expected.registers.snapshot()
    assert window_snapshots(actual.registers) == window_snapshots(expected.registers)
    assert actual.registers.window == expected.registers.window
    assert bytes(actual.memory.buffer) == bytes(expected.memory.buffer)
    assert actual.instruction_count == expected.instruction_count
    assert actual.max_window_depth == expected.max_window_depth
    assert actual.halted and expected.halted


# -- the applications --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["arith", "blastn", "drr", "frag"])
def test_applications_match_reference(small_workload_map, name):
    workload = small_workload_map[name]
    actual, expected = run_both(workload.program, workload.max_instructions)
    assert actual is not None
    assert workload.verify(actual) == workload.verify(expected)


# -- resumes -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_results(small_workload_map):
    return {name: ReferenceSimulator(workload.program,
                                     max_instructions=workload.max_instructions).run(
                                         trace_name="t")
            for name, workload in small_workload_map.items()}


@pytest.mark.parametrize("first", [1, 2, 3])
@pytest.mark.parametrize("name", ["arith", "blastn", "drr", "frag"])
def test_applications_match_reference_across_resumes(monkeypatch, small_workload_map,
                                                     reference_results, name, first):
    """Columns of ``first`` entries stop the loop at instructions ``first * 2**k``."""
    monkeypatch.setattr(native, "_FIRST_OUTPUTS", first)
    workload = small_workload_map[name]
    actual = FunctionalSimulator(workload.program,
                                 max_instructions=workload.max_instructions).run(trace_name="t")
    assert_same_result(actual, reference_results[name])


#: An instruction, then a pair with a hazard, and where the trace records
#: it; two-entry columns put the loop's first resume between the pair.
BOUNDARY_PROGRAMS = {
    "load-then-reader": ((
        Instruction(Op.SETHI, rd=4, imm=LAYOUT.data_base >> 11),
        Instruction(Op.LD, rd=5, rs1=4, imm=0),
        Instruction(Op.ADD, rd=6, rs1=5, imm=1),
        Instruction(Op.HALT)), "load_use_hazard", 1),
    "subcc-then-branch": ((
        Instruction(Op.NOP),
        Instruction(Op.SUBCC, rd=0, rs1=0, imm=1),
        Instruction(Op.BRANCH, condition="ne", target=LAYOUT.text_base + 3 * INSTRUCTION_BYTES),
        Instruction(Op.HALT)), "cc_branch_hazard", 2),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_PROGRAMS))
def test_a_hazard_straddling_a_resume_is_recorded(monkeypatch, case):
    instructions, column, entry = BOUNDARY_PROGRAMS[case]
    monkeypatch.setattr(native, "_FIRST_OUTPUTS", 2)
    _, expected = run_both(Program(instructions=instructions, data=bytes(4), layout=LAYOUT))
    assert np.flatnonzero(getattr(expected.trace, column)).tolist() == [entry]


def test_a_load_use_hazard_straddling_a_register_file_resume_is_recorded():
    """Each SAVE reads the stack pointer its preceding load wrote, one level
    deeper than the loop's first register file holds."""
    depth = (native._FIRST_REGISTERS - 32) // 16 + 4
    body = [Instruction(Op.SETHI, rd=4, imm=LAYOUT.data_base >> 11)]
    for _ in range(depth):
        body += [Instruction(Op.LD, rd=14, rs1=4, imm=0),
                 Instruction(Op.SAVE, rd=14, rs1=14, imm=-96)]
    body += [Instruction(Op.RESTORE)] * depth + [Instruction(Op.HALT)]
    program = Program(instructions=tuple(body), data=bytes(4), layout=LAYOUT)
    actual, expected = run_both(program)
    assert actual.max_window_depth == depth
    assert np.count_nonzero(expected.trace.load_use_hazard) == depth


# -- error paths -------------------------------------------------------------------------


def _program(build):
    asm = Assembler("t")
    build(asm)
    return asm.assemble()


ERROR_PROGRAMS = {
    "budget": lambda a: (a.label("loop"), a.ba("loop")),
    "off-the-end": lambda a: a.nop(),
    "jmpl-outside-text": lambda a: (a.set("g1", 0x40000), a.jmpl("g0", "g1", 0), a.halt()),
    "jmpl-misaligned": lambda a: (a.jmpl("g0", "g0", 2), a.halt()),
    "retl-outside-text": lambda a: (a.set("o7", 0x1000), a.retl(), a.halt()),
    "word-outside-memory": lambda a: (a.sethi("g1", 0x1FFFFF), a.ld("g2", "g1", 0),
                                      a.halt()),
    "byte-outside-memory": lambda a: (a.sethi("g1", 0x1FFFFF), a.stb("g2", "g1", 0),
                                      a.halt()),
    "word-misaligned": lambda a: (a.set("g1", 0x80002), a.st("g2", "g1", 0), a.halt()),
    "half-misaligned": lambda a: (a.set("g1", 0x80001), a.ldsh("g2", "g1", 0), a.halt()),
    "udiv-by-zero": lambda a: (a.set("g1", 7), a.udiv("g2", "g1", "g0"), a.halt()),
    "udiv-by-a-register-holding-zero": lambda a: (
        a.set("g1", 7), a.set("g3", 5), a.sub("g3", "g3", 5), a.udiv("g2", "g1", "g3"),
        a.halt()),
    "sdiv-by-zero-immediate": lambda a: (a.sdiv("g2", "g1", 0), a.halt()),
    "restore-underflow": lambda a: (a.restore(), a.halt()),
    "ret-underflow": lambda a: (a.ret(), a.halt()),
    # computed jumps into the middle of the last block, which then runs off
    # the end of the text segment or divides by zero
    "jmpl-mid-block-off-the-end": lambda a: (
        a.set("g1", "middle"), a.jmpl("g0", "g1", 0), a.halt(), a.nop(), a.label("middle"),
        a.nop()),
    "jmpl-mid-block-fault": lambda a: (
        a.set("g1", "middle"), a.jmpl("g0", "g1", 0), a.halt(), a.nop(), a.label("middle"),
        a.udiv("g2", "g1", 0), a.halt()),
}

#: Programs that enter basic blocks in the middle through computed jumps and
#: still reach HALT.
MID_BLOCK_PROGRAMS = {
    # the first block runs whole, then twice more from its middle
    "jmpl-into-the-first-block": lambda a: (
        a.set("g1", "middle"), a.add("g2", "g2", 1), a.label("middle"), a.add("g3", "g3", 1),
        a.cmp("g3", 3), a.be("done"), a.jmpl("g0", "g1", 0), a.label("done"), a.halt()),
    # a load and a branch after the entry point of the entered block
    "jmpl-past-a-load": lambda a: (
        a.data_label("value"), a.word_data([5]), a.set("g4", "value"),
        a.set("g1", "middle"), a.jmpl("o7", "g1", 0), a.ld("g2", "g4", 0), a.label("middle"),
        a.ld("g3", "g4", 0), a.subcc("g0", "g3", 5), a.bne("done"), a.st("g3", "g4", 4),
        a.label("done"), a.halt()),
}


def _recursion(a, depth=300):
    """sum(range(depth + 1)) by a call per level: ``depth`` nested windows."""
    a.set("o0", depth)
    a.call("sum")
    a.mov("g1", "o0")
    a.halt()
    a.label("sum")
    a.save(96)
    a.add("l0", "i0", 1000)   # a distinct value in every window
    a.cmp("i0", 0)
    a.be("bottom")
    a.sub("o0", "i0", 1)
    a.call("sum")
    a.add("i0", "o0", "i0")
    a.ret()
    a.label("bottom")
    a.ret()


def _nested_windows(a, depth=300):
    """``depth`` SAVEs in a loop, then as many RESTOREs writing each window."""
    a.set("g1", depth)
    a.label("down")
    a.save(96)
    a.add("l0", "g1", 7)
    a.add("o3", "g1", "g1")
    a.subcc("g1", "g1", 1)
    a.bne("down")
    a.set("g1", depth)
    a.label("up")
    a.add("g2", "g2", "l0")
    a.restore("o4", "g1", 3)
    a.subcc("g1", "g1", 1)
    a.bne("up")
    a.halt()


def _shifts(a, count):
    a.set("g1", 0x80000001)
    a.set("g2", count)
    a.sll("g3", "g1", "g2")
    a.srl("g4", "g1", "g2")
    a.sra("g5", "g1", "g2")
    a.set("g1", 0x40000002)
    a.sra("g6", "g1", "g2")
    a.halt()


#: Corner cases of the interpreter that reach HALT: register files deeper
#: than its first allocation, signed division at its limits, shift counts
#: past the register width and sign-extending loads.
EDGE_PROGRAMS = {
    "nested-save-restore-300": _nested_windows,
    "sdiv-limits": lambda a: (
        a.set("g1", 0x80000000), a.set("g2", -1), a.sdiv("g3", "g1", "g2"),
        a.sdiv("g4", "g1", -1), a.sdiv("g5", "g1", 1), a.set("g2", 0x7FFFFFFF),
        a.sdiv("g6", "g1", "g2"), a.halt()),
    "sdiv-negative-immediate": lambda a: (
        a.set("g1", 100), a.sdiv("g3", "g1", -7), a.set("g1", -100),
        a.sdiv("g4", "g1", -7), a.sdiv("g5", "g1", 7), a.sdiv("g6", "g1", -4096),
        a.sdiv("g7", "g1", -100), a.halt()),
    **{f"shift-by-register-{count:#x}": (lambda a, count=count: _shifts(a, count))
       for count in (0, 1, 31, 32, 33, 63, 0xFFFFFFFF)},
    "signed-loads-of-negative-values": lambda a: (
        a.data_label("values"), a.byte_data([0x80, 0xFF, 0x7F, 0x80, 0xFE, 0xFF, 0x00, 0x80]),
        a.set("g1", "values"), a.ldsb("g2", "g1", 0), a.ldsb("g3", "g1", 1),
        a.ldsb("g4", "g1", 2), a.ldsh("g5", "g1", 0), a.ldsh("g6", "g1", 2),
        a.ldsh("g7", "g1", 4), a.ldsh("o0", "g1", 6), a.ldub("o1", "g1", 0),
        a.lduh("o2", "g1", 6), a.halt()),
}


@pytest.mark.parametrize("case", sorted(EDGE_PROGRAMS))
def test_edge_cases_match_reference(case):
    actual, _ = run_both(_program(EDGE_PROGRAMS[case]))
    assert actual is not None


def test_sdiv_immediates_beyond_32_bits_keep_their_value():
    """An SDIV immediate divides by its own value, not by its low 32 bits
    read as signed (programs built without the assembler can hold any)."""
    program = Program(instructions=(
        Instruction(Op.SETHI, rd=1, imm=0x1FFFFF),       # g1 = -2048
        Instruction(Op.SDIV, rd=2, rs1=1, imm=0xFFFFFFF9),
        Instruction(Op.SDIV, rd=3, rs1=1, imm=-(1 << 31) - 5),
        Instruction(Op.SDIV, rd=4, rs1=1, imm=(1 << 40) + 3),
        Instruction(Op.SDIV, rd=5, rs1=1, imm=-(1 << 40) - 3),
        Instruction(Op.HALT)))
    actual, _ = run_both(program)
    assert [actual.register(f"g{k}") for k in range(2, 6)] == [0, 0, 0, 0]


def test_deep_recursion_matches_reference():
    """301 windows: more than the interpreter's first register allocation."""
    actual, _ = run_both(_program(_recursion))
    assert actual.register("g1") == sum(range(301))
    assert actual.max_window_depth == 301


@pytest.mark.parametrize("case", sorted(ERROR_PROGRAMS))
def test_error_paths_raise_alike(case):
    assert run_both(_program(ERROR_PROGRAMS[case]), max_instructions=1000) == (None, None)


@pytest.mark.parametrize("case", sorted(MID_BLOCK_PROGRAMS))
def test_mid_block_entries_match_reference(case):
    actual, _ = run_both(_program(MID_BLOCK_PROGRAMS[case]), max_instructions=1000)
    assert actual is not None


def test_static_targets_outside_text_raise_alike():
    base = Program(instructions=(
        Instruction(Op.CALL, target=0x4000),
        Instruction(Op.HALT)))
    assert run_both(base) == (None, None)
    branch = Program(instructions=(
        Instruction(Op.BRANCH, condition="a", target=6),
        Instruction(Op.HALT)))
    assert run_both(branch) == (None, None)


def test_entry_point_outside_text_raises_alike():
    program = Program(instructions=(Instruction(Op.HALT),), symbols={"start": 0x100})
    assert run_both(program) == (None, None)


@pytest.mark.parametrize("op,width", [("ldub", 1), ("lduh", 2), ("ld", 4),
                                      ("stb", 1), ("sth", 2), ("st", 4)])
def test_accesses_at_the_end_of_memory(op, width):
    """The last ``width`` bytes are addressable; one access further is not."""
    size = MemoryLayout().memory_size

    def build(a, offset):
        a.sethi("g1", size >> 11)   # g1 = memory size
        a.set("g2", -1)
        getattr(a, op)("g2", "g1", offset)
        a.halt()

    actual, _ = run_both(_program(lambda a: build(a, -width)))
    assert actual is not None
    assert run_both(_program(lambda a: build(a, 0))) == (None, None)


@pytest.mark.parametrize("op,width,past", [
    (op, width, past) for op, width in (("lduh", 2), ("ld", 4), ("sth", 2), ("st", 4))
    for past in range(1, width)])
def test_accesses_straddling_the_end_of_memory(op, width, past):
    """An access that starts inside memory but ends ``past`` bytes beyond
    it: out of range wins over misaligned in the message."""
    size = MemoryLayout().memory_size
    program = _program(lambda a: (a.sethi("g1", size >> 11),
                                  getattr(a, op)("g2", "g1", past - width), a.halt()))
    assert run_both(program) == (None, None)


def test_condition_tables_match_reference():
    """Every branch condition's truth table against the reference predicate."""
    for condition in CONDITION_CODES:
        for icc in range(16):
            flags = (bool(icc & 8), bool(icc & 4), bool(icc & 2), bool(icc & 1))
            assert (_CONDITION_TABLES[condition][icc]
                    == ReferenceSimulator._condition(condition, *flags)), (condition, icc)


@pytest.mark.parametrize("budget,completes", [(1, False), (2, False), (3, False), (4, True),
                                             (5, True)])
def test_budget_counts_the_halt(budget, completes):
    """A budget of four runs the HALT of a four-instruction program.

    The budget counts every instruction: a fault at instruction four
    raises when the budget reaches four, the budget error before that.
    """
    program = _program(lambda a: (a.nop(), a.nop(), a.nop(), a.halt()))
    actual, _ = run_both(program, max_instructions=budget)
    assert (actual is not None) == completes
    faulting = _program(lambda a: (a.nop(), a.nop(), a.nop(), a.udiv("g1", "g0", 0), a.halt()))
    with pytest.raises(SimulationError, match="division" if completes else "budget"):
        FunctionalSimulator(faulting, max_instructions=budget).run()
    assert run_both(faulting, max_instructions=budget) == (None, None)


@pytest.mark.parametrize("name", ["arith", "frag"])
def test_a_budget_of_exactly_the_instruction_count_completes(small_workload_map, name):
    program = small_workload_map[name].program
    count = ReferenceSimulator(program).run().instruction_count
    actual, _ = run_both(program, max_instructions=count)
    assert actual.instruction_count == count
    assert run_both(program, max_instructions=count - 1) == (None, None)


# -- generated programs ------------------------------------------------------------------

#: ``%g1`` holds the data-segment base for the whole program, so loads and
#: stores mostly land in memory; no generated instruction writes it.
BASE_REG = 1
WRITABLE = [r for r in range(32) if r != BASE_REG]

ALU_OPS = [Op.ADD, Op.ADDCC, Op.SUB, Op.SUBCC, Op.AND, Op.ANDCC, Op.OR, Op.ORCC,
           Op.XOR, Op.XORCC, Op.SLL, Op.SRL, Op.SRA, Op.UMUL, Op.SMUL, Op.UDIV, Op.SDIV]
LOADS = [Op.LD, Op.LDUB, Op.LDUH, Op.LDSB, Op.LDSH]
STORES = [Op.ST, Op.STB, Op.STH]
WIDTH = {Op.LD: 4, Op.LDUH: 2, Op.LDSH: 2, Op.ST: 4, Op.STH: 2}

registers = st.integers(0, 31)
immediates = st.integers(-4096, 4095)
#: 32-bit register values, drawn signed so both halves of the range come up.
words = st.integers(-(1 << 31), (1 << 31) - 1).map(lambda value: value & 0xFFFFFFFF)


def _operand2(draw):
    if draw(st.booleans()):
        return {"imm": draw(immediates)}
    return {"rs2": draw(registers)}


#: Instruction kinds, repeated to weight them: the rare ones mostly end a
#: run early (underflow, a jump through an unset link register).
KINDS = (["alu"] * 12 + ["compare"] * 3 + ["sethi"] * 2 + ["load"] * 6 + ["store"] * 6
         + ["branch"] * 6 + ["call", "save", "nop", "jmpl", "jump", "retl", "ret", "restore"])


@st.composite
def instructions(draw, position, length):
    """Instruction ``position`` of a ``length``-long body (index ``length`` is HALT)."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "alu":
        op = draw(st.sampled_from(ALU_OPS))
        operand = _operand2(draw)
        if op in (Op.UDIV, Op.SDIV) and draw(st.integers(0, 3)):
            operand = {"imm": draw(immediates.filter(bool))}
        return Instruction(op, rd=draw(st.sampled_from(WRITABLE)), rs1=draw(registers),
                           **operand)
    if kind == "compare":
        # ``cmp``: equal operands now and then, for the Z and C corner cases
        rs1 = draw(registers)
        operand = {"rs2": rs1} if draw(st.booleans()) else _operand2(draw)
        return Instruction(Op.SUBCC, rd=0, rs1=rs1, **operand)
    if kind == "sethi":
        return Instruction(Op.SETHI, rd=draw(st.sampled_from(WRITABLE)),
                           imm=draw(st.integers(0, (1 << 21) - 1)))
    if kind in ("load", "store"):
        op = draw(st.sampled_from(LOADS if kind == "load" else STORES))
        # aligned offsets into the data segment, now and then misaligned
        offset = draw(st.integers(-4, 64)) * WIDTH.get(op, 1)
        if not draw(st.integers(0, 15)):
            offset += draw(st.integers(1, 3))
        rd = draw(st.sampled_from(WRITABLE if kind == "load" else range(32)))
        return Instruction(op, rd=rd, rs1=BASE_REG, imm=offset)
    # control targets run forward (a backward branch or jump now and then loops)
    backward = kind in ("branch", "jump") and not draw(st.integers(0, 19))
    index = draw(st.integers(0, position) if backward else st.integers(position + 1, length))
    target = LAYOUT.text_base + INSTRUCTION_BYTES * index
    if kind == "jump":
        # a computed jump (``%g0`` + immediate) to any body address, often
        # into the middle of a basic block
        return Instruction(Op.JMPL, rd=draw(st.sampled_from([0, 15, 16])), rs1=0, imm=target)
    if kind == "branch":
        return Instruction(Op.BRANCH, condition=draw(st.sampled_from(CONDITION_CODES)),
                           target=target)
    if kind == "call":
        return Instruction(Op.CALL, target=target)
    if kind == "jmpl":
        # through the link register: mostly a return to just after a call
        return Instruction(Op.JMPL, rd=draw(st.sampled_from([0, 15, 16])), rs1=15,
                           imm=draw(st.sampled_from([0, 0, 4, -4, 2])))
    if kind == "retl":
        return Instruction(Op.RETL)
    if kind == "ret":
        return Instruction(Op.RET)
    if kind == "save":
        return Instruction(Op.SAVE, rd=14, rs1=14, imm=-96)
    if kind == "restore":
        return Instruction(Op.RESTORE, rd=draw(st.sampled_from(WRITABLE)),
                           rs1=draw(registers), **_operand2(draw))
    return Instruction(Op.NOP)


@st.composite
def programs(draw):
    length = draw(st.integers(1, 40))
    prologue = [Instruction(Op.SETHI, rd=BASE_REG, imm=LAYOUT.data_base >> 11)]
    # nonzero register values of both signs: large (sethi) or small (or)
    for reg in draw(st.lists(st.sampled_from(WRITABLE[1:]), max_size=16, unique=True)):
        if draw(st.booleans()):
            prologue.append(Instruction(Op.SETHI, rd=reg,
                                        imm=draw(st.integers(0, (1 << 21) - 1))))
        else:
            prologue.append(Instruction(Op.OR, rd=reg, rs1=0, imm=draw(immediates)))
    # a return through the link register before any call ends the run
    halt = LAYOUT.text_base + INSTRUCTION_BYTES * (len(prologue) + 1 + length)
    prologue.append(Instruction(Op.OR, rd=15, rs1=0, imm=halt))
    # targets index the body; shift them past the prologue
    shift = len(prologue) * INSTRUCTION_BYTES
    body = []
    for position in range(length):
        instr = draw(instructions(position, length))
        if instr.target is not None:
            instr = Instruction(instr.op, condition=instr.condition,
                                target=instr.target + shift)
        elif instr.op is Op.JMPL and instr.rs1 == 0:
            instr = Instruction(Op.JMPL, rd=instr.rd, imm=instr.imm + shift)
        body.append(instr)
    data = draw(st.binary(min_size=0, max_size=256))
    return Program(instructions=tuple(prologue + body + [Instruction(Op.HALT)]),
                   data=data, layout=LAYOUT, name="generated")


@given(op=st.sampled_from(ALU_OPS), x=words, y=words | immediates,
       condition=st.sampled_from(CONDITION_CODES))
@settings(max_examples=200, deadline=None)
def test_alu_and_branch_semantics_match_reference(op, x, y, condition):
    """One ALU op over full-range operands, then a branch on the flags it left."""
    def build(a):
        a.set("g2", x)
        a.set("g3", y & 0xFFFFFFFF)
        a.cmp("g2", "g3")  # a defined flag state for ops that keep it
        method = {Op.AND: "and_", Op.OR: "or_"}.get(op, op.value)
        getattr(a, method)("g4", "g2", "g3" if y > 4095 else y)
        a.branch(condition, "skip")
        a.set("g5", 1)
        a.label("skip")
        a.halt()

    run_both(_program(build))


#: Program generation draws many values; a loaded host must not fail it.
SLOW_GENERATION = [HealthCheck.too_slow]


@given(program=programs())
@settings(max_examples=150, deadline=None, suppress_health_check=SLOW_GENERATION)
def test_generated_programs_match_reference(program):
    run_both(program, max_instructions=400)


def test_generated_programs_mostly_complete():
    """The generator must reach HALT often enough to compare whole traces."""
    completed = []

    @given(program=programs())
    @settings(max_examples=60, deadline=None, database=None, derandomize=True,
              suppress_health_check=SLOW_GENERATION)
    def probe(program):
        actual, _ = run_both(program, max_instructions=400)
        completed.append(actual is not None)

    probe()
    assert sum(completed) >= len(completed) // 5, (sum(completed), len(completed))
