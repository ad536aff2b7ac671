"""Tests for the functional simulator (architectural behaviour and trace recording)."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.errors import ReplayKernelError, SimulationError
from repro.isa import Assembler, OpClass
from repro.microarch import FunctionalSimulator, functional, native
from repro.microarch.memory import Memory


def run(asm):
    return FunctionalSimulator(asm.assemble()).run()


class TestArithmetic:
    def test_add_sub_logic(self):
        asm = Assembler("t")
        asm.set("g1", 10)
        asm.add("g2", "g1", 5)
        asm.sub("g3", "g2", "g1")
        asm.xor("g4", "g2", "g3")
        asm.and_("g5", "g2", 12)
        asm.or_("g6", "g5", 1)
        asm.halt()
        result = run(asm)
        assert result.register("g2") == 15
        assert result.register("g3") == 5
        assert result.register("g4") == 10
        assert result.register("g5") == 12
        assert result.register("g6") == 13

    def test_32_bit_wraparound(self):
        asm = Assembler("t")
        asm.set("g1", 0xFFFFFFFF)
        asm.add("g2", "g1", 1)
        asm.halt()
        assert run(asm).register("g2") == 0

    def test_shifts(self):
        asm = Assembler("t")
        asm.set("g1", 0x80000000)
        asm.srl("g2", "g1", 4)
        asm.sra("g3", "g1", 4)
        asm.set("g4", 3)
        asm.sll("g5", "g4", 2)
        asm.halt()
        result = run(asm)
        assert result.register("g2") == 0x08000000
        assert result.register("g3") == 0xF8000000
        assert result.register("g5") == 12

    def test_multiply_and_divide(self):
        asm = Assembler("t")
        asm.set("g1", 1234)
        asm.set("g2", 567)
        asm.umul("g3", "g1", "g2")
        asm.udiv("g4", "g3", "g1")
        asm.set("g5", -8)
        asm.sdiv("g6", "g5", 2)
        asm.halt()
        result = run(asm)
        assert result.register("g3") == 1234 * 567
        assert result.register("g4") == 567
        assert result.registers.read_signed(6) == -4

    def test_division_by_zero_raises(self):
        asm = Assembler("t")
        asm.set("g1", 5)
        asm.udiv("g2", "g1", "g0")
        asm.halt()
        with pytest.raises(SimulationError):
            run(asm)

    def test_sethi(self):
        asm = Assembler("t")
        asm.sethi("g1", 0x12345)
        asm.halt()
        assert run(asm).register("g1") == 0x12345 << 11


class TestMemory:
    def test_word_half_byte_accesses(self):
        asm = Assembler("t")
        asm.data_label("buffer")
        asm.word_data([0xAABBCCDD, 0])
        asm.set("g1", "buffer")
        asm.ld("g2", "g1", 0)
        asm.lduh("g3", "g1", 0)
        asm.ldub("g4", "g1", 3)
        asm.set("g5", 0x1234)
        asm.st("g5", "g1", 4)
        asm.ld("g6", "g1", 4)
        asm.stb("g5", "g1", 0)
        asm.ldub("g7", "g1", 0)
        asm.halt()
        result = run(asm)
        assert result.register("g2") == 0xAABBCCDD
        assert result.register("g3") == 0xCCDD
        assert result.register("g4") == 0xAA
        assert result.register("g6") == 0x1234
        assert result.register("g7") == 0x34

    def test_signed_byte_and_half_loads(self):
        asm = Assembler("t")
        asm.data_label("buffer")
        asm.byte_data([0xFF, 0x80, 0x00, 0x00])
        asm.set("g1", "buffer")
        asm.ldsb("g2", "g1", 0)
        asm.ldsh("g3", "g1", 0)
        asm.halt()
        result = run(asm)
        assert result.registers.read_signed(2) == -1
        assert result.registers.read_signed(3) == -32513  # 0x80FF sign extended

    def test_misaligned_word_access_raises(self):
        asm = Assembler("t")
        asm.set("g1", 0x80001)
        asm.ld("g2", "g1", 0)
        asm.halt()
        with pytest.raises(SimulationError):
            run(asm)


class TestControlFlow:
    @pytest.mark.parametrize("a,b,branch,taken", [
        (1, 1, "be", True), (1, 2, "be", False),
        (1, 2, "bne", True), (3, 2, "bg", True), (2, 3, "bg", False),
        (2, 3, "bl", True), (3, 3, "ble", True), (3, 3, "bge", True),
        (5, 3, "bgu", True), (3, 5, "bleu", True),
    ])
    def test_conditional_branches(self, a, b, branch, taken):
        asm = Assembler("t")
        asm.set("g1", a)
        asm.set("g2", b)
        asm.set("g3", 0)
        asm.cmp("g1", "g2")
        getattr(asm, branch)("skip")
        asm.set("g3", 1)
        asm.label("skip")
        asm.halt()
        result = run(asm)
        assert (result.register("g3") == 0) == taken

    def test_loop_executes_expected_iterations(self):
        asm = Assembler("t")
        asm.set("g1", 10)
        asm.set("g2", 0)
        asm.label("loop")
        asm.add("g2", "g2", "g1")
        asm.subcc("g1", "g1", 1)
        asm.bne("loop")
        asm.halt()
        assert run(asm).register("g2") == sum(range(1, 11))

    def test_call_and_leaf_return(self):
        asm = Assembler("t")
        asm.set("o0", 20)
        asm.call("double")
        asm.mov("g1", "o0")
        asm.halt()
        asm.label("double")
        asm.add("o0", "o0", "o0")
        asm.retl()
        assert run(asm).register("g1") == 40

    def test_call_with_register_window(self):
        asm = Assembler("t")
        asm.set("o0", 5)
        asm.set("g5", 11)
        asm.call("func")
        asm.mov("g1", "o0")
        asm.halt()
        asm.label("func")
        asm.save(96)
        asm.add("l0", "i0", 100)     # callee works in its own window
        asm.mov("i0", "l0")          # return value through the ins
        asm.ret()
        result = run(asm)
        assert result.register("g1") == 105
        assert result.register("g5") == 11
        assert result.max_window_depth == 1

    def test_infinite_loop_hits_instruction_budget(self):
        asm = Assembler("t")
        asm.label("loop")
        asm.ba("loop")
        program = asm.assemble()
        with pytest.raises(SimulationError):
            FunctionalSimulator(program, max_instructions=1000).run()

    def test_running_off_the_end_raises(self):
        asm = Assembler("t")
        asm.nop()  # no halt
        with pytest.raises(SimulationError):
            run(asm)


class TestTraceRecording:
    def test_trace_classes_and_addresses(self):
        asm = Assembler("t")
        asm.data_label("buffer")
        asm.word_data([7])
        asm.set("g1", "buffer")
        asm.ld("g2", "g1", 0)
        asm.st("g2", "g1", 0)
        asm.smul("g3", "g2", "g2")
        asm.udiv("g4", "g3", "g2")
        asm.halt()
        trace = run(asm).trace
        assert trace.count(OpClass.LOAD) == 1
        assert trace.count(OpClass.STORE) == 1
        assert trace.count(OpClass.MUL) == 1
        assert trace.count(OpClass.DIV) == 1
        buffer_addr = asm.assemble().address_of("buffer")
        assert list(trace.load_addresses) == [buffer_addr]
        assert list(trace.store_addresses) == [buffer_addr]
        assert trace.data_is_write.tolist() == [False, True]

    def test_load_use_hazard_marked(self):
        asm = Assembler("t")
        asm.data_label("v")
        asm.word_data([3])
        asm.set("g1", "v")
        asm.ld("g2", "g1", 0)
        asm.add("g3", "g2", 1)     # uses the loaded value immediately
        asm.ld("g4", "g1", 0)
        asm.add("g5", "g1", 1)     # does NOT use the loaded value
        asm.halt()
        trace = run(asm).trace
        hazards = trace.load_use_hazard[trace.load_mask]
        assert hazards.tolist() == [True, False]

    def test_cc_branch_hazard_marked(self):
        asm = Assembler("t")
        asm.set("g1", 1)
        asm.cmp("g1", 1)
        asm.be("next")            # immediately after the compare: hazard
        asm.nop()
        asm.label("next")
        asm.cmp("g1", 0)
        asm.nop()
        asm.bne("end")            # one instruction after the compare: no hazard
        asm.label("end")
        asm.halt()
        trace = run(asm).trace
        branch_mask = (trace.op_classes == OpClass.BRANCH_TAKEN.value) | (
            trace.op_classes == OpClass.BRANCH_UNTAKEN.value)
        assert trace.cc_branch_hazard[branch_mask].tolist() == [True, False]

    def test_window_events_balance(self):
        asm = Assembler("t")
        asm.call("f")
        asm.halt()
        asm.label("f")
        asm.save(96)
        asm.ret()
        trace = run(asm).trace
        assert trace.window_events.tolist() == [1, -1]

    def test_branch_taken_vs_untaken_classes(self):
        asm = Assembler("t")
        asm.set("g1", 0)
        asm.cmp("g1", 0)
        asm.be("yes")        # taken
        asm.nop()
        asm.label("yes")
        asm.cmp("g1", 1)
        asm.be("no")         # untaken
        asm.label("no")
        asm.halt()
        trace = run(asm).trace
        assert trace.count(OpClass.BRANCH_TAKEN) == 1
        assert trace.count(OpClass.BRANCH_UNTAKEN) == 1

    def test_mix_summary_fractions_sum_sensibly(self):
        asm = Assembler("t")
        asm.data_label("v")
        asm.word_data([1])
        asm.set("g1", "v")
        asm.ld("g2", "g1", 0)
        asm.st("g2", "g1", 0)
        asm.halt()
        mix = run(asm).trace.mix_summary()
        assert 0 < mix["memory_fraction"] <= 1
        assert mix["instructions"] == run(asm).trace.instruction_count


@pytest.mark.parametrize("name", ["arith", "blastn", "drr", "frag"])
def test_a_run_leaves_no_cyclic_garbage(small_workload_map, name):
    """A run's decoded program and streams are freed by refcount alone.

    A long-running worker simulates many workloads; state that only the
    cyclic collector can free would pile up between its passes.  The
    memory image must also be left without exported views.
    """
    workload = small_workload_map[name]
    simulator = FunctionalSimulator(workload.program,
                                    max_instructions=workload.max_instructions)
    gc.collect()
    gc.disable()
    try:
        result = simulator.run()
        assert gc.collect() == 0
    finally:
        gc.enable()
    result.memory.buffer.close()  # raises BufferError while a view is exported



# -- run to run -------------------------------------------------------------------------


def test_two_runs_of_one_program_give_equal_results(blastn_small):
    """A run keeps no state between runs: the second equals the first."""
    simulator = FunctionalSimulator(blastn_small.program,
                                    max_instructions=blastn_small.max_instructions)
    first, second = simulator.run(), simulator.run()
    for column in ("pcs", "op_classes", "mem_addrs", "load_use_hazard",
                   "cc_branch_hazard", "window_events"):
        np.testing.assert_array_equal(getattr(second.trace, column),
                                      getattr(first.trace, column))
    assert second.registers.values == first.registers.values
    assert second.registers.base == first.registers.base
    assert bytes(second.memory.buffer) == bytes(first.memory.buffer)
    assert second.memory is not first.memory


def test_a_huge_budget_allocates_by_what_runs():
    """No buffer is sized by the instruction budget, only by what executes."""
    asm = Assembler("t")
    for _ in range(9):
        asm.nop()
    asm.halt()
    simulator = FunctionalSimulator(asm.assemble(), max_instructions=10**9)
    simulator.run()  # load the library outside the measurement
    tracemalloc.start()
    try:
        result = simulator.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.instruction_count == 10
    assert peak < 1 << 20, peak



@pytest.mark.parametrize("column,row,value", [
    ("TARGET", 0, 99), ("OP", -1, 0), ("RS1", 0, 32), ("RD_MASK", 0, 5), ("COND", 0, 1 << 16),
    ("CLASS", 0, 255), ("CLASS", 0, -1), ("READS", 0, 1 << 32), ("WINDOW", 0, 2)])
def test_the_interpreter_refuses_rows_it_cannot_run_safely(column, row, value):
    """The C loop trusts its row indices, so the wrapper checks them first."""
    asm = Assembler("t")
    asm.set("g1", 7)
    asm.halt()
    program = asm.assemble()
    code, entry, _ = functional._decode(program)
    code = code.copy()  # the decoded rows are shared and read-only
    code[row, native.RUN_COLUMNS.index(column)] = value
    memory = Memory.for_program(program)
    with pytest.raises(ReplayKernelError):
        native.run_program(code, len(program.instructions), entry, 0, memory.buffer,
                           np.zeros(32, dtype=np.uint32), 100)
    memory.buffer.close()
