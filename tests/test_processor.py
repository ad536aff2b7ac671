"""Whole programs measured on the LEON processor model through the platform.

Each test wraps an assembled program in a ``ProgramWorkload`` and
measures it with :meth:`LiquidPlatform.measure
<repro.platform.LiquidPlatform.measure>`, the one measurement path
(functional simulation, cache replay, broadcast timing).
"""

import pytest
from conftest import ProgramWorkload

from repro.isa import Assembler
from repro.microarch.timing import evaluate_many
from repro.platform import LiquidPlatform


@pytest.fixture(scope="module")
def program():
    asm = Assembler("processor-test")
    asm.data_label("buffer")
    asm.word_data(list(range(256)))
    asm.set("g1", "buffer")
    asm.set("g2", 0)
    asm.set("g3", 256)
    asm.label("loop")
    asm.ld("g4", "g1", 0)
    asm.add("g2", "g2", "g4")
    asm.add("g1", "g1", 4)
    asm.subcc("g3", "g3", 1)
    asm.bne("loop")
    asm.halt()
    return asm.assemble()


def run(program, config):
    """A fresh workload and platform; (functional result, statistics)."""
    workload = ProgramWorkload(program)
    measurement = LiquidPlatform().measure(workload, config)
    return workload.run_functional(), measurement.statistics


class TestProcessorModel:
    def test_run_program_produces_consistent_results(self, program, base_config):
        functional, statistics = run(program, base_config)
        assert functional.register("g2") == sum(range(256))
        assert statistics.cycles > statistics.instruction_count
        assert statistics.workload == "processor-test"

    def test_cache_statistics_reflect_the_access_stream(self, program, base_config):
        _, statistics = run(program, base_config)
        # 256 sequential word loads over 1 KB: one miss per 32-byte line
        assert statistics.dcache is not None
        assert statistics.dcache.read_misses == 1024 // 32
        assert statistics.icache is not None
        assert statistics.icache.read_misses >= 1

    def test_evaluate_accepts_precomputed_cache_statistics(self, program, base_config):
        """The measurement == the timing model over separately replayed caches."""
        workload = ProgramWorkload(program)
        measured = LiquidPlatform().measure(workload, base_config).statistics
        platform = LiquidPlatform()
        plan = platform.cache_plan(workload, [base_config])
        runs = platform.simulate_cache_jobs(workload, platform.pending_jobs(plan.jobs()))
        [ikey], [dkey] = plan.icache, plan.dcache
        [evaluated] = evaluate_many(workload.trace().summary(), [base_config],
                                    [runs[ikey].read_misses], [runs[dkey].read_misses])
        assert evaluated.tolist() == [*measured.cycle_breakdown.values(),
                                      measured.window_overflows, measured.window_underflows]
        assert (runs[ikey], runs[dkey]) == (measured.icache, measured.dcache)

    def test_different_configurations_share_functional_behaviour(self, program, base_config):
        fast_functional, fast = run(program, base_config.replace(dcache_fast_read=True))
        slow_functional, slow = run(program, base_config)
        assert fast_functional.register("g2") == slow_functional.register("g2")
        assert fast.cycles < slow.cycles

    def test_smaller_line_size_lowers_miss_penalty_but_raises_misses(self, program, base_config):
        _, long_lines = run(program, base_config)
        _, short_lines = run(program, base_config.replace(dcache_linesize_words=4))
        assert short_lines.dcache.read_misses > long_lines.dcache.read_misses
