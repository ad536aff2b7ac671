"""Tests for the cycle-level timing model and window-trap accounting."""

import numpy as np
import pytest
from conftest import ProgramWorkload

from repro.isa import Assembler
from repro.microarch import TimingParameters, count_window_traps
from repro.platform import LiquidPlatform


@pytest.fixture(scope="module")
def memory_workload():
    """A small program with loads, stores, multiplies, branches and a call."""
    asm = Assembler("timing")
    asm.data_label("buffer")
    asm.word_data(list(range(64)))
    asm.set("g1", "buffer")
    asm.set("g2", 16)
    asm.label("loop")
    asm.ld("g3", "g1", 0)
    asm.add("g4", "g3", 1)        # load-use dependency
    asm.smul("g5", "g4", 3)
    asm.st("g5", "g1", 0)
    asm.add("g1", "g1", 4)
    asm.subcc("g2", "g2", 1)
    asm.bne("loop")
    asm.call("leaf")
    asm.halt()
    asm.label("leaf")
    asm.save(96)
    asm.ret()
    return ProgramWorkload(asm.assemble())


@pytest.fixture(scope="module")
def measure(memory_workload):
    """Statistics of the memory workload on one configuration (one platform)."""
    platform = LiquidPlatform()
    return lambda config: platform.measure(memory_workload, config).statistics


@pytest.fixture(scope="module")
def cycles(measure):
    return lambda config: measure(config).cycles


class TestWindowTraps:
    def test_no_traps_when_windows_suffice(self):
        events = np.array([1, 1, -1, -1], dtype=np.int8)
        assert count_window_traps(events, 8) == (0, 0)

    def test_deep_recursion_spills_and_fills(self):
        # 8 windows, one reserved => 7 usable frames (call depths 0..6);
        # every save beyond that spills exactly once and is filled on return.
        depth = 10
        events = np.array([1] * depth + [-1] * depth, dtype=np.int8)
        overflows, underflows = count_window_traps(events, 8)
        assert overflows == depth - 6
        assert underflows == depth - 6
        assert count_window_traps(events, 16) == (0, 0)

    def test_more_windows_mean_fewer_traps(self):
        events = np.array(([1] * 20 + [-1] * 20) * 3, dtype=np.int8)
        traps_small = sum(count_window_traps(events, 8))
        traps_large = sum(count_window_traps(events, 32))
        assert traps_large < traps_small

    def test_oscillation_at_the_boundary(self):
        # repeatedly crossing the spill boundary causes a trap per crossing
        events = np.array([1] * 8 + [-1, 1] * 5 + [-1] * 8, dtype=np.int8)
        overflows, underflows = count_window_traps(events, 8)
        assert overflows >= 1 and underflows >= 1


class TestTimingParameters:
    def test_latency_tables_cover_all_options(self, space):
        params = TimingParameters()
        for multiplier in space["multiplier"].values:
            assert params.multiplier_latency(multiplier) >= 0
        for divider in space["divider"].values:
            assert params.divider_latency(divider) >= 0

    def test_better_multipliers_have_lower_latency(self):
        params = TimingParameters()
        order = ["none", "iterative", "m16x16", "m16x16_pipe", "m32x16", "m32x32"]
        latencies = [params.multiplier_latency(m) for m in order]
        assert latencies == sorted(latencies, reverse=True)

    def test_line_fill_penalty_grows_with_line_size(self):
        params = TimingParameters()
        assert params.line_fill_penalty(8) > params.line_fill_penalty(4)


class TestConfigurationEffects:
    """Each runtime-relevant parameter must move the cycle count in the right direction."""

    def test_cycles_equal_breakdown_sum(self, measure, memory_workload, base_config):
        stats = measure(base_config)
        assert stats.cycles == sum(stats.cycle_breakdown.values())
        assert stats.instruction_count == len(memory_workload.trace())
        assert stats.cpi >= 1.0

    def test_faster_multiplier_reduces_cycles(self, cycles, base_config):
        slow = cycles(base_config.replace(multiplier="iterative"))
        default = cycles(base_config)
        fast = cycles(base_config.replace(multiplier="m32x32"))
        assert fast < default < slow

    def test_removing_divider_only_hurts_divides(self, cycles, base_config):
        # the trace contains no divides, so removing the divider is free
        assert cycles(base_config.replace(divider="none")) == cycles(base_config)

    def test_fast_read_and_write_reduce_cycles(self, cycles, base_config):
        assert cycles(base_config.replace(dcache_fast_read=True)) < cycles(base_config)
        assert cycles(base_config.replace(dcache_fast_write=True)) < cycles(base_config)

    def test_load_delay_two_penalises_load_use(self, cycles, base_config):
        assert cycles(base_config.replace(load_delay=2)) > cycles(base_config)

    def test_disabling_fast_jump_increases_cycles(self, cycles, base_config):
        assert cycles(base_config.replace(fast_jump=False)) > cycles(base_config)

    def test_disabling_icc_hold_increases_cycles(self, cycles, base_config):
        assert cycles(base_config.replace(icc_hold=False)) > cycles(base_config)

    def test_disabling_fast_decode_increases_cycles(self, cycles, base_config):
        assert cycles(base_config.replace(fast_decode=False)) > cycles(base_config)

    def test_register_windows_do_not_hurt_shallow_code(self, cycles, base_config):
        assert cycles(base_config.replace(register_windows=32)) == cycles(base_config)

    def test_infer_mult_div_has_no_runtime_effect(self, cycles, base_config):
        assert cycles(base_config.replace(infer_mult_div=False)) == cycles(base_config)

    def test_statistics_summary_and_seconds(self, measure, base_config):
        stats = measure(base_config)
        assert stats.seconds > 0
        assert "cycles" in stats.summary()
        assert stats.runtime_delta_percent(stats) == 0.0
