"""Phased workloads and the phased measurement path.

Covers the :class:`~repro.workloads.phased.PhasedWorkload` abstraction
(splits, compositions, bounds, views, fingerprints) and the platform /
engine phased measurement path: the overall measurement of a phased
workload must be bit-identical to the plain measurement and to the
per-configuration oracle, engine and bare-platform phased results must
agree, and warm chains must reuse decoded phase views instead of
re-decoding per configuration.
"""

import numpy as np
import pytest

from reference_timing import reference_measurements
from repro.config import base_configuration
from repro.errors import ConfigurationError
from repro.platform import LiquidPlatform, PhasedMeasurement
from repro.workloads import (
    ArithWorkload,
    PhasedWorkload,
    blastn_seed_extend,
    drr_enqueue_service,
    frag_per_packet,
    phase_scenarios,
)


@pytest.fixture(scope="module")
def drr_phased(drr_small):
    return PhasedWorkload.split_at_labels(
        drr_small, ("enqueue", "service"), ("service_phase",))


@pytest.fixture(scope="module")
def switch_scenario(blastn_small, drr_small):
    return PhasedWorkload.from_workloads(
        "blastn-drr-switch",
        [("blastn", blastn_small), ("drr", drr_small), ("blastn-resume", blastn_small)])


class TestPhaseStructure:
    def test_split_bounds_partition_the_trace(self, drr_phased, drr_small):
        bounds = drr_phased.phase_bounds()
        n = drr_small.trace().instruction_count
        assert bounds[0] == 0 and bounds[-1] == n
        assert bounds == sorted(bounds) and len(bounds) == 3
        assert drr_phased.phase_names == ("enqueue", "service")
        # the boundary is the first execution of the service routine
        boundary = bounds[1]
        service_pc = drr_small.program.address_of("service_phase")
        pcs = drr_small.trace().pcs
        assert pcs[boundary] == service_pc
        assert not np.any(pcs[:boundary] == service_pc)

    def test_phase_traces_concatenate_back_to_the_full_trace(self, drr_phased):
        full = drr_phased.trace()
        parts = drr_phased.phase_traces()
        np.testing.assert_array_equal(
            np.concatenate([p.pcs for p in parts]), full.pcs)
        np.testing.assert_array_equal(
            np.concatenate([p.mem_addrs for p in parts]), full.mem_addrs)

    def test_data_bounds_partition_the_data_stream(self, drr_phased):
        data_bounds = drr_phased.data_bounds()
        assert data_bounds[0] == 0
        assert data_bounds[-1] == len(drr_phased.trace().data_addresses)
        assert data_bounds == sorted(data_bounds)

    def test_composition_concatenates_component_traces(self, switch_scenario,
                                                       blastn_small, drr_small):
        full = switch_scenario.trace()
        expected = np.concatenate([
            blastn_small.trace().pcs, drr_small.trace().pcs, blastn_small.trace().pcs])
        np.testing.assert_array_equal(full.pcs, expected)
        bounds = switch_scenario.phase_bounds()
        assert bounds[1] == blastn_small.trace().instruction_count
        assert bounds[2] == bounds[1] + drr_small.trace().instruction_count

    def test_composition_verifies_components_with_phase_prefixes(self, switch_scenario):
        results = switch_scenario.verify()
        assert any(key.startswith("blastn:") for key in results)
        assert any(key.startswith("drr:") for key in results)
        assert any(key.startswith("blastn-resume:") for key in results)

    def test_split_verification_delegates_to_the_base(self, drr_phased, drr_small):
        assert drr_phased.verify() == drr_small.verify()

    def test_phase_summaries_cover_every_phase(self, drr_phased):
        summaries = drr_phased.phase_summaries()
        assert set(summaries) == {"enqueue", "service"}
        assert all(s["instructions"] > 0 for s in summaries.values())

    def test_phase_views_are_cached(self, drr_phased):
        assert not drr_phased.has_phase_views("dcache", 16)
        first = drr_phased.phase_views("dcache", 16)
        assert drr_phased.has_phase_views("dcache", 16)
        assert drr_phased.phase_views("dcache", 16) is first
        assert len(first) == drr_phased.phase_count

    def test_fingerprints_distinguish_phase_structures(self, drr_small, drr_phased):
        other_cut = PhasedWorkload.split_at_fractions(
            drr_small, ("first", "second"), name="drr-enqueue-service")
        assert drr_phased.fingerprint() != drr_small.fingerprint()
        assert drr_phased.fingerprint() != other_cut.fingerprint()
        assert drr_phased.fingerprint() == drr_phased.fingerprint()  # cached

    def test_invalid_structures_are_rejected(self, drr_small):
        with pytest.raises(ConfigurationError):
            PhasedWorkload.from_split(drr_small, ("a", "b"), [0])  # boundary at 0
        with pytest.raises(ConfigurationError):
            PhasedWorkload.from_split(drr_small, ("a", "b"), [5, 5])  # duplicate
        with pytest.raises(ConfigurationError):
            PhasedWorkload.split_at_labels(drr_small, ("a", "b"), ())  # count mismatch
        with pytest.raises(ConfigurationError):
            PhasedWorkload.from_workloads("empty", [])

    def test_label_that_never_executes_is_rejected(self, blastn_small):
        with pytest.raises(ConfigurationError):
            # data labels have addresses but never appear as program counters
            PhasedWorkload.split_at_labels(blastn_small, ("a", "b"), ("results",))

    def test_standard_scenarios_build_at_small_scale(self):
        scenarios = phase_scenarios(small=True)
        assert set(scenarios) == {
            "blastn-seed-extend", "drr-enqueue-service", "blastn-drr-switch"}
        for workload in scenarios.values():
            assert workload.phase_count >= 2
            bounds = workload.phase_bounds()
            assert bounds == sorted(bounds)

    def test_scenario_factories_split_at_the_documented_labels(self):
        blastn = blastn_seed_extend(database_length=1200, query_length=48)
        assert blastn.phase_names == ("seed", "extend")
        drr = drr_enqueue_service(packet_count=150)
        assert drr.phase_names == ("enqueue", "service")
        frag = frag_per_packet(packet_count=3)
        assert frag.phase_count == 3  # one phase per packet


class TestPhasedMeasurement:
    def configs(self):
        base = base_configuration()
        return [base, base.replace(dcache_sets=2), base.replace(dcache_setsize_kb=8),
                base]  # duplicate of [0]

    def test_overall_measurement_identical_to_plain_workload(self, drr_phased,
                                                             drr_small):
        """Phasing must not change what is measured, only add the phase view."""
        configs = self.configs()
        phased = LiquidPlatform().measure_phases(drr_phased, configs)
        plain = LiquidPlatform().measure_many(drr_small, configs)
        for phased_m, plain_m in zip(phased, plain):
            assert phased_m.measurement.statistics.dcache == plain_m.statistics.dcache
            assert phased_m.measurement.cycles == plain_m.cycles

    def test_warm_totals_equal_single_shot_statistics(self, drr_phased):
        configs = self.configs()
        results = LiquidPlatform().measure_phases(drr_phased, configs)
        for result in results:
            assert isinstance(result, PhasedMeasurement)
            assert result.phases == ("enqueue", "service")
            assert result.dcache.warm_total() == result.measurement.statistics.dcache
            assert result.icache.warm_total() == result.measurement.statistics.icache

    def test_engine_phased_results_identical_to_sequential(self, drr_phased):
        configs = self.configs()
        sequential = LiquidPlatform().measure_phases(drr_phased, configs)
        assert [result.measurement for result in sequential] == \
            reference_measurements(drr_phased, configs)
        engine = LiquidPlatform()
        assert engine.measure_phases(drr_phased, configs) == sequential
        assert engine.stats.phase_chains > 0

    def test_engine_composition_scenario_matches_sequential(self, switch_scenario):
        configs = self.configs()[:2]
        sequential = LiquidPlatform().measure_phases(switch_scenario, configs)
        engine = LiquidPlatform()
        assert engine.measure_phases(switch_scenario, configs) == sequential

    def test_phase_chains_are_memoised(self, drr_phased):
        platform = LiquidPlatform()
        configs = self.configs()
        platform.measure_phases(drr_phased, configs)
        jobs = platform.phase_requests(drr_phased, configs)
        assert jobs == []  # everything memoised; a second batch replays nothing

    def test_engine_decodes_each_phase_view_once(self, drr_small):
        """Growing the config sweep must not grow the per-phase decode count."""
        # a fresh split: the decode accounting reads the instance's view cache
        drr_phased = PhasedWorkload.split_at_labels(
            drr_small, ("enqueue", "service"), ("service_phase",))
        engine = LiquidPlatform()
        engine.measure_phases(drr_phased, self.configs())
        first = engine.stats.phase_decodes
        assert first == 2 * drr_phased.phase_count  # icache + dcache linesize
        base = base_configuration()
        engine.measure_phases(
            drr_phased, [base.replace(dcache_sets=3), base.replace(dcache_sets=4)])
        assert engine.stats.phase_decodes == first  # no re-decode, more configs
        assert "phase_decode" in engine.stats.stage_report()
        assert "phase_chain" in engine.stats.stage_report()

    def test_store_backed_engine_still_replays_phases(self, tmp_path, drr_phased):
        """A store serves the overall measurements; chains are recomputed."""
        from repro.engine import open_store

        path = str(tmp_path / "phased.sqlite")
        configs = self.configs()
        writer = LiquidPlatform(store=open_store(path))
        first = writer.measure_phases(drr_phased, configs)
        reader = LiquidPlatform(store=open_store(path))
        replayed = reader.measure_phases(drr_phased, configs)
        assert replayed == first
        assert reader.stats.store_hits == 3  # unique configs from the store
        assert reader.stats.cache_simulations == 0

    def test_warm_chain_observes_the_phase_transition(self, switch_scenario):
        """The resumed phase must hit on state its first run left behind."""
        base = base_configuration().replace(dcache_setsize_kb=16)
        [result] = LiquidPlatform().measure_phases(switch_scenario, [base])
        resume_index = result.phases.index("blastn-resume")
        cold = result.dcache.cold[resume_index]
        warm = result.dcache.warm[resume_index]
        assert warm.misses < cold.misses, (
            "resuming blastn after a context switch should reuse cached state")

