"""End-to-end tests of the MicroarchTuner (campaign -> BINLP -> solve -> verify)."""

import itertools

import pytest

from repro import (
    LiquidPlatform,
    MicroarchTuner,
    RESOURCE_OPTIMIZATION,
    RUNTIME_ONLY,
    RUNTIME_OPTIMIZATION,
    base_configuration,
)
from repro.analysis import DCACHE_STUDY_PARAMETERS
from repro.config import check_rules
from repro.config.perturbation import PerturbationSpace
from repro.errors import MeasurementError, OptimizationError


@pytest.fixture(scope="module")
def shared_platform():
    return LiquidPlatform()


@pytest.fixture(scope="module")
def tuner(shared_platform):
    return MicroarchTuner(shared_platform)


@pytest.fixture(scope="module")
def arith_runtime_result(tuner, arith_small):
    return tuner.tune(arith_small, RUNTIME_OPTIMIZATION)


class TestTuningResult:
    def test_recommended_configuration_is_valid(self, arith_runtime_result):
        assert check_rules(arith_runtime_result.configuration) == []
        assert arith_runtime_result.solution.feasible

    def test_runtime_optimisation_improves_runtime(self, arith_runtime_result):
        assert arith_runtime_result.actual_runtime_gain_percent() > 0
        assert arith_runtime_result.predicted_runtime_gain_percent() > 0

    def test_arith_gets_the_fast_multiplier(self, arith_runtime_result):
        changes = arith_runtime_result.changed_parameters()
        assert changes.get("multiplier", (None, None))[1] == "m32x32"
        # Arith touches no memory, so the data-cache size is never increased
        assert arith_runtime_result.configuration.dcache_setsize_kb <= 4

    def test_recommended_configuration_fits_the_device(self, shared_platform,
                                                       arith_runtime_result):
        assert shared_platform.fits(arith_runtime_result.configuration)

    def test_prediction_errors_available_when_verified(self, arith_runtime_result):
        errors = arith_runtime_result.prediction_errors()
        assert set(errors) == {
            "runtime_percent_error", "lut_error_linear", "lut_error_nonlinear",
            "bram_error_linear", "bram_error_nonlinear"}

    def test_summary_mentions_changes(self, arith_runtime_result):
        text = arith_runtime_result.summary()
        assert "multiplier" in text and "predicted runtime change" in text

    def test_verify_false_skips_actual_measurement(self, tuner, arith_small,
                                                   arith_runtime_result):
        result = tuner.tune(arith_small, RUNTIME_OPTIMIZATION,
                            model=arith_runtime_result.model, verify=False)
        assert result.actual is None
        with pytest.raises(OptimizationError):
            result.actual_runtime_gain_percent()
        with pytest.raises(OptimizationError):
            result.prediction_errors()


class TestResourceOptimization:
    def test_resources_shrink_at_a_runtime_cost(self, tuner, arith_small,
                                                arith_runtime_result):
        result = tuner.tune(arith_small, RESOURCE_OPTIMIZATION,
                            model=arith_runtime_result.model)
        delta = result.actual_resource_delta()
        assert delta["lut"] < 0
        assert delta["bram"] < 0
        assert result.actual_runtime_gain_percent() <= 0

    def test_weights_change_the_recommendation(self, tuner, arith_small,
                                               arith_runtime_result):
        runtime = arith_runtime_result.configuration
        resources = tuner.tune(arith_small, RESOURCE_OPTIMIZATION,
                               model=arith_runtime_result.model).configuration
        assert runtime != resources


class TestDcacheStudy:
    """The paper's Section 5: optimizer vs exhaustive on the dcache sub-space."""

    def test_optimizer_matches_exhaustive_runtime(self, shared_platform, tuner, drr_small):
        result = tuner.tune(drr_small, RUNTIME_ONLY, parameters=DCACHE_STUDY_PARAMETERS)
        base = base_configuration()
        best_cycles = None
        for sets, size in itertools.product((1, 2, 3, 4), (1, 2, 4, 8, 16, 32)):
            config = base.replace(dcache_sets=sets, dcache_setsize_kb=size)
            if not shared_platform.fits(config):
                continue
            cycles = shared_platform.measure(drr_small, config).cycles
            best_cycles = cycles if best_cycles is None else min(best_cycles, cycles)
        assert result.actual is not None
        gap = 100.0 * (result.actual.cycles - best_cycles) / result.base.cycles
        # the paper reports a 0.02% gap; we allow a modest near-optimality margin
        assert gap <= 1.0

    def test_restricted_tuning_only_touches_dcache_geometry(self, tuner, drr_small):
        result = tuner.tune(drr_small, RUNTIME_ONLY, parameters=DCACHE_STUDY_PARAMETERS)
        assert set(result.changed_parameters()) <= set(DCACHE_STUDY_PARAMETERS)

    def test_dcache_has_no_effect_on_arith(self, tuner, arith_small):
        result = tuner.tune(arith_small, RUNTIME_ONLY, parameters=DCACHE_STUDY_PARAMETERS)
        assert result.actual is not None
        assert result.actual.cycles == result.base.cycles


class TestPlanOnce:
    """A tuner plans its one-factor batch once per parameter restriction."""

    @pytest.fixture
    def fits_calls(self, monkeypatch):
        """Every configuration a fit screen was asked about (one column per plan)."""
        calls = []
        fits_many = LiquidPlatform.fits_many

        def counting(platform, configs):
            calls.extend(configs)
            return fits_many(platform, configs)

        monkeypatch.setattr(LiquidPlatform, "fits_many", counting)
        return calls

    def test_one_tuner_equals_fresh_tuners(self, small_workload_map):
        shared = MicroarchTuner(LiquidPlatform())
        for workload in small_workload_map.values():
            reused = shared.tune(workload, RUNTIME_OPTIMIZATION)
            fresh = MicroarchTuner(LiquidPlatform()).tune(workload, RUNTIME_OPTIMIZATION)
            assert reused.configuration == fresh.configuration
            assert reused.selection == fresh.selection
            assert reused.solution.objective == fresh.solution.objective
            assert reused.predicted == fresh.predicted
            assert reused.model.deltas == fresh.model.deltas
            assert reused.base == fresh.base
            assert reused.actual == fresh.actual

    def test_one_plan_per_restriction(self, fits_calls, arith_small, drr_small):
        tuner = MicroarchTuner(LiquidPlatform())
        model = tuner.build_model(arith_small)
        assert len(fits_calls) == len(model.measurements)
        tuner.build_model(drr_small)
        assert len(fits_calls) == len(model.measurements)

        restricted = tuner.build_model(
            arith_small, parameters=(name for name in DCACHE_STUDY_PARAMETERS))
        planned = len(fits_calls)
        assert planned == len(model.measurements) + len(restricted.measurements)
        again = tuner.build_model(
            drr_small, parameters=list(reversed(DCACHE_STUDY_PARAMETERS)))
        models = tuner.build_models([arith_small, drr_small],
                                    parameters=DCACHE_STUDY_PARAMETERS)
        assert len(fits_calls) == planned
        assert again.space is restricted.space is models["drr"].space

    def test_an_explicit_space_bypasses_the_memo(self, fits_calls, arith_small):
        tuner = MicroarchTuner(LiquidPlatform())
        space = PerturbationSpace(tuner.parameter_space, DCACHE_STUDY_PARAMETERS)
        for _ in range(2):
            tuner.campaign.run(arith_small, perturbation_space=space)
        assert len(fits_calls) == 2 * len(space)
        tuner.build_model(arith_small, parameters=DCACHE_STUDY_PARAMETERS)
        assert len(fits_calls) == 3 * len(space)
        # the explicit space was never stored as the unrestricted plan
        full = tuner.build_model(arith_small)
        assert full.space is not space
        assert len(fits_calls) == 3 * len(space) + len(full.space)

    def test_a_failed_screen_is_not_cached(self, monkeypatch, arith_small):
        platform = LiquidPlatform()
        tuner = MicroarchTuner(platform)
        rejected = base_configuration().replace(dcache_setsize_kb=32)
        fits_many = platform.fits_many
        monkeypatch.setattr(platform, "fits_many", lambda configs: fits_many(configs) & [
            config != rejected for config in configs])
        with pytest.raises(MeasurementError, match="does not fit"):
            tuner.build_model(arith_small, parameters=DCACHE_STUDY_PARAMETERS)
        monkeypatch.setattr(platform, "fits_many", fits_many)
        model = tuner.build_model(arith_small, parameters=DCACHE_STUDY_PARAMETERS)
        assert rejected in [m.configuration for m in model.measurements]
