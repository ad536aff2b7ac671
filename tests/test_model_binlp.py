"""Tests for the cost model (rho/lambda/beta) and the BINLP formulation."""

import dataclasses

import pytest

from reference_solver import ExhaustiveSolver
from repro.config import PerturbationSpace, leon_parameter_space
from repro.core import (
    OneFactorCampaign,
    RUNTIME_ONLY,
    RUNTIME_OPTIMIZATION,
    RESOURCE_OPTIMIZATION,
    Weights,
    build_problem,
)
from repro.core.model import CostModel
from repro.core.solvers import BranchAndBoundSolver
from repro.errors import OptimizationError
from repro.platform import CostDelta, LiquidPlatform


@pytest.fixture(scope="module")
def campaign_model(arith_small):
    """A full-space cost model for the small Arith workload."""
    platform = LiquidPlatform()
    campaign = OneFactorCampaign(platform)
    return campaign.run(arith_small)


@pytest.fixture(scope="module")
def dcache_model(blastn_small):
    platform = LiquidPlatform()
    campaign = OneFactorCampaign(platform)
    return campaign.run(blastn_small, parameters=["dcache_sets", "dcache_setsize_kb"])


class TestWeights:
    def test_objective_coefficient(self):
        weights = Weights(runtime=100, resources=1)
        assert weights.objective_coefficient(-2.0, 1.0, 3.0) == pytest.approx(-196.0)

    def test_presets(self):
        assert RUNTIME_OPTIMIZATION.runtime == 100 and RUNTIME_OPTIMIZATION.resources == 1
        assert RESOURCE_OPTIMIZATION.runtime == 1 and RESOURCE_OPTIMIZATION.resources == 100
        assert RUNTIME_ONLY.resources == 0
        assert "w1=100" in RUNTIME_OPTIMIZATION.describe()

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            Weights(runtime=-1, resources=1)
        with pytest.raises(ValueError):
            Weights(runtime=0, resources=0)


class TestCostModel:
    def test_one_delta_per_variable(self, campaign_model):
        assert len(campaign_model.deltas) == len(campaign_model.space) == 53

    def test_headroom_matches_base_measurement(self, campaign_model):
        assert campaign_model.lut_headroom == pytest.approx(100 - campaign_model.base.lut_percent)
        assert campaign_model.bram_headroom == pytest.approx(
            100 - campaign_model.base.bram_percent)

    def test_multiplier_delta_signs(self, campaign_model):
        var = campaign_model.space.find("multiplier", "m32x32")
        delta = campaign_model.delta(var.index)
        assert delta.rho < 0 and delta.lam > 0

    def test_linear_runtime_prediction_is_additive(self, campaign_model):
        space = campaign_model.space
        a = space.find("multiplier", "m32x32").index
        b = space.find("dcache_fast_read", True).index
        combined = campaign_model.predict_runtime_percent((a, b))
        assert combined == pytest.approx(
            campaign_model.deltas[a].rho + campaign_model.deltas[b].rho)
        cycles = campaign_model.predict_runtime_cycles((a, b))
        assert cycles == pytest.approx(campaign_model.base.cycles * (1 + combined / 100))

    def test_nonlinear_bram_prediction_models_cache_coupling(self, campaign_model):
        space = campaign_model.space
        sets4 = space.find("dcache_sets", 4).index
        size32 = space.find("dcache_setsize_kb", 32).index
        linear = campaign_model.predict_bram_percent((sets4, size32), nonlinear=False)
        nonlinear = campaign_model.predict_bram_percent((sets4, size32), nonlinear=True)
        # 4 sets x 32 KB is ~128 KB of cache: the bilinear form must predict
        # far more BRAM than the simple sum of the two one-factor deltas.
        assert nonlinear > linear
        assert nonlinear > 100.0

    def test_lut_prediction_linear_vs_nonlinear(self, campaign_model):
        space = campaign_model.space
        selection = (space.find("dcache_sets", 2).index,
                     space.find("dcache_setsize_kb", 8).index)
        assert campaign_model.predict_lut_percent(selection) == pytest.approx(
            campaign_model.base.lut_percent
            + sum(campaign_model.deltas[i].lam for i in selection))

    def test_measurement_and_rows(self, campaign_model):
        assert campaign_model.measurement(0).workload == campaign_model.workload

    def test_mismatched_deltas_rejected(self, campaign_model):
        with pytest.raises(OptimizationError):
            CostModel(workload="x", space=campaign_model.space,
                      base=campaign_model.base, deltas=campaign_model.deltas[:-1])

    def test_model_without_measurements_refuses_lookup(self, campaign_model):
        bare = CostModel(workload="x", space=campaign_model.space,
                         base=campaign_model.base, deltas=campaign_model.deltas)
        with pytest.raises(OptimizationError):
            bare.measurement(0)


class TestCampaign:
    def test_linear_number_of_measurements(self, arith_small):
        platform = LiquidPlatform()
        campaign = OneFactorCampaign(platform)
        model = campaign.run(arith_small)
        # one base + one run per perturbation variable, nothing exponential
        assert platform.effort()["runs"] <= len(model.space) + 1
        assert len(campaign.records) == len(model.space)
        assert campaign.exhaustive_size() > 10**8

    def test_restricted_campaign(self, dcache_model):
        assert {v.parameter for v in dcache_model.space} == {
            "dcache_sets", "dcache_setsize_kb"}
        assert len(dcache_model.deltas) == 8


class TestBinlpProblem:
    def test_objective_coefficients_follow_weights(self, campaign_model):
        problem = build_problem(campaign_model, RUNTIME_OPTIMIZATION)
        for i, delta in enumerate(campaign_model.deltas):
            expected = RUNTIME_OPTIMIZATION.objective_coefficient(delta.rho, delta.lam, delta.beta)
            assert problem.objective[i] == pytest.approx(expected)

    def test_groups_match_multivalued_parameters(self, campaign_model):
        problem = build_problem(campaign_model, RUNTIME_OPTIMIZATION)
        assert len(problem.groups) == len(campaign_model.space.groups)

    def test_coupling_constraints_exist_for_both_caches(self, campaign_model):
        problem = build_problem(campaign_model, RUNTIME_OPTIMIZATION)
        names = {c.name for c in problem.linear_constraints}
        assert "icache_lrr_requires_2_sets" in names
        assert "dcache_lru_requires_multiway" in names

    def test_lrr_without_two_sets_is_infeasible(self, campaign_model):
        problem = build_problem(campaign_model, RUNTIME_OPTIMIZATION)
        space = campaign_model.space
        lrr = space.find("dcache_replacement", "lrr").index
        two_sets = space.find("dcache_sets", 2).index
        assert not problem.is_feasible((lrr,))
        assert problem.is_feasible((lrr, two_sets))

    def test_lru_requires_some_multiway_selection(self, campaign_model):
        problem = build_problem(campaign_model, RUNTIME_OPTIMIZATION)
        space = campaign_model.space
        lru = space.find("icache_replacement", "lru").index
        sets3 = space.find("icache_sets", 3).index
        assert not problem.is_feasible((lru,))
        assert problem.is_feasible((lru, sets3))

    def test_selecting_two_values_of_one_parameter_is_rejected(self, campaign_model):
        from repro.errors import ConfigurationError

        problem = build_problem(campaign_model, RUNTIME_OPTIMIZATION)
        space = campaign_model.space
        a = space.find("dcache_setsize_kb", 8).index
        b = space.find("dcache_setsize_kb", 16).index
        # the at-most-one structure is what the solvers branch over ...
        assert any(a in group and b in group for group in problem.groups)
        # ... and the perturbation space refuses to even evaluate such a selection
        with pytest.raises(ConfigurationError):
            problem.objective_value((a, b))

    def test_bram_capacity_constraint_blocks_oversized_caches(self, campaign_model):
        problem = build_problem(campaign_model, RUNTIME_ONLY)
        space = campaign_model.space
        selection = (
            space.find("dcache_sets", 4).index,
            space.find("dcache_setsize_kb", 32).index,
            space.find("icache_sets", 4).index,
            space.find("icache_setsize_kb", 32).index,
        )
        assert "bram_capacity" in problem.violations(selection)

    def test_linear_bram_constraint_misses_the_coupling(self, campaign_model):
        """Without the bilinear form the oversized cache looks feasible -- this is
        exactly why the paper keeps the BRAM constraint nonlinear."""
        nonlinear = build_problem(campaign_model, RUNTIME_ONLY, bram_nonlinear=True)
        linear = build_problem(campaign_model, RUNTIME_ONLY, bram_nonlinear=False)
        space = campaign_model.space
        # 4 sets x 16 KB is 64 KB of data cache: the one-factor deltas add up to
        # well under the head-room, but the bilinear form reveals the overflow.
        selection = (
            space.find("dcache_sets", 4).index,
            space.find("dcache_setsize_kb", 16).index,
        )
        assert "bram_capacity" in nonlinear.violations(selection)
        assert "bram_capacity" not in linear.violations(selection)

    def test_replacement_without_set_variables_is_never_selected(self, arith_small):
        """With no ``dcache_sets`` variable in the space, LRR is unavailable and
        LRU's multiway constraint reads ``lru <= 0``: neither policy can be
        chosen, even when both would pay off."""
        model = OneFactorCampaign(LiquidPlatform()).run(
            arith_small, parameters=("dcache_replacement",))
        space = model.space
        lrr = space.find("dcache_replacement", "lrr").index
        lru = space.find("dcache_replacement", "lru").index
        # pretend both policies make the program faster for free
        model = dataclasses.replace(
            model, deltas=tuple(CostDelta(rho=-5.0, lam=0.0, beta=0.0) for _ in space))
        for weights in (RUNTIME_OPTIMIZATION, RESOURCE_OPTIMIZATION, RUNTIME_ONLY):
            problem = build_problem(model, weights)
            constraints = {c.name: c for c in problem.linear_constraints}
            assert dict(constraints["dcache_lrr_unavailable"].coefficients) == {lrr: 1.0}
            lru_rule = constraints["dcache_lru_requires_multiway"]
            assert (dict(lru_rule.coefficients), lru_rule.bound) == ({lru: 1.0}, 0.0)
            for solver in (BranchAndBoundSolver(), ExhaustiveSolver()):
                assert solver.solve(problem).selection == ()
            # without the coupling rules one of the policies would be chosen
            free = dataclasses.replace(problem, linear_constraints=())
            assert ExhaustiveSolver().solve(free).selection in ((lrr,), (lru,))

    def test_empty_selection_is_always_feasible(self, campaign_model):
        for weights in (RUNTIME_OPTIMIZATION, RESOURCE_OPTIMIZATION, RUNTIME_ONLY):
            problem = build_problem(campaign_model, weights)
            assert problem.is_feasible(())
            assert problem.objective_value(()) == 0.0
