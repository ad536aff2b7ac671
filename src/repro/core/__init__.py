"""The paper's contribution: linear campaign + BINLP-based microarchitecture tuning."""

from repro.core.weights import (
    RESOURCE_OPTIMIZATION,
    RUNTIME_ONLY,
    RUNTIME_OPTIMIZATION,
    Weights,
)
from repro.core.model import CostModel
from repro.core.campaign import CampaignRecord, OneFactorCampaign
from repro.core.binlp import BilinearConstraint, BinlpProblem, LinearConstraint, build_problem
from repro.core.solvers import (
    BranchAndBoundSolver,
    GreedyIndependentSolver,
    RandomSearchSolver,
    Solution,
)
from repro.core.approximations import PredictedCosts, predict_costs, prediction_errors
from repro.core.tuner import MicroarchTuner, TuningResult

__all__ = [
    "RESOURCE_OPTIMIZATION",
    "RUNTIME_ONLY",
    "RUNTIME_OPTIMIZATION",
    "Weights",
    "CostModel",
    "CampaignRecord",
    "OneFactorCampaign",
    "BilinearConstraint",
    "BinlpProblem",
    "LinearConstraint",
    "build_problem",
    "BranchAndBoundSolver",
    "GreedyIndependentSolver",
    "RandomSearchSolver",
    "Solution",
    "PredictedCosts",
    "predict_costs",
    "prediction_errors",
    "MicroarchTuner",
    "TuningResult",
]
