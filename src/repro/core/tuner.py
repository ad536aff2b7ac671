"""End-to-end automatic microarchitecture tuner (the paper's contribution).

:class:`MicroarchTuner` runs the full pipeline of the paper's Section 3:

1. one-factor measurement campaign over the (possibly restricted)
   parameter space;
2. BINLP formulation with the requested weights;
3. solve (branch and bound by default);
4. apply the selected perturbations to obtain the recommended
   configuration, predict its cost under the independence assumption and
   -- optionally -- actually build and measure it for comparison.

The :class:`TuningResult` carries everything the paper's result tables
need: the recommended configuration, which parameters changed, the
predicted and measured costs and the solver diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.config.configuration import Configuration
from repro.config.leon_space import leon_parameter_space
from repro.config.parameters import ParameterSpace
from repro.config.rules import require_valid
from repro.errors import OptimizationError
from repro.platform.liquid import LiquidPlatform
from repro.platform.measurement import Measurement
from repro.core.approximations import PredictedCosts, predict_costs, prediction_errors
from repro.core.binlp import BinlpProblem, build_problem
from repro.core.campaign import OneFactorCampaign
from repro.core.model import CostModel
from repro.core.solvers import BranchAndBoundSolver, Solution
from repro.core.weights import RUNTIME_OPTIMIZATION, Weights
from repro.workloads.base import Workload

__all__ = ["MicroarchTuner", "TuningResult"]


@dataclass(frozen=True)
class TuningResult:
    """Everything produced by one tuning run."""

    workload: str
    weights: Weights
    model: CostModel
    problem: BinlpProblem
    solution: Solution
    configuration: Configuration
    predicted: PredictedCosts
    base: Measurement
    actual: Optional[Measurement] = None

    # -- convenience accessors -----------------------------------------------------------------

    @property
    def selection(self) -> Tuple[int, ...]:
        return self.solution.selection

    def changed_parameters(self) -> Dict[str, Tuple[Any, Any]]:
        """Parameters reconfigured from the base configuration: name -> (base, new)."""
        return self.configuration.diff(self.base.configuration)

    def predicted_runtime_gain_percent(self) -> float:
        """Predicted runtime improvement over the base configuration (positive = faster)."""
        return -self.predicted.runtime_percent

    def actual_runtime_gain_percent(self) -> float:
        """Measured runtime improvement (requires ``verify=True`` at tuning time)."""
        if self.actual is None:
            raise OptimizationError("tuning was run with verify=False; no actual measurement")
        return -100.0 * (self.actual.cycles - self.base.cycles) / self.base.cycles

    def actual_resource_delta(self) -> Dict[str, float]:
        """Measured (LUT, BRAM) utilisation change in percentage points."""
        if self.actual is None:
            raise OptimizationError("tuning was run with verify=False; no actual measurement")
        delta = self.actual.resources.delta_percent(self.base.resources)
        return {"lut": delta["lut"], "bram": delta["bram"]}

    def prediction_errors(self) -> Dict[str, float]:
        """Signed prediction errors of the optimizer's approximations."""
        if self.actual is None:
            raise OptimizationError("tuning was run with verify=False; no actual measurement")
        return prediction_errors(self.predicted, self.actual, self.base)

    def summary(self) -> str:
        lines = [f"{self.workload} / {self.weights.describe()}:"]
        changes = self.changed_parameters()
        if not changes:
            lines.append("  recommended configuration: base (no change)")
        else:
            for name, (old, new) in sorted(changes.items()):
                lines.append(f"  {name}: {old!r} -> {new!r}")
        lines.append(f"  predicted runtime change: {self.predicted.runtime_percent:+.2f}%")
        if self.actual is not None:
            lines.append(f"  measured runtime change: {-self.actual_runtime_gain_percent():+.2f}%")
        return "\n".join(lines)


class MicroarchTuner:
    """Automatic application-specific microarchitecture reconfiguration."""

    def __init__(
        self,
        platform: Optional[LiquidPlatform] = None,
        parameter_space: Optional[ParameterSpace] = None,
        solver: Optional[Any] = None,
    ):
        self.platform = platform or LiquidPlatform()
        self.parameter_space = parameter_space or leon_parameter_space()
        self.solver = solver or BranchAndBoundSolver()
        self.campaign = OneFactorCampaign(self.platform, self.parameter_space)

    # -- pipeline --------------------------------------------------------------------------------

    def build_model(
        self, workload: Workload, *, parameters: Optional[Iterable[str]] = None
    ) -> CostModel:
        """Run (or re-use) the one-factor campaign for ``workload``."""
        return self.campaign.run(workload, parameters=parameters)

    def build_models(
        self,
        workloads: Iterable[Workload],
        *,
        parameters: Optional[Iterable[str]] = None,
    ) -> Dict[str, CostModel]:
        """One-factor campaigns for several workloads.

        Every campaign of a tuner shares one plan per parameter
        restriction and each workload's campaign is one batch; the models
        are keyed by workload name and identical to :meth:`build_model`.
        """
        return self.campaign.run_many(workloads, parameters=parameters)

    def tune(
        self,
        workload: Workload,
        weights: Weights = RUNTIME_OPTIMIZATION,
        *,
        parameters: Optional[Iterable[str]] = None,
        model: Optional[CostModel] = None,
        verify: bool = True,
        lut_nonlinear: bool = False,
        bram_nonlinear: bool = True,
    ) -> TuningResult:
        """Recommend a configuration for ``workload`` under ``weights``.

        ``parameters`` restricts the tuned parameter subset (the dcache
        study); ``model`` allows reusing a campaign across several weight
        settings; ``verify`` additionally builds and measures the
        recommended configuration (the paper's "actual synthesis" rows).
        """
        model = model or self.build_model(workload, parameters=parameters)
        with self.platform.stage("solve", workload=workload.name) as solve_span:
            problem = build_problem(
                model, weights, lut_nonlinear=lut_nonlinear, bram_nonlinear=bram_nonlinear)
            solution = self.solver.solve(problem)
            solve_span.set(variables=problem.variable_count,
                           nodes=solution.nodes_explored, optimal=solution.optimal)
        configuration = require_valid(model.space.apply(solution.selection))
        predicted = predict_costs(model, solution.selection)
        actual = self.platform.measure(workload, configuration) if verify else None
        return TuningResult(
            workload=workload.name,
            weights=weights,
            model=model,
            problem=problem,
            solution=solution,
            configuration=configuration,
            predicted=predicted,
            base=model.base,
            actual=actual,
        )
