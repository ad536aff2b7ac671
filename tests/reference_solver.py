"""Brute-force BINLP oracle: the ground truth for the production solvers.

:class:`ExhaustiveSolver` enumerates every combination of the decision
groups and keeps the best feasible one, so it is only usable on small
problems (the dcache study, hand-built instances).  The solver tests
hold :class:`~repro.core.solvers.BranchAndBoundSolver` to it.
"""

from __future__ import annotations

import itertools
from typing import Tuple

from repro.core.binlp import BinlpProblem
from repro.core.solvers import Solution, _decision_groups
from repro.errors import OptimizationError


class ExhaustiveSolver:
    """Enumerate every combination of the decision groups (small problems only)."""

    name = "exhaustive"

    def __init__(self, max_combinations: int = 2_000_000):
        self.max_combinations = max_combinations

    def solve(self, problem: BinlpProblem) -> Solution:
        decisions = _decision_groups(problem)
        total = 1
        for group in decisions:
            total *= len(group) + 1
            if total > self.max_combinations:
                raise OptimizationError(
                    f"exhaustive enumeration would need {total}+ combinations "
                    f"(limit {self.max_combinations}); use branch and bound instead")
        best_selection: Tuple[int, ...] = ()
        best_objective = 0.0
        nodes = 0
        option_lists = [[None] + list(group) for group in decisions]
        for combo in itertools.product(*option_lists):
            nodes += 1
            selection = [i for i in combo if i is not None]
            objective = sum(problem.objective[i] for i in selection)
            if objective >= best_objective - 1e-12:
                continue
            if problem.is_feasible(selection):
                best_objective = objective
                best_selection = tuple(sorted(selection))
        return Solution(
            selection=best_selection,
            objective=best_objective,
            feasible=True,
            optimal=True,
            nodes_explored=nodes,
            solver=self.name,
        )
