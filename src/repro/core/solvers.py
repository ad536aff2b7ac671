"""Solvers for the BINLP problem.

The paper uses the commercial Tomlab /MINLP solver (a MATLAB plug-in);
we provide our own solvers over the exact same formulation:

* :class:`BranchAndBoundSolver` -- the primary solver.  It branches over
  the at-most-one groups (and the free binary variables), uses a
  separable lower bound (the best possible objective of the not-yet-fixed
  variables, ignoring resource constraints) for pruning, seeds the search
  with a greedy incumbent and, at every node, bounds each coupling and
  resource constraint from below over all completions of the prefix
  (interval bounds on the bilinear cache products), pruning prefixes that
  cannot fit.  On the paper's problems it explores at most about a
  hundred nodes, and only the root when the greedy incumbent is already
  the unconstrained optimum.
* :class:`ExhaustiveSolver` -- enumerates every combination; only usable
  on scaled-down spaces (the dcache study) and used as the ground truth
  in tests.
* :class:`GreedyIndependentSolver` -- picks the best option per group
  ignoring resources and then repairs feasibility by dropping the least
  valuable picks; serves as the ablation baseline showing why the
  constrained formulation matters.
* :class:`RandomSearchSolver` -- samples random feasible selections.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import add
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import OptimizationError
from repro.core.binlp import BinlpProblem

__all__ = [
    "Solution",
    "BranchAndBoundSolver",
    "ExhaustiveSolver",
    "GreedyIndependentSolver",
    "RandomSearchSolver",
]


@dataclass(frozen=True)
class Solution:
    """Result of one solver run."""

    selection: Tuple[int, ...]
    objective: float
    feasible: bool
    optimal: bool
    nodes_explored: int = 0
    solver: str = ""

    def describe(self) -> str:
        status = "optimal" if self.optimal else ("feasible" if self.feasible else "infeasible")
        return (
            f"{self.solver}: objective {self.objective:.3f}, {len(self.selection)} variables "
            f"selected, {status}, {self.nodes_explored} nodes")


def _decision_groups(problem: BinlpProblem) -> List[Tuple[int, ...]]:
    """Groups plus singleton pseudo-groups for free binary variables."""
    grouped = {i for group in problem.groups for i in group}
    decisions: List[Tuple[int, ...]] = [tuple(group) for group in problem.groups]
    for i in range(problem.variable_count):
        if i not in grouped:
            decisions.append((i,))
    return decisions


def _order_decisions(
    problem: BinlpProblem, decisions: List[Tuple[int, ...]]
) -> Tuple[List[Tuple[int, ...]], int]:
    """Order decisions so constraint-coupled groups are fixed first; count those.

    Fixing the cache-structure groups early makes the bilinear resource
    terms concrete as soon as possible, which lets infeasible branches be
    pruned high in the tree.
    """
    coupled: set[int] = set()
    for constraint in problem.resource_constraints:
        for _, factor_a, factor_b in constraint.products:
            coupled.update(factor_a)
            coupled.update(factor_b)
    for constraint in problem.linear_constraints:
        coupled.update(constraint.coefficients)

    def sort_key(group: Tuple[int, ...]) -> Tuple[int, float]:
        touches = any(i in coupled for i in group)
        best = min(problem.objective[i] for i in group)
        return (0 if touches else 1, best)

    ordered = sorted(decisions, key=sort_key)
    return ordered, sum(1 for group in ordered if any(i in coupled for i in group))


def _greedy_repair(
    decisions: List[Tuple[int, ...]], objective: Tuple[float, ...],
    fits: Callable[[List[int]], bool],
) -> Tuple[List[int], bool, int]:
    """The best option of every group, least valuable picks dropped until ``fits``.

    Returns the sorted selection, whether it fits and how many selections
    were tested.
    """
    current = sorted(best for group in decisions
                     for best in [min(group, key=objective.__getitem__)]
                     if objective[best] < 0)
    tested = 1
    feasible = fits(current)
    while current and not feasible:
        tested += 1
        current.remove(max(current, key=objective.__getitem__))
        feasible = fits(current)
    return current, feasible, tested


class GreedyIndependentSolver:
    """Pick the best option of every group independently, then repair feasibility."""

    name = "greedy"

    def solve(self, problem: BinlpProblem) -> Solution:
        current, feasible, tested = _greedy_repair(
            _decision_groups(problem), problem.objective, problem.is_feasible)
        return Solution(
            selection=tuple(current),
            objective=problem.objective_value(current),
            feasible=feasible,
            optimal=False,
            nodes_explored=tested,
            solver=self.name,
        )


class BranchAndBoundSolver:
    """Depth-first branch and bound over the group structure."""

    name = "branch-and-bound"

    def __init__(self, node_limit: int = 500_000):
        self.node_limit = node_limit

    def solve(self, problem: BinlpProblem) -> Solution:
        decisions, n_coupled = _order_decisions(problem, _decision_groups(problem))
        n_decisions = len(decisions)
        objective_of = problem.objective

        # The decisions are ordered so that every group touching a coupling or
        # bilinear resource constraint comes first.  Once those are fixed, the
        # remaining variables only interact through the linear terms of the
        # resource budgets, so the unconstrained-optimal completion (take every
        # improving option) is optimal for the subtree whenever it is
        # feasible -- which it almost always is, because the non-cache deltas
        # are tiny compared to the head-room.  With the constraint bounds
        # below, the search visits at most about a hundred nodes on the
        # paper's problems.

        # optimistic objective obtainable from decisions[k:] (ignoring constraints)
        suffix_bound = [0.0] * (n_decisions + 1)
        for k in range(n_decisions - 1, -1, -1):
            best = min(0.0, min(objective_of[i] for i in decisions[k]))
            suffix_bound[k] = suffix_bound[k + 1] + best

        # Every constraint is tracked through running sums ("slots") carried
        # down the search: one for its linear terms and one per factor of each
        # bilinear product.  Choosing variable i adds rows[i] to the slots, and
        # decisions[k:] can still move slot s by low[k][s] to high[k][s] (each
        # group adds nothing or one option's coefficient).
        decision_of = {i: k for k, group in enumerate(decisions) for i in group}
        columns: List[List[float]] = []
        low_columns: List[List[float]] = []
        high_columns: List[List[float]] = []
        root_sums: List[float] = []

        def add_slot(terms: Mapping[int, float], start: float) -> int:
            column = [0.0] * problem.variable_count
            step_low = [0.0] * (n_decisions + 1)
            step_high = [0.0] * (n_decisions + 1)
            for i, c in terms.items():
                column[i] = c
                k = decision_of[i]
                if c < step_low[k]:
                    step_low[k] = c
                elif c > step_high[k]:
                    step_high[k] = c
            columns.append(column)
            low_columns.append(list(itertools.accumulate(reversed(step_low)))[::-1])
            high_columns.append(list(itertools.accumulate(reversed(step_high)))[::-1])
            root_sums.append(start)
            return len(columns) - 1

        layout: List[Tuple[int, List[Tuple[int, int]], float]] = []
        for c in problem.linear_constraints:
            layout.append((add_slot(c.coefficients, 0.0), [], c.bound + 1e-9))
        for c in problem.resource_constraints:
            pairs = [(add_slot(factor_a, constant), add_slot(factor_b, 0.0))
                     for constant, factor_a, factor_b in c.products]
            layout.append((add_slot(c.linear, 0.0), pairs, c.bound + 1e-9))
        rows = list(zip(*columns))
        low = list(zip(*low_columns))
        high = list(zip(*high_columns))

        def fits(sums: List[float], k: int) -> bool:
            """Whether some completion of decisions[k:] may satisfy every constraint.

            The lower bound of a constraint is its linear sum plus the largest
            decrease its undecided groups allow, plus, for each bilinear
            product, the least product over the two factors' ranges: the
            interval (McCormick) bound, attained at a corner.  Once every
            factor is decided the bound is the constraint's exact value.
            """
            lo, hi = low[k], high[k]
            for linear, pairs, limit in layout:
                total = sums[linear] + lo[linear]
                for a, b in pairs:
                    a_lo, a_hi = sums[a] + lo[a], sums[a] + hi[a]
                    b_lo, b_hi = sums[b] + lo[b], sums[b] + hi[b]
                    total += min(a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
                if total > limit:
                    return False
            return True

        completions: Dict[int, Tuple[List[int], float, List[float]]] = {}

        def greedy_completion(k: int) -> Tuple[List[int], float, List[float]]:
            """Best possible (unconstrained) completion of decisions[k:] and its slot sums."""
            if k not in completions:
                picks: List[int] = []
                objective = 0.0
                delta = [0.0] * len(columns)
                for group in decisions[k:]:
                    best = min(group, key=objective_of.__getitem__)
                    if objective_of[best] < 0:
                        picks.append(best)
                        objective += objective_of[best]
                        delta = list(map(add, delta, rows[best]))
                completions[k] = (picks, objective, delta)
            return completions[k]

        # explore the most promising options first: skip (None) and each member
        option_orders: List[List[Optional[int]]] = [
            sorted([None, *group], key=lambda i: 0.0 if i is None else objective_of[i])
            for group in decisions]

        def selection_fits(selection: List[int]) -> bool:
            sums = root_sums
            for i in selection:
                sums = list(map(add, sums, rows[i]))
            return fits(sums, n_decisions)

        # incumbent: the greedy selection if it fits, else the empty selection
        # (keep the base configuration).  It is tested on slot sums rather than
        # with violations(); the two sum in different orders, so they may
        # disagree within rounding.  The reported feasibility is is_feasible()'s.
        current, feasible, _ = _greedy_repair(decisions, objective_of, selection_fits)
        best_objective = problem.objective_value(current) if feasible else 0.0
        best_selection: Tuple[int, ...] = tuple(current) if feasible else ()

        nodes = 0
        limit_hit = False

        def dfs(k: int, chosen: List[int], objective: float, sums: List[float]) -> None:
            nonlocal nodes, best_objective, best_selection, limit_hit
            nodes += 1
            if nodes > self.node_limit:
                limit_hit = True
                return
            if objective + suffix_bound[k] >= best_objective - 1e-12:
                return
            # a prefix no completion of which fits every constraint is a dead end
            if not fits(sums, k):
                return
            if k == n_decisions:
                best_objective = objective
                best_selection = tuple(sorted(chosen))
                return
            if k >= n_coupled:
                # all coupled decisions fixed: try the unconstrained-optimal completion
                picks, completion_objective, delta = greedy_completion(k)
                if fits(list(map(add, sums, delta)), n_decisions):
                    total = objective + completion_objective
                    if total < best_objective - 1e-12:
                        best_objective = total
                        best_selection = tuple(sorted(chosen + picks))
                    return
            for option in option_orders[k]:
                if limit_hit:
                    return
                if option is None:
                    dfs(k + 1, chosen, objective, sums)
                else:
                    chosen.append(option)
                    dfs(k + 1, chosen, objective + objective_of[option],
                        list(map(add, sums, rows[option])))
                    chosen.pop()

        dfs(0, [], 0.0, root_sums)
        return Solution(
            selection=best_selection,
            objective=best_objective,
            feasible=problem.is_feasible(best_selection),
            optimal=not limit_hit,
            nodes_explored=nodes,
            solver=self.name,
        )


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


class RandomSearchSolver:
    """Uniform random sampling baseline used in the solver ablation."""

    name = "random-search"

    def __init__(self, samples: int = 2000, seed: int = 7):
        self.samples = samples
        self.seed = seed

    def solve(self, problem: BinlpProblem) -> Solution:
        rng = random.Random(self.seed)
        decisions = _decision_groups(problem)
        best_selection: Tuple[int, ...] = ()
        best_objective = 0.0
        for _ in range(self.samples):
            selection: List[int] = []
            for group in decisions:
                choice = rng.randrange(len(group) + 1)
                if choice:
                    selection.append(group[choice - 1])
            objective = sum(problem.objective[i] for i in selection)
            if objective < best_objective - 1e-12 and problem.is_feasible(selection):
                best_objective = objective
                best_selection = tuple(sorted(selection))
        return Solution(
            selection=best_selection,
            objective=best_objective,
            feasible=True,
            optimal=False,
            nodes_explored=self.samples,
            solver=self.name,
        )
