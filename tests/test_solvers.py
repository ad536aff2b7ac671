"""Tests for the BINLP solvers, including optimality against brute force."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PerturbationSpace, leon_parameter_space
from repro.core.binlp import (
    BilinearConstraint,
    BinlpProblem,
    LinearConstraint,
    _coupling_constraints,
    build_problem,
)
from repro.core.solvers import (
    BranchAndBoundSolver,
    ExhaustiveSolver,
    GreedyIndependentSolver,
    RandomSearchSolver,
)
from repro.core.tuner import MicroarchTuner
from repro.core.weights import RUNTIME_OPTIMIZATION
from repro.errors import OptimizationError


def dcache_space():
    return PerturbationSpace(leon_parameter_space(), ["dcache_sets", "dcache_setsize_kb"])


def make_problem(objective, *, bound=20.0, sets_weight=None, size_weight=None):
    """A problem over the 8-variable dcache space with one bilinear constraint.

    ``objective`` must have 8 entries: 3 for the sets group and 5 for the
    set-size group.  The bilinear constraint mirrors the paper's cache BRAM
    form: (1 + sum position*x_sets) * (sum weight*x_size) <= bound.
    """
    space = dcache_space()
    sets_idx = tuple(v.index for v in space.variables_for("dcache_sets"))
    size_idx = tuple(v.index for v in space.variables_for("dcache_setsize_kb"))
    sets_weight = sets_weight or {index: float(pos + 1) for pos, index in enumerate(sets_idx)}
    size_weight = size_weight or {index: float(2 ** pos) for pos, index in enumerate(size_idx)}
    constraint = BilinearConstraint(
        name="bram_capacity",
        products=((1.0, sets_weight, size_weight),),
        linear={i: 0.5 for i in sets_idx},
        bound=bound,
    )
    return BinlpProblem(
        space=space,
        objective=tuple(objective),
        groups=tuple(g.variable_indices for g in space.groups),
        linear_constraints=(),
        resource_constraints=(constraint,),
        weights=RUNTIME_OPTIMIZATION,
        name="test",
    )


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(objective=st.lists(st.integers(-50, 20).map(float), min_size=8, max_size=8),
           bound=st.integers(2, 40).map(float))
    def test_branch_and_bound_matches_exhaustive(self, objective, bound):
        problem = make_problem(objective, bound=bound)
        bnb = BranchAndBoundSolver().solve(problem)
        exhaustive = ExhaustiveSolver().solve(problem)
        assert bnb.feasible and exhaustive.feasible
        assert bnb.objective == pytest.approx(exhaustive.objective)
        assert problem.is_feasible(bnb.selection)

    @settings(max_examples=25, deadline=None)
    @given(objective=st.lists(st.integers(-50, 20).map(float), min_size=8, max_size=8))
    def test_greedy_never_beats_branch_and_bound(self, objective):
        problem = make_problem(objective)
        bnb = BranchAndBoundSolver().solve(problem)
        greedy = GreedyIndependentSolver().solve(problem)
        if greedy.feasible:
            assert bnb.objective <= greedy.objective + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(objective=st.lists(st.integers(-50, 20).map(float), min_size=8, max_size=8))
    def test_random_search_returns_feasible_solutions(self, objective):
        problem = make_problem(objective)
        solution = RandomSearchSolver(samples=300, seed=1).solve(problem)
        assert problem.is_feasible(solution.selection)
        bnb = BranchAndBoundSolver().solve(problem)
        assert bnb.objective <= solution.objective + 1e-9


TWO_CACHE_PARAMETERS = [f"{cache}_{name}" for cache in ("icache", "dcache")
                        for name in ("sets", "setsize_kb", "replacement")]


def two_cache_problem(objective, lut, size_weights, bram_linear, lut_bound, bram_bound):
    """Both caches' structure groups (5,184 combinations) under the real coupling rules.

    The LUT budget is linear; the BRAM budget has the paper's bilinear
    form, one ``(1 + sum position*x_sets) * (sum beta*x_size)`` product per
    cache plus linear terms for the set-count and replacement variables.
    Every coefficient is an integer, so each constraint value is exact,
    and objective ``i`` carries its own binary fraction ``2**-(8 + i)``, so
    no two selections tie and the optimal selection is unique.
    """
    space = PerturbationSpace(leon_parameter_space(), TWO_CACHE_PARAMETERS)
    products = []
    size_indices = []
    for cache in ("icache", "dcache"):
        sets_idx = [v.index for v in space.variables_for(f"{cache}_sets")]
        size_idx = [v.index for v in space.variables_for(f"{cache}_setsize_kb")]
        size_indices += size_idx
        products.append((1.0, {i: float(pos + 1) for pos, i in enumerate(sets_idx)},
                         {i: size_weights[i] for i in size_idx}))
    linear = {i: bram_linear[i] for i in range(len(space)) if i not in size_indices}
    return BinlpProblem(
        space=space,
        objective=tuple(value + 2.0 ** -(8 + i) for i, value in enumerate(objective)),
        groups=tuple(g.variable_indices for g in space.groups),
        linear_constraints=tuple(_coupling_constraints(space)),
        resource_constraints=(
            BilinearConstraint("lut_capacity", (), dict(enumerate(lut)), lut_bound),
            BilinearConstraint("bram_capacity", tuple(products), linear, bram_bound),
        ),
        weights=RUNTIME_OPTIMIZATION,
        name="two-cache",
    )


def integers(low, high):
    return st.lists(st.integers(low, high).map(float), min_size=20, max_size=20)


class TestTwoCacheAgainstBruteForce:
    # negative set-size weights (smaller sets) and small BRAM budgets put the
    # least bilinear product at the largest undecided set count, so a bound
    # that misses a corner of the factors' ranges prunes the optimum
    @settings(max_examples=25, deadline=None)
    @given(objective=integers(-50, 20), lut=integers(-4, 8), size_weights=integers(-16, 16),
           bram_linear=integers(-3, 6), lut_bound=st.integers(0, 12).map(float),
           bram_bound=st.integers(0, 6).map(float))
    def test_branch_and_bound_matches_exhaustive(
            self, objective, lut, size_weights, bram_linear, lut_bound, bram_bound):
        problem = two_cache_problem(
            objective, lut, size_weights, bram_linear, lut_bound, bram_bound)
        assert len(problem.space) == 20 and len(problem.linear_constraints) == 4
        bnb = BranchAndBoundSolver().solve(problem)
        exhaustive = ExhaustiveSolver().solve(problem)
        assert exhaustive.nodes_explored == 5184
        assert bnb.optimal and problem.is_feasible(bnb.selection)
        assert bnb.selection == exhaustive.selection
        assert bnb.objective == exhaustive.objective

    @settings(max_examples=40, deadline=None)
    @given(objective=integers(-50, 20), lut=integers(-4, 8), size_weights=integers(-16, 16),
           bram_linear=integers(-3, 6), lut_bound=st.integers(0, 12).map(float),
           bram_bound=st.integers(0, 6).map(float))
    def test_branch_and_bound_seeds_with_the_greedy_answer(
            self, objective, lut, size_weights, bram_linear, lut_bound, bram_bound):
        # a node limit of zero stops the search at its incumbent, which is
        # the greedy solver's answer when that is feasible, else the base
        problem = two_cache_problem(
            objective, lut, size_weights, bram_linear, lut_bound, bram_bound)
        incumbent = BranchAndBoundSolver(node_limit=0).solve(problem)
        greedy = GreedyIndependentSolver().solve(problem)
        expected = (greedy.selection, greedy.objective) if greedy.feasible else ((), 0.0)
        assert (incumbent.selection, incumbent.objective) == expected
        assert incumbent.feasible and not incumbent.optimal

    def test_budgets_bind(self):
        # the unconstrained optimum (best sets, size and replacement of both
        # caches) breaks both budgets, so the search must trade it away
        objective = [-30.0, -31.0, -32.0, -1.0, -2.0, -3.0, -4.0, -40.0, -5.0, -6.0] * 2
        lut = [1.0] * 20
        problem = two_cache_problem(objective, lut, [4.0] * 20, [1.0] * 20, 3.0, 12.0)
        unconstrained = [min(g, key=lambda i: objective[i]) for g in problem.groups]
        assert {"lut_capacity", "bram_capacity"} <= set(problem.violations(unconstrained))
        bnb = BranchAndBoundSolver().solve(problem)
        exhaustive = ExhaustiveSolver().solve(problem)
        assert (bnb.selection, bnb.objective) == (exhaustive.selection, exhaustive.objective)


class TestSolverBehaviour:
    def test_search_prunes_on_resources(self, platform, drr_small):
        # DRR's unconstrained cache choice overflows BRAM: bounding the
        # bilinear products at every node prunes the cache prefixes early
        model = MicroarchTuner(platform).build_model(drr_small)
        solution = BranchAndBoundSolver().solve(build_problem(model, RUNTIME_OPTIMIZATION))
        assert solution.optimal
        assert solution.nodes_explored <= 150

    def test_no_improving_variable_keeps_the_base(self):
        problem = make_problem([5.0] * 8)
        for solver in (BranchAndBoundSolver(), ExhaustiveSolver(),
                       GreedyIndependentSolver(), RandomSearchSolver(samples=50)):
            solution = solver.solve(problem)
            assert solution.selection == ()
            assert solution.objective == 0.0

    def test_constraint_forces_second_best_choice(self):
        # the most attractive set-size option violates the bilinear budget when
        # combined with extra sets, so the solver must trade one of them away.
        objective = [-10.0, -11.0, -12.0, -1.0, -2.0, -3.0, -4.0, -40.0]
        problem = make_problem(objective, bound=8.0)
        solution = BranchAndBoundSolver().solve(problem)
        exhaustive = ExhaustiveSolver().solve(problem)
        assert solution.objective == pytest.approx(exhaustive.objective)
        assert problem.is_feasible(solution.selection)

    def test_unconstrained_problem_takes_best_of_each_group(self):
        objective = [-1.0, -2.0, -3.0, -10.0, -20.0, -5.0, -6.0, -7.0]
        problem = make_problem(objective, bound=1e9)
        solution = BranchAndBoundSolver().solve(problem)
        labels = {problem.space.variable(i).label for i in solution.selection}
        assert labels == {"dcache_sets=4", "dcache_setsize_kb=2"}

    def test_exhaustive_solver_refuses_huge_problems(self):
        space = PerturbationSpace(leon_parameter_space())
        problem = BinlpProblem(
            space=space,
            objective=tuple(0.0 for _ in range(len(space))),
            groups=tuple(g.variable_indices for g in space.groups),
            linear_constraints=(),
            resource_constraints=(),
            weights=RUNTIME_OPTIMIZATION,
        )
        with pytest.raises(OptimizationError):
            ExhaustiveSolver(max_combinations=10_000).solve(problem)

    def test_node_limit_returns_best_found_or_raises(self):
        objective = [-10.0, -11.0, -12.0, -1.0, -2.0, -3.0, -4.0, -40.0]
        problem = make_problem(objective, bound=8.0)
        solution = BranchAndBoundSolver(node_limit=3).solve(problem)
        # with an absurdly small limit the solver still returns a feasible
        # (possibly empty) selection and reports that it is not proven optimal
        assert problem.is_feasible(solution.selection)
        assert not solution.optimal

    def test_solution_description(self):
        problem = make_problem([-1.0] * 8)
        solution = BranchAndBoundSolver().solve(problem)
        text = solution.describe()
        assert "branch-and-bound" in text and "objective" in text

    def test_linear_constraint_evaluation(self):
        constraint = LinearConstraint("c", {0: 1.0, 1: -1.0}, 0.0)
        assert constraint.satisfied({1})
        assert not constraint.satisfied({0})
        assert constraint.value({0, 1}) == pytest.approx(0.0)

    def test_bilinear_constraint_evaluation(self):
        constraint = BilinearConstraint(
            "b", products=((1.0, {0: 1.0}, {1: 4.0}),), linear={2: 2.0}, bound=7.0)
        assert constraint.value({1}) == pytest.approx(4.0)       # (1 + 0) * 4
        assert constraint.value({0, 1}) == pytest.approx(8.0)    # (1 + 1) * 4
        assert constraint.value({0, 1, 2}) == pytest.approx(10.0)
        assert constraint.satisfied({1}) and not constraint.satisfied({0, 1})
