"""Constrained Binary Integer Nonlinear Program (BINLP) formulation.

This module reproduces Section 4 of the paper.  Each perturbation
variable x_i is binary; the objective minimises
``sum_i [w1 * rho_i + w2 * (lambda_i + beta_i)] * x_i``; the constraints
are:

* *parameter validity*: at most one variable per multi-valued parameter
  group (``sum_{i in group} x_i <= 1``);
* *LEON coupling rules*: LRR replacement requires the 2-set variable of
  the same cache (``x_LRR - x_2sets <= 0``) and LRU requires some
  multi-set variable (``x_LRU - sum_sets x_i <= 0``);
* *FPGA resources*: the LUT and BRAM deltas of the selection must fit in
  the headroom left by the base configuration, where the cache terms are
  *bilinear*: the set-count group multiplies the set-size group
  (``(1 + x1 + 2 x2 + 3 x3) * sum_i beta_i x_i``).  Following the paper,
  the LUT constraint is kept linear by default because LUT variation is
  minimal; the BRAM constraint is nonlinear.

The problem object is solver agnostic: it can evaluate the objective and
check feasibility of any selection, which is all the solvers in
:mod:`repro.core.solvers` need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.config.perturbation import PerturbationSpace, Selection
from repro.errors import OptimizationError
from repro.core.model import CostModel
from repro.core.weights import Weights

__all__ = ["LinearConstraint", "BilinearConstraint", "BinlpProblem", "build_problem"]


@dataclass(frozen=True)
class LinearConstraint:
    """``sum_i coefficients[i] * x_i <= bound``."""

    name: str
    coefficients: Mapping[int, float]
    bound: float

    def value(self, chosen: frozenset[int] | set[int]) -> float:
        return sum(c for i, c in self.coefficients.items() if i in chosen)

    def satisfied(self, chosen: frozenset[int] | set[int], tolerance: float = 1e-9) -> bool:
        return self.value(chosen) <= self.bound + tolerance


@dataclass(frozen=True)
class BilinearConstraint:
    """``sum_products (a0 + sum a_i x_i) * (sum b_j x_j) + sum_i linear_i x_i <= bound``.

    This is the exact shape of the paper's FPGA resource constraints: one
    product per cache (set-count factor times set-size deltas) plus linear
    terms for every other variable.
    """

    name: str
    products: Tuple[Tuple[float, Mapping[int, float], Mapping[int, float]], ...]
    linear: Mapping[int, float]
    bound: float

    def value(self, chosen: frozenset[int] | set[int]) -> float:
        total = sum(c for i, c in self.linear.items() if i in chosen)
        for constant, factor_a, factor_b in self.products:
            a = constant + sum(c for i, c in factor_a.items() if i in chosen)
            b = sum(c for i, c in factor_b.items() if i in chosen)
            total += a * b
        return total

    def satisfied(self, chosen: frozenset[int] | set[int], tolerance: float = 1e-9) -> bool:
        return self.value(chosen) <= self.bound + tolerance


@dataclass
class BinlpProblem:
    """A complete problem instance over one workload's cost model."""

    space: PerturbationSpace
    objective: Tuple[float, ...]
    groups: Tuple[Tuple[int, ...], ...]
    linear_constraints: Tuple[LinearConstraint, ...]
    resource_constraints: Tuple[BilinearConstraint, ...]
    weights: Weights
    name: str = "binlp"

    def __post_init__(self) -> None:
        if len(self.objective) != len(self.space):
            raise OptimizationError("objective length does not match the variable count")

    @property
    def variable_count(self) -> int:
        return len(self.objective)

    # -- evaluation ---------------------------------------------------------------------------

    def objective_value(self, selection: Selection) -> float:
        chosen = self.space.validate_selection(selection)
        return sum(self.objective[i] for i in chosen)

    def violations(self, selection: Selection) -> List[str]:
        """Names of all constraints violated by ``selection`` (group rules included)."""
        chosen = set(self.space.validate_selection(selection))
        out: List[str] = []
        for group in self.groups:
            if sum(1 for i in group if i in chosen) > 1:
                out.append(f"group:{self.space.variable(group[0]).parameter}")
        for constraint in self.linear_constraints:
            if not constraint.satisfied(chosen):
                out.append(constraint.name)
        for constraint in self.resource_constraints:
            if not constraint.satisfied(chosen):
                out.append(constraint.name)
        return out

    def is_feasible(self, selection: Selection) -> bool:
        return not self.violations(selection)


def _cache_products(
    model: CostModel, values: Dict[int, float]
) -> Tuple[Tuple[float, Mapping[int, float], Mapping[int, float]], ...]:
    """The per-cache bilinear products of the paper's resource constraints."""
    groups = model.cache_group_indices()
    products = []
    for cache in ("icache", "dcache"):
        sets_idx = groups[f"{cache}_sets"]
        size_idx = groups[f"{cache}_setsize"]
        if not size_idx:
            continue
        factor_a = {index: float(position + 1) for position, index in enumerate(sets_idx)}
        factor_b = {i: values[i] for i in size_idx}
        products.append((1.0, factor_a, factor_b))
    return tuple(products)


def _coupling_constraints(space: PerturbationSpace) -> List[LinearConstraint]:
    """LRR/LRU coupling rules as linear constraints (when the variables exist)."""
    constraints: List[LinearConstraint] = []
    for cache in ("icache", "dcache"):
        sets_vars = {v.value: v.index for v in space.variables_for(f"{cache}_sets")}
        repl_vars = {v.value: v.index for v in space.variables_for(f"{cache}_replacement")}
        if "lrr" in repl_vars and 2 in sets_vars:
            constraints.append(LinearConstraint(
                name=f"{cache}_lrr_requires_2_sets",
                coefficients={repl_vars["lrr"]: 1.0, sets_vars[2]: -1.0},
                bound=0.0,
            ))
        elif "lrr" in repl_vars:
            # no 2-set variable available: LRR can never be selected
            constraints.append(LinearConstraint(
                name=f"{cache}_lrr_unavailable",
                coefficients={repl_vars["lrr"]: 1.0},
                bound=0.0,
            ))
        if "lru" in repl_vars:
            coefficients: Dict[int, float] = {repl_vars["lru"]: 1.0}
            for value, index in sets_vars.items():
                if value >= 2:
                    coefficients[index] = -1.0
            # with no multi-set variable in the space this reads lru <= 0:
            # LRU is unavailable
            constraints.append(LinearConstraint(
                name=f"{cache}_lru_requires_multiway",
                coefficients=coefficients,
                bound=0.0,
            ))
    return constraints


def build_problem(
    model: CostModel,
    weights: Weights,
    *,
    lut_nonlinear: bool = False,
    bram_nonlinear: bool = True,
    name: str = "",
) -> BinlpProblem:
    """Build the paper's BINLP from a measured cost model and weights.

    ``lut_nonlinear`` / ``bram_nonlinear`` select whether the cache terms
    of the corresponding resource constraint use the bilinear product
    form; the paper keeps LUTs linear ("variation in LUTs utilisation is
    very minimal") and BRAM nonlinear, and Section 6 analyses the effect
    of that simplification -- our ablation benchmark does the same.
    """
    space = model.space
    objective = tuple(
        weights.objective_coefficient(d.rho, d.lam, d.beta) for d in model.deltas)
    groups = tuple(g.variable_indices for g in space.groups)

    lam = {i: model.deltas[i].lam for i in range(len(space))}
    beta = {i: model.deltas[i].beta for i in range(len(space))}
    size_indices = set(
        model.cache_group_indices()["icache_setsize"]
        + model.cache_group_indices()["dcache_setsize"])

    def resource_constraint(label: str, values: Dict[int, float], bound: float,
                            nonlinear: bool) -> BilinearConstraint:
        if nonlinear:
            products = _cache_products(model, values)
            linear = {i: v for i, v in values.items() if i not in size_indices}
        else:
            products = ()
            linear = dict(values)
        return BilinearConstraint(name=label, products=products, linear=linear, bound=bound)

    constraints = (
        resource_constraint("lut_capacity", lam, model.lut_headroom, lut_nonlinear),
        resource_constraint("bram_capacity", beta, model.bram_headroom, bram_nonlinear),
    )
    return BinlpProblem(
        space=space,
        objective=objective,
        groups=groups,
        linear_constraints=tuple(_coupling_constraints(space)),
        resource_constraints=constraints,
        weights=weights,
        name=name or f"{model.workload}:{weights.describe()}",
    )
