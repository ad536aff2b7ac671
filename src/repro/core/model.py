"""The one-factor cost model (rho/lambda/beta deltas per perturbation).

The measurement campaign produces, for every perturbation variable x_i,
the runtime delta ``rho_i`` (percent of the base runtime), the LUT delta
``lambda_i`` and the BRAM delta ``beta_i`` (percentage points of the
device capacity), all relative to the base configuration.  The cost
model stores these together with the base measurement and provides the
*approximations* the optimizer uses to predict the cost of combined
configurations under the parameter-independence assumption:

* runtime and linear resource predictions simply add the deltas;
* the nonlinear resource prediction reproduces the paper's cache
  coupling, where the number-of-sets group multiplies the set-size group
  (Section 4.2, "FPGA Resource Constraints").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.config.perturbation import PerturbationSpace, Selection
from repro.errors import OptimizationError
from repro.platform.measurement import CostDelta, Measurement

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Measured one-factor deltas plus the base measurement for one workload."""

    workload: str
    space: PerturbationSpace
    base: Measurement
    deltas: Tuple[CostDelta, ...]
    measurements: Tuple[Measurement, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.deltas) != len(self.space):
            raise OptimizationError(
                f"cost model has {len(self.deltas)} deltas for {len(self.space)} variables")

    # -- element access ------------------------------------------------------------------

    def delta(self, index: int) -> CostDelta:
        return self.deltas[index]

    def measurement(self, index: int) -> Measurement:
        if not self.measurements:
            raise OptimizationError("this cost model was built without raw measurements")
        return self.measurements[index]

    def rho(self) -> Tuple[float, ...]:
        """Runtime deltas (percent) for all variables, in index order."""
        return tuple(d.rho for d in self.deltas)

    def lam(self) -> Tuple[float, ...]:
        return tuple(d.lam for d in self.deltas)

    def beta(self) -> Tuple[float, ...]:
        return tuple(d.beta for d in self.deltas)

    # -- headroom (the paper's L and B) -------------------------------------------------------

    @property
    def lut_headroom(self) -> float:
        """Percentage points of LUTs left after the base configuration (the paper's L)."""
        return 100.0 - self.base.lut_percent

    @property
    def bram_headroom(self) -> float:
        """Percentage points of BRAM left after the base configuration (the paper's B)."""
        return 100.0 - self.base.bram_percent

    # -- cache group bookkeeping ------------------------------------------------------------------

    def _group_indices(self, parameter: str) -> Tuple[int, ...]:
        return tuple(v.index for v in self.space.variables_for(parameter))

    def cache_group_indices(self) -> Dict[str, Tuple[int, ...]]:
        """Variable indices of the four cache-structure groups (may be empty)."""
        return {
            "icache_sets": self._group_indices("icache_sets"),
            "icache_setsize": self._group_indices("icache_setsize_kb"),
            "dcache_sets": self._group_indices("dcache_sets"),
            "dcache_setsize": self._group_indices("dcache_setsize_kb"),
        }

    # -- predictions (the optimizer's approximations) ----------------------------------------------

    def predict_runtime_percent(self, selection: Selection) -> float:
        """Predicted runtime change in percent (sum of rho over the selection)."""
        chosen = self.space.validate_selection(selection)
        return sum(self.deltas[i].rho for i in chosen)

    def predict_runtime_cycles(self, selection: Selection) -> float:
        """Predicted absolute runtime in cycles."""
        return self.base.cycles * (1.0 + self.predict_runtime_percent(selection) / 100.0)

    def _sets_multiplier(self, chosen: Sequence[int], sets_indices: Tuple[int, ...]) -> float:
        """The paper's ``(1 + x1 + 2 x2 + 3 x3)`` factor for one cache."""
        factor = 1.0
        for position, index in enumerate(sets_indices):
            if index in chosen:
                factor += position + 1
        return factor

    def _predict_resource(self, selection: Selection, attribute: str, nonlinear: bool) -> float:
        chosen = set(self.space.validate_selection(selection))
        base_value = getattr(self.base, attribute)
        values = {i: getattr(self.deltas[i], "lam" if attribute == "lut_percent" else "beta")
                  for i in range(len(self.space))}
        if not nonlinear:
            return base_value + sum(values[i] for i in chosen)
        groups = self.cache_group_indices()
        total = base_value
        nonlinear_handled: set[int] = set()
        for cache in ("icache", "dcache"):
            sets_idx = groups[f"{cache}_sets"]
            size_idx = groups[f"{cache}_setsize"]
            multiplier = self._sets_multiplier(tuple(chosen), sets_idx)
            size_term = sum(values[i] for i in size_idx if i in chosen)
            total += multiplier * size_term
            nonlinear_handled.update(size_idx)
        total += sum(values[i] for i in chosen if i not in nonlinear_handled)
        return total

    def predict_lut_percent(self, selection: Selection, *, nonlinear: bool = False) -> float:
        """Predicted LUT utilisation; the paper keeps this linear by default."""
        return self._predict_resource(selection, "lut_percent", nonlinear)

    def predict_bram_percent(self, selection: Selection, *, nonlinear: bool = True) -> float:
        """Predicted BRAM utilisation; the paper keeps this nonlinear by default."""
        return self._predict_resource(selection, "bram_percent", nonlinear)

