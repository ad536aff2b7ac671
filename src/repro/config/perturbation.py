"""One-factor perturbation variables (the x_i of the paper's Section 4).

Starting from the base configuration, each non-default parameter value is
a binary decision variable ``x_i``: selecting it means "set this parameter
to this value", leaving it unselected means "keep the default".  Variables
that belong to the same multi-valued parameter form a *group* with an
at-most-one selection constraint (paper, Section 4.2).

The perturbation space is generated programmatically from the parameter
space rather than hard-coded, so the variable count (52 in the paper's
accounting, 53 with our slightly different multiplier bookkeeping -- see
DESIGN.md) is derived and asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.config.configuration import Configuration
from repro.config.parameters import ParameterSpace
from repro.config.rules import check_rules
from repro.errors import ConfigurationError

__all__ = ["PerturbationVariable", "PerturbationGroup", "PerturbationSpace", "Selection"]


@dataclass(frozen=True)
class PerturbationVariable:
    """One binary decision variable: ``parameter := value`` (vs. the default)."""

    index: int
    parameter: str
    value: Any
    default: Any
    subsystem: str

    @property
    def label(self) -> str:
        """Short human-readable label, e.g. ``dcache_setsize_kb=32``."""
        return f"{self.parameter}={self.value}"


@dataclass(frozen=True)
class PerturbationGroup:
    """Variables that perturb the same parameter (at most one may be selected)."""

    parameter: str
    variable_indices: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.variable_indices)


#: A selection is a set/sequence of chosen variable indices.
Selection = Sequence[int]


class PerturbationSpace:
    """All one-factor perturbations of a parameter space's base configuration.

    ``parameters`` restricts the perturbations to a subset of parameters
    (all other parameters stay at their defaults).  This is how the
    paper's Section 5 studies the scaled-down dcache-only design space
    while still producing complete, buildable configurations.
    """

    def __init__(self, space: ParameterSpace, parameters: Iterable[str] | None = None):
        self._space = space
        self._base = Configuration(space, space.defaults())
        allowed = set(parameters) if parameters is not None else None
        if allowed is not None:
            unknown = [name for name in allowed if name not in space]
            if unknown:
                raise ConfigurationError(f"unknown parameters in restriction: {sorted(unknown)}")
        variables: List[PerturbationVariable] = []
        groups: List[PerturbationGroup] = []
        index = 0
        for param in space:
            if allowed is not None and param.name not in allowed:
                continue
            indices: List[int] = []
            for value in param.non_default_values:
                variables.append(
                    PerturbationVariable(
                        index=index,
                        parameter=param.name,
                        value=value,
                        default=param.default,
                        subsystem=param.subsystem,
                    )
                )
                indices.append(index)
                index += 1
            if len(indices) >= 2:
                groups.append(PerturbationGroup(param.name, tuple(indices)))
        self._variables: Tuple[PerturbationVariable, ...] = tuple(variables)
        self._groups: Tuple[PerturbationGroup, ...] = tuple(groups)
        self._by_parameter: Dict[str, Tuple[int, ...]] = {}
        for var in variables:
            self._by_parameter.setdefault(var.parameter, ())
            self._by_parameter[var.parameter] += (var.index,)

    # -- accessors ---------------------------------------------------------------

    @property
    def space(self) -> ParameterSpace:
        return self._space

    @property
    def base(self) -> Configuration:
        """The base configuration all perturbations start from."""
        return self._base

    @property
    def variables(self) -> Tuple[PerturbationVariable, ...]:
        return self._variables

    @property
    def groups(self) -> Tuple[PerturbationGroup, ...]:
        """At-most-one groups (multi-valued parameters only)."""
        return self._groups

    def __len__(self) -> int:
        return len(self._variables)

    def __iter__(self) -> Iterator[PerturbationVariable]:
        return iter(self._variables)

    def variable(self, index: int) -> PerturbationVariable:
        try:
            return self._variables[index]
        except IndexError:
            raise ConfigurationError(f"no perturbation variable with index {index}") from None

    def variables_for(self, parameter: str) -> Tuple[PerturbationVariable, ...]:
        """All variables perturbing ``parameter`` (may be empty)."""
        return tuple(self._variables[i] for i in self._by_parameter.get(parameter, ()))

    def find(self, parameter: str, value: Any) -> PerturbationVariable:
        """The variable setting ``parameter`` to ``value``."""
        for var in self.variables_for(parameter):
            if var.value == value:
                return var
        raise ConfigurationError(
            f"no perturbation variable for {parameter}={value!r} "
            f"(is it the default value, or out of domain?)"
        )

    # -- selections --------------------------------------------------------------------

    def validate_selection(self, selection: Selection) -> Tuple[int, ...]:
        """Check group constraints and return the selection as a sorted tuple."""
        chosen = sorted(set(int(i) for i in selection))
        for i in chosen:
            if not 0 <= i < len(self._variables):
                raise ConfigurationError(f"selection references unknown variable {i}")
        per_param: Dict[str, List[int]] = {}
        for i in chosen:
            per_param.setdefault(self._variables[i].parameter, []).append(i)
        conflicts = {p: idx for p, idx in per_param.items() if len(idx) > 1}
        if conflicts:
            raise ConfigurationError(
                "selection picks more than one value for parameter(s): "
                + ", ".join(
                    f"{p} ({[self._variables[i].label for i in idx]})"
                    for p, idx in conflicts.items()
                )
            )
        return tuple(chosen)

    def apply(self, selection: Selection, *, validate_rules: bool = False) -> Configuration:
        """The configuration obtained by applying the selected perturbations.

        With ``validate_rules=True`` the LEON coupling rules are checked and
        a :class:`~repro.errors.ConfigurationError` is raised on violation
        (the optimizer encodes these rules as constraints instead, so it
        never produces violating selections).
        """
        chosen = self.validate_selection(selection)
        changes = {self._variables[i].parameter: self._variables[i].value for i in chosen}
        config = self._base.replace(**changes)
        if validate_rules:
            violations = check_rules(config)
            if violations:
                raise ConfigurationError(
                    "selection produces an invalid configuration: "
                    + "; ".join(str(v) for v in violations)
                )
        return config

    def single(self, index: int) -> Configuration:
        """The configuration with only variable ``index`` applied."""
        return self.apply((index,))

    def iter_single_configurations(self) -> Iterator[Tuple[PerturbationVariable, Configuration]]:
        """Iterate ``(variable, configuration)`` for every one-factor perturbation."""
        for var in self._variables:
            yield var, self.single(var.index)
