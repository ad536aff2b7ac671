"""Parameter and parameter-space abstractions.

The paper (Figure 1) describes the reconfigurable microarchitecture of the
LEON2 soft core as a set of *parameters*, each with a finite value domain
and a default ("out of the box") value.  This module provides the generic
machinery: :class:`Parameter` describes one reconfigurable knob and
:class:`ParameterSpace` is an ordered collection of parameters with helpers
for enumeration, neighbourhood generation and size accounting.

The concrete LEON parameter space of the paper lives in
:mod:`repro.config.leon_space`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, Tuple

from repro.errors import ConfigurationError

__all__ = ["Parameter", "ParameterSpace", "Subsystem"]


class Subsystem:
    """Symbolic names for the processor subsystems a parameter belongs to."""

    ICACHE = "icache"
    DCACHE = "dcache"
    INTEGER_UNIT = "iu"
    SYNTHESIS = "synthesis"

    ALL: Tuple[str, ...] = (ICACHE, DCACHE, INTEGER_UNIT, SYNTHESIS)


@dataclass(frozen=True)
class Parameter:
    """One reconfigurable microarchitecture parameter.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"dcache_setsize_kb"``.
    values:
        The finite, ordered value domain.  Values may be integers, strings
        or booleans; they are compared with ``==`` and must be hashable.
    default:
        The out-of-the-box value.  Must be a member of ``values``.
    subsystem:
        One of :class:`Subsystem`'s constants; used for grouping in
        reports and in the synthesis cost model.
    description:
        Human readable description used in generated tables.
    """

    name: str
    values: Tuple[Any, ...]
    default: Any
    subsystem: str = Subsystem.INTEGER_UNIT
    description: str = ""

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError(f"parameter {self.name!r} has an empty domain")
        if len(set(self.values)) != len(self.values):
            raise ConfigurationError(
                f"parameter {self.name!r} has duplicate values: {self.values!r}"
            )
        if self.default not in self.values:
            raise ConfigurationError(
                f"default {self.default!r} of parameter {self.name!r} is not in its "
                f"domain {self.values!r}"
            )
        if self.subsystem not in Subsystem.ALL:
            raise ConfigurationError(
                f"unknown subsystem {self.subsystem!r} for parameter {self.name!r}"
            )

    # -- queries -----------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of values in the domain."""
        return len(self.values)

    @property
    def non_default_values(self) -> Tuple[Any, ...]:
        """All values except the default, preserving domain order."""
        return tuple(v for v in self.values if v != self.default)

    def validate(self, value: Any) -> Any:
        """Return ``value`` if it belongs to the domain, raise otherwise."""
        if value not in self.values:
            raise ConfigurationError(
                f"value {value!r} is not a legal value of parameter {self.name!r}; "
                f"legal values are {self.values!r}"
            )
        return value

    def index_of(self, value: Any) -> int:
        """Position of ``value`` in the domain (used for stable ordering)."""
        self.validate(value)
        return self.values.index(value)

    def is_binary(self) -> bool:
        """True when the parameter has exactly two values (an on/off knob)."""
        return len(self.values) == 2


@dataclass
class ParameterSpace:
    """An ordered collection of :class:`Parameter` objects.

    The space knows how large exhaustive exploration would be
    (:meth:`exhaustive_size`) and how many one-factor perturbations exist
    (:meth:`perturbation_count`), which is the quantity the paper's
    approach is linear in.
    """

    parameters: Tuple[Parameter, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate parameter names in space: {names}")
        self._by_name: Dict[str, Parameter] = {p.name: p for p in self.parameters}

    # -- container protocol --------------------------------------------------------

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self.parameters)

    def __len__(self) -> int:
        return len(self.parameters)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown parameter {name!r}") from None

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    # -- construction helpers -------------------------------------------------------

    def defaults(self) -> Dict[str, Any]:
        """Mapping of parameter name to default value (the base configuration)."""
        return {p.name: p.default for p in self.parameters}

    def by_subsystem(self, subsystem: str) -> Tuple[Parameter, ...]:
        """All parameters belonging to ``subsystem``."""
        return tuple(p for p in self.parameters if p.subsystem == subsystem)

    def subset(self, names: Iterable[str]) -> "ParameterSpace":
        """A new space containing only the named parameters (order preserved)."""
        wanted = list(names)
        missing = [n for n in wanted if n not in self._by_name]
        if missing:
            raise ConfigurationError(f"unknown parameters in subset: {missing}")
        return ParameterSpace(tuple(p for p in self.parameters if p.name in wanted))

    # -- size accounting -------------------------------------------------------------

    def exhaustive_size(self) -> int:
        """Number of configurations in the full cross-product of all domains."""
        return math.prod(p.cardinality for p in self.parameters) if self.parameters else 0

    def perturbation_count(self) -> int:
        """Number of one-factor-at-a-time perturbations from the base configuration.

        This is the number of processor builds the paper's campaign
        requires (52 in the paper's Figure 1 accounting); the naive
        exhaustive campaign would require :meth:`exhaustive_size` builds.
        """
        return sum(len(p.non_default_values) for p in self.parameters)

    def value_count(self) -> int:
        """Total number of parameter values across all domains."""
        return sum(p.cardinality for p in self.parameters)
