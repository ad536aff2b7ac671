"""Immutable microarchitecture configurations.

A :class:`Configuration` is a full assignment of every parameter in a
:class:`~repro.config.parameters.ParameterSpace`.  Configurations are
hashable and therefore usable as memoisation keys by the measurement
platform (the real Liquid Architecture platform caches bitstreams the same
way).

A batch of configurations is read once into integer columns
(:class:`ConfigurationColumns`): the synthesis model, the cache planner
and the timing model each compute their terms as array operations over
those columns instead of walking every configuration.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.config.parameters import ParameterSpace
from repro.config.leon_space import Divider, Multiplier, Replacement, leon_parameter_space
from repro.errors import ConfigurationError

__all__ = ["Configuration", "ConfigurationColumns", "SYMBOLS", "base_configuration",
           "configuration_columns"]


class Configuration(Mapping[str, Any]):
    """A complete, validated assignment of a parameter space.

    The object behaves like a read-only mapping from parameter name to
    value and additionally exposes attribute-style access
    (``cfg.dcache_setsize_kb``) for readability in the simulator and
    synthesis model.
    """

    __slots__ = ("_space", "_values", "_key", "_hash")

    def __init__(self, space: ParameterSpace, values: Mapping[str, Any]):
        assignment: Dict[str, Any] = {}
        unknown = [name for name in values if name not in space]
        if unknown:
            raise ConfigurationError(f"unknown parameters: {sorted(unknown)}")
        for param in space:
            if param.name not in values:
                raise ConfigurationError(f"missing value for parameter {param.name!r}")
            assignment[param.name] = param.validate(values[param.name])
        self._space = space
        self._values = assignment
        self._key: Tuple[Tuple[str, Any], ...] = tuple(sorted(assignment.items()))
        # configurations are memo keys throughout the platform and engine;
        # tuple hashing is O(parameters), so cache it once at construction
        self._hash = hash(self._key)

    # -- mapping protocol ---------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise ConfigurationError(f"unknown parameter {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getattr__(self, name: str) -> Any:
        # __getattr__ is only called when normal lookup fails, so the
        # slots above are unaffected.
        values = object.__getattribute__(self, "_values")
        if name in values:
            return values[name]
        raise AttributeError(name)

    # -- identity -----------------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        diffs = self.diff(Configuration(self._space, self._space.defaults()))
        if not diffs:
            return "Configuration(<base>)"
        inner = ", ".join(f"{k}={v!r}" for k, (_, v) in sorted(diffs.items()))
        return f"Configuration({inner})"

    # -- accessors ------------------------------------------------------------------

    @property
    def space(self) -> ParameterSpace:
        """The parameter space this configuration belongs to."""
        return self._space

    def as_dict(self) -> Dict[str, Any]:
        """A plain mutable copy of the assignment."""
        return dict(self._values)

    def key(self) -> Tuple[Tuple[str, Any], ...]:
        """A canonical hashable key (used for memoisation and sorting)."""
        return self._key

    # -- derived configurations ---------------------------------------------------------

    def replace(self, **changes: Any) -> "Configuration":
        """A new configuration with the given parameters changed."""
        values = dict(self._values)
        values.update(changes)
        return Configuration(self._space, values)

    def diff(self, other: "Configuration") -> Dict[str, Tuple[Any, Any]]:
        """Parameters on which ``self`` and ``other`` differ.

        Returns a mapping ``name -> (other_value, self_value)``; the
        ordering matches the reporting convention of the paper's Figures 5
        and 7 ("Base" column first, application column second).
        """
        if other._space is not self._space and other._space.names != self._space.names:
            raise ConfigurationError("cannot diff configurations from different spaces")
        out: Dict[str, Tuple[Any, Any]] = {}
        for name, value in self._values.items():
            if other._values[name] != value:
                out[name] = (other._values[name], value)
        return out

    def is_base(self) -> bool:
        """True when every parameter is at its default value."""
        return all(self._values[p.name] == p.default for p in self._space)


def base_configuration(space: ParameterSpace | None = None) -> Configuration:
    """The out-of-the-box LEON configuration the paper calls the *base*.

    When ``space`` is omitted, the full LEON space of Figure 1 is used.
    """
    space = space if space is not None else leon_parameter_space()
    return Configuration(space, space.defaults())


#: Symbolic parameters: a column holds each value's index in its tuple here.
SYMBOLS: Dict[str, Tuple[str, ...]] = {
    "icache_replacement": Replacement.ALL,
    "dcache_replacement": Replacement.ALL,
    "divider": Divider.ALL,
    "multiplier": Multiplier.ALL,
}

#: The parameters a column batch holds, in LEON space order.
_COLUMN_NAMES: Tuple[str, ...] = tuple(p.name for p in leon_parameter_space())
_COLUMN_INDEX: Dict[str, int] = {name: i for i, name in enumerate(_COLUMN_NAMES)}
_COLUMN_VALUES = itemgetter(*_COLUMN_NAMES)
_SYMBOL_CODES: List[Tuple[int, Dict[str, int]]] = [
    (_COLUMN_INDEX[name], {value: code for code, value in enumerate(values)})
    for name, values in SYMBOLS.items()]


class ConfigurationColumns(Sequence[Configuration]):
    """A batch of LEON configurations read once into integer columns.

    The batch is a sequence of its configurations; :meth:`column` is one
    parameter's values over the batch as an ``int64`` array (booleans
    are 0/1, and the parameters of :data:`SYMBOLS` hold the index of
    their value).  A slice or :meth:`take` selects rows without reading
    any configuration again.
    """

    __slots__ = ("configurations", "_matrix")

    def __init__(self, configurations: Iterable[Configuration]):
        self.configurations: Tuple[Configuration, ...] = tuple(configurations)
        columns = list(zip(*[_COLUMN_VALUES(c._values) for c in self.configurations]))
        if not columns:
            self._matrix = np.empty((len(_COLUMN_NAMES), 0), dtype=np.int64)
            return
        for index, codes in _SYMBOL_CODES:
            columns[index] = list(map(codes.__getitem__, columns[index]))
        self._matrix = np.array(columns, dtype=np.int64)

    @classmethod
    def _from_matrix(cls, configurations: Tuple[Configuration, ...],
                     matrix: np.ndarray) -> "ConfigurationColumns":
        batch = cls.__new__(cls)
        batch.configurations = configurations
        batch._matrix = matrix
        return batch

    def column(self, name: str) -> np.ndarray:
        """The values of parameter ``name`` over the batch."""
        return self._matrix[_COLUMN_INDEX[name]]

    def take(self, indices: Sequence[int]) -> "ConfigurationColumns":
        """The batch of the rows at ``indices``, in that order."""
        configurations = self.configurations
        return self._from_matrix(tuple(configurations[i] for i in indices),
                                 self._matrix[:, np.asarray(indices, dtype=np.intp)])

    def __len__(self) -> int:
        return len(self.configurations)

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self.configurations)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return self._from_matrix(self.configurations[index], self._matrix[:, index])
        return self.configurations[index]


def configuration_columns(
    configs: Union[ConfigurationColumns, Iterable[Configuration]]
) -> ConfigurationColumns:
    """``configs`` as a column batch, read only if it is not one already."""
    if isinstance(configs, ConfigurationColumns):
        return configs
    return ConfigurationColumns(configs)
