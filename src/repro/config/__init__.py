"""Design-space definition: parameters, configurations, validity rules, perturbations."""

from repro.config.parameters import Parameter, ParameterSpace, Subsystem
from repro.config.leon_space import (
    Divider,
    Multiplier,
    Replacement,
    leon_parameter_space,
    CACHE_SET_COUNTS,
    CACHE_SET_SIZES_KB,
    CACHE_LINE_SIZES_WORDS,
    REGISTER_WINDOW_COUNTS,
)
from repro.config.configuration import (
    Configuration,
    ConfigurationColumns,
    base_configuration,
    configuration_columns,
)
from repro.config.rules import (
    RuleViolation,
    ValidityRule,
    check_rules,
    leon_rules,
    require_valid,
)
from repro.config.perturbation import (
    PerturbationGroup,
    PerturbationSpace,
    PerturbationVariable,
    Selection,
)

__all__ = [
    "Parameter",
    "ParameterSpace",
    "Subsystem",
    "Divider",
    "Multiplier",
    "Replacement",
    "leon_parameter_space",
    "CACHE_SET_COUNTS",
    "CACHE_SET_SIZES_KB",
    "CACHE_LINE_SIZES_WORDS",
    "REGISTER_WINDOW_COUNTS",
    "Configuration",
    "ConfigurationColumns",
    "base_configuration",
    "configuration_columns",
    "RuleViolation",
    "ValidityRule",
    "check_rules",
    "leon_rules",
    "require_valid",
    "PerturbationGroup",
    "PerturbationSpace",
    "PerturbationVariable",
    "Selection",
]
