"""Tests for the one-factor perturbation space (the paper's x_i variables)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PerturbationSpace, check_rules, leon_parameter_space
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def pspace():
    return PerturbationSpace(leon_parameter_space())


class TestPerturbationSpace:
    def test_variable_count_matches_space(self, pspace, space):
        assert len(pspace) == space.perturbation_count() == 53

    def test_groups_only_for_multivalued_parameters(self, pspace):
        group_params = {g.parameter for g in pspace.groups}
        assert "dcache_setsize_kb" in group_params
        assert "register_windows" in group_params
        assert "multiplier" in group_params
        # binary parameters have a single non-default value: no group needed
        assert "fast_jump" not in group_params
        assert "dcache_fast_read" not in group_params

    def test_every_variable_has_non_default_value(self, pspace):
        for var in pspace:
            assert var.value != var.default
            assert var.label == f"{var.parameter}={var.value}"

    def test_find_and_variables_for(self, pspace):
        var = pspace.find("dcache_setsize_kb", 32)
        assert var.value == 32
        assert var in pspace.variables_for("dcache_setsize_kb")
        with pytest.raises(ConfigurationError):
            pspace.find("dcache_setsize_kb", 4)  # default value has no variable

    def test_single_configuration_differs_in_one_parameter(self, pspace):
        for var, config in pspace.iter_single_configurations():
            diff = config.diff(pspace.base)
            assert set(diff) == {var.parameter}
            assert diff[var.parameter][1] == var.value

    def test_apply_empty_selection_is_base(self, pspace):
        assert pspace.apply(()) == pspace.base

    def test_apply_rejects_two_values_of_same_parameter(self, pspace):
        group = next(g for g in pspace.groups if len(g) >= 2)
        with pytest.raises(ConfigurationError):
            pspace.apply(group.variable_indices[:2])

    def test_apply_rejects_unknown_index(self, pspace):
        with pytest.raises(ConfigurationError):
            pspace.apply((10_000,))

    def test_validate_rules_flag(self, pspace):
        lrr = pspace.find("dcache_replacement", "lrr").index
        # without rule validation the configuration is produced
        config = pspace.apply((lrr,))
        assert config.dcache_replacement == "lrr"
        with pytest.raises(ConfigurationError):
            pspace.apply((lrr,), validate_rules=True)

    def test_restricted_space(self):
        restricted = PerturbationSpace(
            leon_parameter_space(), ["dcache_sets", "dcache_setsize_kb"])
        params = {v.parameter for v in restricted}
        assert params == {"dcache_sets", "dcache_setsize_kb"}
        assert len(restricted) == 3 + 5

    def test_restricted_space_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            PerturbationSpace(leon_parameter_space(), ["bogus"])


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_random_group_respecting_selection_is_applicable(data):
    """Any selection with at most one variable per parameter yields a configuration
    that differs from the base exactly on the selected parameters."""
    pspace = PerturbationSpace(leon_parameter_space())
    by_param = {}
    for var in pspace:
        by_param.setdefault(var.parameter, []).append(var.index)
    selection = []
    for parameter, indices in by_param.items():
        choice = data.draw(st.sampled_from([None] + indices), label=parameter)
        if choice is not None:
            selection.append(choice)
    config = pspace.apply(selection)
    assert set(config.diff(pspace.base)) == {pspace.variable(i).parameter for i in selection}
