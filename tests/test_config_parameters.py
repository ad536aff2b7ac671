"""Tests for repro.config.parameters and the LEON parameter space."""

import math

import pytest

from repro.config.parameters import Parameter, ParameterSpace, Subsystem
from repro.config.leon_space import (
    CACHE_SET_SIZES_KB,
    Multiplier,
    Replacement,
    leon_parameter_space,
)
from repro.errors import ConfigurationError


class TestParameter:
    def test_basic_properties(self):
        p = Parameter("x", (1, 2, 3), 2, Subsystem.DCACHE, "test")
        assert p.cardinality == 3
        assert p.non_default_values == (1, 3)
        assert not p.is_binary()
        assert p.index_of(3) == 2

    def test_binary_parameter(self):
        p = Parameter("flag", (True, False), True, Subsystem.SYNTHESIS)
        assert p.is_binary()
        assert p.non_default_values == (False,)

    def test_validate_accepts_domain_values(self):
        p = Parameter("x", (1, 2), 1)
        assert p.validate(2) == 2

    def test_validate_rejects_out_of_domain(self):
        p = Parameter("x", (1, 2), 1)
        with pytest.raises(ConfigurationError):
            p.validate(3)

    def test_empty_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            Parameter("x", (), 1)

    def test_default_must_be_in_domain(self):
        with pytest.raises(ConfigurationError):
            Parameter("x", (1, 2), 3)

    def test_duplicate_values_rejected(self):
        with pytest.raises(ConfigurationError):
            Parameter("x", (1, 1, 2), 1)

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(ConfigurationError):
            Parameter("x", (1, 2), 1, subsystem="gpu")


class TestParameterSpace:
    def test_duplicate_names_rejected(self):
        p = Parameter("x", (1, 2), 1)
        with pytest.raises(ConfigurationError):
            ParameterSpace((p, p))

    def test_lookup_and_contains(self, space):
        assert "dcache_setsize_kb" in space
        assert space["dcache_setsize_kb"].default == 4
        with pytest.raises(ConfigurationError):
            space["nonexistent"]

    def test_defaults_cover_all_parameters(self, space):
        defaults = space.defaults()
        assert set(defaults) == set(space.names)

    def test_exhaustive_size_is_product_of_cardinalities(self, space):
        assert space.exhaustive_size() == math.prod(p.cardinality for p in space)

    def test_subset_preserves_order(self, space):
        sub = space.subset(["dcache_setsize_kb", "dcache_sets"])
        assert sub.names == ("dcache_sets", "dcache_setsize_kb")

    def test_subset_unknown_parameter(self, space):
        with pytest.raises(ConfigurationError):
            space.subset(["bogus"])


class TestLeonSpace:
    def test_paper_parameter_inventory(self, space):
        # the subsystems of the paper's Figure 1
        assert len(space.by_subsystem(Subsystem.ICACHE)) == 4
        assert len(space.by_subsystem(Subsystem.DCACHE)) == 6
        assert len(space.by_subsystem(Subsystem.INTEGER_UNIT)) == 7
        assert len(space.by_subsystem(Subsystem.SYNTHESIS)) == 1

    def test_64kb_setsize_excluded(self, space):
        assert 64 not in CACHE_SET_SIZES_KB
        assert 64 not in space["dcache_setsize_kb"].values

    def test_defaults_match_paper_figure1(self, space):
        defaults = space.defaults()
        assert defaults["icache_sets"] == 1
        assert defaults["icache_setsize_kb"] == 4
        assert defaults["icache_linesize_words"] == 8
        assert defaults["icache_replacement"] == Replacement.RANDOM
        assert defaults["dcache_fast_read"] is False
        assert defaults["fast_jump"] is True
        assert defaults["load_delay"] == 1
        assert defaults["register_windows"] == 8
        assert defaults["multiplier"] == Multiplier.M16X16
        assert defaults["divider"] == "radix2"
        assert defaults["infer_mult_div"] is True

    def test_perturbation_count_matches_paper_order_of_magnitude(self, space):
        # the paper counts 52 variables; our programmatically derived space has 53
        assert space.perturbation_count() == 53

    def test_exhaustive_size_is_intractable(self, space):
        # hundreds of millions of configurations: exhaustive search is infeasible
        assert space.exhaustive_size() > 10**8

    def test_register_window_domain(self, space):
        values = space["register_windows"].values
        assert values[0] == 8
        assert values[1:] == tuple(range(16, 33))
