"""Tests for the FPGA device model and the analytic synthesis cost model.

The model synthesises batches; these tests read one configuration's
report from a batch of one (``synthesize``), and the per-configuration
oracle of ``reference_synthesis.py`` checks the geometry helpers.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_synthesis import CacheGeometry
from repro.config import base_configuration
from repro.errors import ResourceError
from repro.fpga import FpgaDevice, ResourceReport, SynthesisModel, XCV2000E


@pytest.fixture(scope="module")
def model():
    return SynthesisModel()


def synthesize(model, config):
    """The report of one configuration: row 0 of a batch of one."""
    return ResourceReport.from_row(model.device, model.synthesize([config])[0].tolist())


class TestDevice:
    def test_xcv2000e_capacities(self):
        assert XCV2000E.luts == 38_400
        assert XCV2000E.brams == 160

    def test_percentages(self):
        assert XCV2000E.lut_percent(19_200) == pytest.approx(50.0)
        assert XCV2000E.bram_percent(80) == pytest.approx(50.0)

    def test_fits_and_headroom(self):
        assert XCV2000E.fits(38_400, 160)
        assert not XCV2000E.fits(38_401, 0)
        # elementwise over a batch's LUT and BRAM columns
        assert XCV2000E.fits(np.array([38_400, 38_401, 10]),
                             np.array([160, 0, 161])).tolist() == [True, False, False]
        assert XCV2000E.headroom(14_992, 82) == (23_408, 78)

    def test_invalid_device(self):
        with pytest.raises(ResourceError):
            FpgaDevice("broken", 0, 10)


class TestResourceReport:
    def test_chip_cost_is_sum_of_percentages(self):
        report = ResourceReport(XCV2000E, 19_200, 80)
        assert report.chip_cost == pytest.approx(100.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ResourceError):
            ResourceReport(XCV2000E, -1, 0)

    def test_require_fits(self):
        too_big = ResourceReport(XCV2000E, 100_000, 10)
        with pytest.raises(ResourceError):
            too_big.require_fits()
        ok = ResourceReport(XCV2000E, 10, 10)
        assert ok.require_fits() is ok

    def test_delta_percent(self):
        base = ResourceReport(XCV2000E, 14_992, 82)
        other = ResourceReport(XCV2000E, 14_992, 145)
        delta = other.delta_percent(base)
        assert delta["lut"] == pytest.approx(0.0)
        assert delta["bram"] == pytest.approx(100.0 * 63 / 160)


class TestCalibration:
    """The model is calibrated against the paper's reported utilisations."""

    def test_base_configuration_matches_paper(self, model, base_config):
        report = synthesize(model, base_config)
        assert report.luts == 14_992           # paper Section 2.4
        assert report.brams == 82              # paper Section 2.4
        assert round(report.lut_percent) == 39
        assert round(report.bram_percent) == 51

    @pytest.mark.parametrize("sets,size,expected_bram_percent", [
        (1, 1, 47), (1, 2, 48), (1, 4, 51), (1, 8, 56), (1, 16, 68), (1, 32, 90),
        (2, 16, 90), (3, 8, 79), (4, 8, 90),
    ])
    def test_figure2_bram_column(self, model, base_config, sets, size, expected_bram_percent):
        """The dcache sweep BRAM percentages match the paper's Figure 2 within 1 point."""
        report = synthesize(
            model, base_config.replace(dcache_sets=sets, dcache_setsize_kb=size))
        assert report.bram_percent == pytest.approx(expected_bram_percent, abs=1.0)

    def test_divider_removal_saves_about_two_points_of_luts(self, model, base_config):
        base = synthesize(model, base_config)
        no_div = synthesize(model, base_config.replace(divider="none"))
        saving = base.lut_percent - no_div.lut_percent
        assert 1.0 <= saving <= 3.0            # paper Figure 6: 39% -> 37%

    def test_m32x32_multiplier_costs_about_one_point(self, model, base_config):
        base = synthesize(model, base_config)
        big = synthesize(model, base_config.replace(multiplier="m32x32"))
        assert 0.5 <= big.lut_percent - base.lut_percent <= 2.0

    def test_breakdowns_sum_to_totals(self, model, base_config):
        report = synthesize(model, base_config.replace(dcache_sets=3, multiplier="m32x16"))
        assert sum(report.lut_breakdown.values()) == report.luts
        assert sum(report.bram_breakdown.values()) == report.brams

    def test_64kb_would_not_fit_with_associativity(self, model, base_config):
        # the paper excludes 64 KB because it exceeds the available BRAM;
        # our domain omits it, but the model shows the same wall at 4x32 KB + big icache
        config = base_config.replace(dcache_sets=4, dcache_setsize_kb=32,
                                     icache_sets=4, icache_setsize_kb=32)
        assert not synthesize(model, config).fits()


class TestMonotonicity:
    def test_bram_monotone_in_cache_size(self, model, base_config):
        previous = -1
        for size in (1, 2, 4, 8, 16, 32):
            brams = synthesize(model, base_config.replace(dcache_setsize_kb=size)).brams
            assert brams > previous
            previous = brams

    def test_bram_monotone_in_associativity(self, model, base_config):
        previous = -1
        for sets in (1, 2, 3, 4):
            brams = synthesize(model, base_config.replace(dcache_sets=sets)).brams
            assert brams >= previous
            previous = brams

    def test_luts_monotone_in_multiplier_size(self, model, base_config):
        order = ["none", "iterative", "m16x16", "m16x16_pipe", "m32x8", "m32x16", "m32x32"]
        previous = -1
        for multiplier in order:
            luts = synthesize(model, base_config.replace(multiplier=multiplier)).luts
            assert luts > previous
            previous = luts

    def test_register_windows_increase_bram_and_luts(self, model, base_config):
        small = synthesize(model, base_config)
        big = synthesize(model, base_config.replace(register_windows=32))
        assert big.brams > small.brams
        assert big.luts > small.luts

    @settings(max_examples=40, deadline=None)
    @given(sets=st.sampled_from([1, 2, 3, 4]), size=st.sampled_from([1, 2, 4, 8, 16, 32]),
           line=st.sampled_from([4, 8]))
    def test_cache_brams_cover_capacity(self, model, sets, size, line):
        """The BRAM count of a cache is always at least its data capacity."""
        geometry = CacheGeometry(sets, size, line)
        assert model.cache_brams(sets, size, line) * 512 >= geometry.total_bytes

    def test_cache_geometry_properties(self):
        geometry = CacheGeometry(2, 4, 8)
        assert geometry.total_bytes == 8192
        assert geometry.linesize_bytes == 32
        assert geometry.lines_per_set == 128
        assert geometry.total_lines == 256
