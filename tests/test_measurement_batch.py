"""A measurement batch's columns == the per-configuration oracles, bit for bit.

:meth:`LiquidPlatform.measure_many` returns a
:class:`~repro.platform.measurement.MeasurementBatch`: the batch's
synthesis, timing and deltas are array operations over its configuration
columns, and a :class:`Measurement` is built only for a row a caller
reads.  Over configurations drawn from the whole LEON space these tests
hold every column to the scalar oracles -- ``reference_synthesis.py``
for resources and fit, ``reference_timing.py`` for cycles, the cycle
breakdown and the window traps, and the scalar percent and delta
formulas of :class:`~repro.fpga.report.ResourceReport` and
:class:`Measurement` -- and every row to the oracle's record.
"""

import numpy as np
from hypothesis import given, settings

from conftest import config_grid_strategy
from reference_synthesis import synthesize_reference
from reference_timing import reference_measurements
from repro.config import ConfigurationColumns
from repro.core.campaign import OneFactorCampaign
from repro.engine import ResultStore
from repro.fpga.report import BRAM_COMPONENTS, LUT_COMPONENTS
from repro.microarch.timing import BREAKDOWN_CATEGORIES, TIMING_COLUMNS
from repro.platform import LiquidPlatform, MeasurementBatch


def column(values):
    """A batch column as Python numbers, for exact comparison."""
    return np.asarray(values).tolist()


def assert_python_numbers(measurement):
    """Every number of a row is a Python int or float, never a NumPy scalar."""
    resources, statistics = measurement.resources, measurement.statistics
    ints = (resources.luts, resources.brams, *resources.lut_breakdown.values(),
            *resources.bram_breakdown.values(), statistics.cycles,
            statistics.instruction_count, *statistics.cycle_breakdown.values(),
            statistics.window_overflows, statistics.window_underflows)
    assert all(type(number) is int for number in ints)
    assert type(measurement.lut_percent) is float
    assert type(measurement.bram_percent) is float


@given(configs=config_grid_strategy(min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_every_column_equals_the_oracles(arith_small, configs):
    batch = LiquidPlatform(enforce_fit=False).measure_many(arith_small, configs)
    reference = reference_measurements(arith_small, configs)
    assert isinstance(batch, MeasurementBatch) and len(batch) == len(configs)
    assert batch.configurations == tuple(configs)

    # timing: cycles, the full breakdown and the window traps
    statistics = [m.statistics for m in reference]
    assert column(batch.cycles) == [s.cycles for s in statistics]
    assert column(batch.breakdown) == [list(s.cycle_breakdown.values()) for s in statistics]
    assert list(BREAKDOWN_CATEGORIES) == list(statistics[0].cycle_breakdown)
    assert column(batch.window_overflows) == [s.window_overflows for s in statistics]
    assert column(batch.window_underflows) == [s.window_underflows for s in statistics]
    assert column(batch.timing) == [
        [*s.cycle_breakdown.values(), s.window_overflows, s.window_underflows]
        for s in statistics]
    assert batch.timing.shape == (len(configs), len(TIMING_COLUMNS))
    assert list(batch.icache) == [s.icache for s in statistics]
    assert list(batch.dcache) == [s.dcache for s in statistics]

    # synthesis: counts, both breakdowns and fit, against the scalar model
    reports = [synthesize_reference(config) for config in configs]
    assert reports == [m.resources for m in reference]
    assert column(batch.luts) == [r.luts for r in reports]
    assert column(batch.brams) == [r.brams for r in reports]
    assert column(batch.lut_breakdown) == [list(r.lut_breakdown.values()) for r in reports]
    assert column(batch.bram_breakdown) == [list(r.bram_breakdown.values()) for r in reports]
    assert [list(r.lut_breakdown) for r in reports] == [list(LUT_COMPONENTS)] * len(reports)
    assert [list(r.bram_breakdown) for r in reports] == [list(BRAM_COMPONENTS)] * len(reports)
    assert column(batch.fits) == [r.fits() for r in reports]

    # percentages: the scalar formulas, bit for bit
    assert column(batch.lut_percent) == [r.lut_percent for r in reports]
    assert column(batch.bram_percent) == [r.bram_percent for r in reports]

    # rows: the oracle's records, plain Python numbers, equal wire records
    encoder = ResultStore()
    for i, expected in enumerate(reference):
        row = batch[i]
        assert row == expected
        assert_python_numbers(row)
        assert repr(row.statistics.cycle_breakdown) == repr(expected.statistics.cycle_breakdown)
        assert encoder.encode(arith_small, row) == encoder.encode(arith_small, expected)
    assert batch == reference and reference == batch
    assert list(batch[1:]) == reference[1:]
    encoder.close()


@given(configs=config_grid_strategy(min_size=2, max_size=8))
@settings(max_examples=25, deadline=None)
def test_deltas_are_the_scalar_formulas(arith_small, configs):
    """rho/lambda/beta as column differences == ``Measurement.delta`` per row."""
    batch = LiquidPlatform(enforce_fit=False).measure_many(arith_small, configs)
    reference = reference_measurements(arith_small, configs)
    deltas = OneFactorCampaign._deltas(batch)
    assert list(deltas) == [m.delta(reference[0]) for m in reference[1:]]
    assert all(type(value) is float
               for delta in deltas for value in (delta.rho, delta.lam, delta.beta))


def test_rho_is_zero_when_the_base_runs_no_cycles(arith_small, base_config):
    """The one guarded division: a base of zero cycles gives rho = 0."""
    configs = [base_config, base_config.replace(dcache_sets=2),
               base_config.replace(multiplier="m32x32")]
    measured = LiquidPlatform().measure_many(arith_small, configs)
    timing = measured.timing.copy()
    timing[0] = 0
    batch = MeasurementBatch(
        measured.workload, measured.configurations, measured.device, measured.resources,
        measured.instruction_count, timing, measured.icache, measured.dcache)
    assert batch.cycles[0] == 0
    deltas = OneFactorCampaign._deltas(batch)
    assert [d.rho for d in deltas] == [0.0, 0.0]
    assert list(deltas) == [row.delta(batch[0]) for row in batch[1:]]


def test_column_batches_slice_and_take(base_config):
    configs = [base_config, base_config.replace(dcache_sets=3, multiplier="none"),
               base_config.replace(icache_replacement="lru", register_windows=24)]
    columns = ConfigurationColumns(configs)
    assert list(columns) == configs and len(columns) == 3
    assert column(columns.column("dcache_sets")) == [1, 3, 1]
    assert column(columns.column("register_windows")) == [8, 8, 24]
    assert list(columns[1:]) == configs[1:]
    assert column(columns[1:].column("dcache_sets")) == [3, 1]
    taken = columns.take([2, 0])
    assert list(taken) == [configs[2], configs[0]]
    assert column(taken.column("icache_replacement")) == [2, 0]  # Replacement.ALL order
    assert len(ConfigurationColumns([])) == 0


def test_duplicates_and_order_follow_the_request(arith_small, base_config):
    other = base_config.replace(dcache_sets=2)
    batch = LiquidPlatform().measure_many(arith_small, [other, base_config, other])
    assert batch.configurations == (other, base_config, other)
    assert batch[0] == batch[2] != batch[1]
    assert column(batch.cycles)[0] == column(batch.cycles)[2]
