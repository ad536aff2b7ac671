"""Shared fixtures and randomized-trace strategies for the test suite.

The fixtures provide scaled-down workloads (fast functional simulation)
and a shared measurement platform so that expensive campaign runs are
memoised across tests within a session.

The hypothesis strategies below are the single source of randomized
cache geometries and address/write-mix traces, shared by the cache
property suites (``test_cache.py``, ``test_cache_vectorized.py``,
``test_crossconfig_replay.py``, ``test_warm_replay.py``): every suite
drives the same trace shapes, so a kernel change that survives one suite
cannot dodge the others on distribution differences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.config import Replacement, base_configuration, leon_parameter_space
from repro.isa.program import Program
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload, BlastnWorkload, DrrWorkload, FragWorkload
from repro.workloads.base import Workload

# -- randomized cache geometries and traces (hypothesis strategies) ------------------------

#: Way counts exercised by the set-associative property suites.
SET_ASSOCIATIVE_WAYS = (2, 3, 4)
#: Way counts of the full kernel space (direct mapped included).
ALL_WAYS = (1, 2, 3, 4)


def geometry_strategy(ways=ALL_WAYS):
    """Cache geometries: ways x {1,2,4} KB x {4,8}-word lines x all policies.

    ``ways`` restricts the associativity (pass ``(1,)`` for the
    direct-mapped corner, :data:`SET_ASSOCIATIVE_WAYS` for the
    set-associative cases).  Small way sizes force conflicts, evictions
    and policy decisions on the small traces below.
    """
    return st.fixed_dictionaries({
        "ways": st.sampled_from(list(ways)),
        "setsize_kb": st.sampled_from([1, 2, 4]),
        "linesize_words": st.sampled_from([4, 8]),
        "replacement": st.sampled_from(sorted(Replacement.ALL)),
    })


def trace_strategy(max_address=1 << 10, max_size=400):
    """Mixed read/write traces: lists of ``(word_address, is_write)``.

    The default address space is deliberately small so traces collide in
    the small geometries above; pass a larger ``max_address`` to stress
    tag widths instead of conflicts.
    """
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=max_address), st.booleans()),
        min_size=0, max_size=max_size,
    )


def address_strategy(max_address=1 << 14, max_size=400, min_size=1):
    """Read-only address traces (the instruction-fetch shape)."""
    return st.lists(
        st.integers(min_value=0, max_value=max_address),
        min_size=min_size, max_size=max_size,
    )


def configuration_strategy():
    """Random full-space configurations (perturbations of the base).

    Draws a random subset of parameters and a random value for each, so
    grids exercise every timing-relevant knob: cache geometries and
    policies, the pipeline flags, window counts and the multiplier /
    divider implementations.  Buildability (device fit) is deliberately
    not enforced -- timing-model properties hold for any configuration.
    """
    space = leon_parameter_space()
    base = base_configuration(space)
    return st.fixed_dictionaries(
        {},
        optional={p.name: st.sampled_from(list(p.values)) for p in space},
    ).map(lambda changes: base.replace(**changes))


def config_grid_strategy(min_size=1, max_size=6):
    """Configuration grids (duplicates allowed) for sweep property tests."""
    return st.lists(configuration_strategy(), min_size=min_size, max_size=max_size)


def window_events_strategy(max_size=200):
    """Random SAVE(+1)/RESTORE(-1) streams, unbalanced streams included."""
    return st.lists(
        st.sampled_from([1, -1]), min_size=0, max_size=max_size,
    ).map(lambda events: np.asarray(events, dtype=np.int8))


def assert_states_equal(state, other):
    """Two ``reference_replay.KernelState`` objects agree bit for bit:
    tags, ages, FIFO pointers, tick and RANDOM stream position."""
    np.testing.assert_array_equal(state.tags, other.tags)
    np.testing.assert_array_equal(state.age, other.age)
    np.testing.assert_array_equal(state.fifo, other.fifo)
    assert state.tick == other.tick
    assert state.rng.bit_generator.state == other.rng.bit_generator.state


class ProgramWorkload(Workload):
    """A workload around one assembled program, with nothing to verify.

    Lets a test measure an ad-hoc program through
    :meth:`LiquidPlatform.measure <repro.platform.LiquidPlatform.measure>`,
    the one measurement path; the workload (and trace) name is the
    program's.
    """

    def __init__(self, program: Program, **kwargs):
        super().__init__(**kwargs)
        self.name = program.name
        self._given_program = program

    def build_program(self) -> Program:
        return self._given_program

    def reference(self):
        return {}

    def extract_results(self, result):
        return {}


def to_arrays(trace):
    """Split a ``(word_address, is_write)`` trace into byte-address/write arrays."""
    addresses = np.asarray([a for a, _ in trace], dtype=np.int64) * 4  # word aligned
    writes = np.asarray([w for _, w in trace], dtype=bool)
    return addresses, writes


@pytest.fixture(scope="session")
def space():
    return leon_parameter_space()


@pytest.fixture(scope="session")
def base_config():
    return base_configuration()


@pytest.fixture(scope="session")
def platform():
    return LiquidPlatform()


@pytest.fixture(scope="session")
def arith_small():
    return ArithWorkload(iterations=200)


@pytest.fixture(scope="session")
def blastn_small():
    return BlastnWorkload(database_length=1200, query_length=48, query_count=1)


@pytest.fixture(scope="session")
def drr_small():
    return DrrWorkload(packet_count=150)


@pytest.fixture(scope="session")
def frag_small():
    return FragWorkload(packet_count=4)


@pytest.fixture(scope="session")
def small_workload_map(arith_small, blastn_small, drr_small, frag_small):
    return {
        "arith": arith_small,
        "blastn": blastn_small,
        "drr": drr_small,
        "frag": frag_small,
    }
