"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from simulation or
optimisation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid microarchitecture configuration was constructed or requested.

    Raised for out-of-domain parameter values, violations of the LEON
    coupling rules (e.g. LRR replacement with a direct-mapped cache) and
    malformed perturbation selections.
    """


class ResourceError(ReproError):
    """A configuration does not fit on the target FPGA device."""


class AssemblyError(ReproError):
    """A program could not be assembled (unknown label, bad operand, ...)."""


class SimulationError(ReproError):
    """The functional or timing simulator encountered an unrecoverable fault.

    Examples: executing past the end of the program, unaligned memory
    access, division by zero in the guest program, exceeding the
    instruction budget.
    """


class ReplayKernelError(ReproError):
    """The compiled simulation library could not be built, loaded or called.

    The library holds the functional simulator's interpreter loop and the
    cache replay loop.  Raised when no C compiler is on ``PATH``, when
    compilation fails, when the build cache directory is unsafe, or when
    the arrays handed to it do not have the layout the C code requires.
    """


class VerificationError(ReproError):
    """A workload produced results that do not match its reference output."""


class TraceIdentityError(ReproError):
    """A workload's simulated trace contradicts the fingerprint a store recorded.

    Raised when a workload whose fingerprint was resolved from a result
    store's input-key row is simulated and the real trace digests
    differently: the row is corrupt, or the simulator's semantics changed
    without a ``SIMULATOR_VERSION`` bump.  Rows keyed on the recorded
    fingerprint are not served.
    """


class OptimizationError(ReproError):
    """The BINLP formulation or one of the solvers failed.

    Raised when a problem is infeasible, when a solver is asked to solve a
    problem shape it does not support, or when a solution fails
    verification against the problem constraints.
    """


class MeasurementError(ReproError):
    """The measurement platform failed to build or profile a configuration."""


class StoreFormatError(ReproError):
    """A result-store path holds something this version cannot read.

    Raised for a file that is not a SQLite database, for a store written
    in an older layout (per-configuration ``measurements`` records), and
    for a path whose extension selects no store backend.  Stores are
    never migrated silently: the message names the file and says how to
    start over.
    """
