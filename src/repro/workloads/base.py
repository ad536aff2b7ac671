"""Workload abstractions.

A workload is one of the paper's benchmark applications: it knows how to
build its program (via the assembler DSL), how to generate its synthetic
input data, what results the program is expected to produce (computed
independently in Python) and how to extract those results from a finished
simulation for verification.

The functional execution of a workload is configuration independent, so
the resulting :class:`~repro.microarch.trace.ExecutionTrace` is cached on
the workload instance and shared by every configuration evaluation -- this
is what makes the measurement campaign cheap enough to run hundreds of
configuration evaluations.

The trace is moreover a pure function of the constructor arguments, the
instruction budget, the simulator's semantics and the package's code.
:meth:`Workload.input_key` digests exactly those inputs, so a result
store that has seen a workload once can name its trace fingerprint
without assembling or simulating it again
(:meth:`Workload.adopt_fingerprint`).
"""

from __future__ import annotations

import hashlib
import inspect
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import TraceIdentityError, VerificationError
from repro.isa.program import Program
from repro.microarch.functional import (
    SIMULATOR_VERSION,
    FunctionalSimulator,
    SimulationResult,
)
from repro.microarch.trace import ExecutionTrace

__all__ = ["CODE_DIGEST", "Workload"]


def _code_digest() -> str:
    """sha1 over every source file of the ``repro`` package, path and text.

    The C simulation library's source is a Python string in
    ``microarch/native.py``, so it is covered too.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha1()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


#: Digest of the package's code.  Any edit moves every
#: :meth:`Workload.input_key`, so a store never answers an input key with a
#: trace that other code produced.  It is taken at import, once per process,
#: so that it digests the code this process loaded, not files edited while a
#: long-running process (the service) was up.
CODE_DIGEST = _code_digest()

#: Argument types an input key accepts; anything else leaves a workload
#: without one.
_PLAIN = (bool, int, float, str, type(None))


def _plain_arguments(signature: inspect.Signature, args: Tuple, kwargs: Dict[str, Any]
                     ) -> Optional[Tuple[Tuple[str, Any], ...]]:
    """A constructor call's arguments by name, defaults applied.

    Keyword arguments forwarded through ``**kwargs`` are flattened in name
    order, except ``max_instructions``, which the key reads from the
    instance.  ``None`` when the call does not bind or any argument is
    not a plain scalar or string.
    """
    try:
        bound = signature.bind(None, *args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    items = []
    for name, value in list(bound.arguments.items())[1:]:
        if signature.parameters[name].kind is inspect.Parameter.VAR_KEYWORD:
            items.extend(sorted(item for item in value.items()
                                if item[0] != "max_instructions"))
        else:
            items.append((name, value))
    if any(type(value) not in _PLAIN for _, value in items):
        return None
    return tuple(items)


class Workload(ABC):
    """One benchmark application with synthetic inputs and a reference output.

    A workload's inputs are fixed at construction: its program, data and
    instruction budget follow from its constructor arguments (and the
    package's code) alone, and must not change afterwards.
    :meth:`input_key` relies on this to name the trace without building
    the program.
    """

    #: Short identifier used in tables (e.g. ``"blastn"``).
    name: str = "workload"
    #: One-line description for reports.
    description: str = ""
    #: The paper's characterisation ("memory-access intensive", "computation intensive").
    characterization: str = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # CODE_DIGEST covers this package's code only, so a class defined
        # elsewhere could change its program without moving its key: it has none
        in_package = cls.__module__.partition(".")[0] == __name__.partition(".")[0]
        cls._init_signature = inspect.signature(cls.__init__) if in_package else None

    def __new__(cls, *args: Any, **kwargs: Any) -> "Workload":
        # the most-derived constructor's arguments, captured before any
        # __init__ runs, so no subclass lists what its inputs are
        self = super().__new__(cls)
        signature = cls._init_signature
        self._arguments = (None if signature is None
                           else _plain_arguments(signature, args, kwargs))
        return self

    def __init__(self, *, max_instructions: int = 2_000_000):
        self.max_instructions = max_instructions
        self._program: Optional[Program] = None
        self._result: Optional[SimulationResult] = None
        self._fingerprint: Optional[str] = None
        #: Whether :attr:`_fingerprint` was adopted from a store's input-key
        #: row and still awaits its check against the simulated trace.
        self._fingerprint_adopted = False
        self._input_key: Optional[str] = None

    # -- to be provided by concrete workloads -----------------------------------------

    @abstractmethod
    def build_program(self) -> Program:
        """Assemble the workload program (called once and cached)."""

    @abstractmethod
    def reference(self) -> Mapping[str, int]:
        """Expected observable results, computed independently in Python."""

    @abstractmethod
    def extract_results(self, result: SimulationResult) -> Mapping[str, int]:
        """Observable results of a finished simulation (same keys as :meth:`reference`)."""

    # -- cached execution -----------------------------------------------------------------

    @property
    def program(self) -> Program:
        """The assembled program (built lazily, cached)."""
        if self._program is None:
            self._program = self.build_program()
        return self._program

    def run_functional(self, *, force: bool = False) -> SimulationResult:
        """Execute the workload functionally (cached across calls)."""
        if self._result is None or force:
            simulator = FunctionalSimulator(self.program, max_instructions=self.max_instructions)
            self._result = simulator.run(trace_name=self.name)
            if self._fingerprint_adopted:
                self._check_adopted(self._result.trace)
        return self._result

    def has_trace(self) -> bool:
        """True when the trace is in memory, so :meth:`trace` will not simulate."""
        return self._result is not None

    def has_fingerprint(self) -> bool:
        """True once :meth:`fingerprint` is known (computed or adopted)."""
        return self._fingerprint is not None

    def trace(self) -> ExecutionTrace:
        """The configuration-independent execution trace of this workload."""
        return self.run_functional().trace

    def columnar_view(self, kind: str, linesize_bytes: int):
        """Cached columnar cache-kernel view of this workload's trace.

        Delegates to :meth:`ExecutionTrace.columnar_view
        <repro.microarch.trace.ExecutionTrace.columnar_view>`; the view is
        cached on the trace, so every cache geometry sharing a line size
        replays one decode.
        """
        return self.trace().columnar_view(kind, linesize_bytes)

    def input_key(self) -> Optional[str]:
        """Digest of this workload's inputs, or ``None`` if they are not plain.

        Covers the workload class and name, its constructor arguments as
        bound to the most-derived ``__init__`` (defaults applied, so
        positional, keyword and default spellings agree), the instruction
        budget, :data:`~repro.microarch.functional.SIMULATOR_VERSION`,
        NumPy's version (the inputs are drawn from its generators) and
        :data:`CODE_DIGEST`.  Inputs being fixed at construction, equal
        keys assemble equal programs, so a store maps the key to the
        trace fingerprint and a hit never builds :attr:`program`.  A
        workload with an argument that is not a plain scalar or string,
        or whose class is defined outside this package, has no key and is
        identified by simulating it.
        """
        if self._input_key is None and self._arguments is not None:
            digest = hashlib.sha1()
            for part in (type(self).__module__, type(self).__qualname__, self.name,
                         repr(self._arguments), str(self.max_instructions),
                         str(SIMULATOR_VERSION), np.__version__, CODE_DIGEST):
                digest.update(part.encode())
                digest.update(b"\0")
            self._input_key = f"input:{digest.hexdigest()}"
        return self._input_key

    def fingerprint(self) -> str:
        """Content digest identifying this workload's execution trace.

        Measurement memoisation and the persistent result store key on
        this instead of :attr:`name`, so two same-named workloads with
        different inputs (e.g. a scaled-down test variant) can never
        alias each other's results.
        """
        if self._fingerprint is None:
            self._fingerprint = self._trace_fingerprint(self.trace())
        return self._fingerprint

    def adopt_fingerprint(self, fingerprint: str) -> None:
        """Take the fingerprint a result store recorded for :meth:`input_key`.

        The workload then keys store lookups without simulating.  The
        adopted value is checked against the real trace as soon as one
        exists -- right away if the workload was already simulated,
        otherwise when it is -- and a mismatch raises
        :class:`~repro.errors.TraceIdentityError`.
        """
        self._fingerprint = fingerprint
        self._fingerprint_adopted = True
        if self.has_trace():
            self._check_adopted(self.trace())

    def _check_adopted(self, trace: ExecutionTrace) -> None:
        adopted, actual = self._fingerprint, self._trace_fingerprint(trace)
        # from here on the workload answers with its real identity
        self._fingerprint, self._fingerprint_adopted = actual, False
        if actual != adopted:
            raise TraceIdentityError(
                f"{self.name}: the store's input-key row names trace "
                f"{adopted}, but the simulator produced {actual}; the row is corrupt "
                "or the trace semantics changed without a SIMULATOR_VERSION bump")

    def _trace_fingerprint(self, trace: ExecutionTrace) -> str:
        digest = hashlib.sha1()
        for array in (trace.pcs, trace.op_classes, trace.mem_addrs,
                      trace.load_use_hazard, trace.cc_branch_hazard,
                      trace.window_events):
            digest.update(np.ascontiguousarray(array).tobytes())
        return f"{self.name}:{trace.instruction_count}:{digest.hexdigest()[:16]}"

    # -- verification ------------------------------------------------------------------------

    def verify(self, result: Optional[SimulationResult] = None) -> Dict[str, int]:
        """Check the simulation results against the Python reference.

        Returns the extracted results on success and raises
        :class:`~repro.errors.VerificationError` on the first mismatch.
        """
        result = result or self.run_functional()
        expected = dict(self.reference())
        actual = dict(self.extract_results(result))
        for key, value in expected.items():
            if key not in actual:
                raise VerificationError(f"{self.name}: result {key!r} missing from simulation")
            if actual[key] != value:
                raise VerificationError(
                    f"{self.name}: result {key!r} mismatch: expected {value}, got {actual[key]}")
        return actual

    # -- reporting ------------------------------------------------------------------------------

    def mix_summary(self) -> Dict[str, float]:
        """Instruction-mix characterisation of the workload."""
        return self.trace().mix_summary()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
