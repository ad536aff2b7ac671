"""repro: reproduction of "Automatic Application-Specific Microarchitecture Reconfiguration".

The package re-implements, in pure Python, the complete system of
Padmanabhan et al. (IPPS 2006): a LEON2-like soft-core processor
simulator with the reconfigurable microarchitecture of the paper's
Figure 1, an analytic FPGA synthesis cost model of the Virtex XCV2000E, a
black-box build-and-measure platform, the paper's four benchmarks and --
the contribution itself -- the linear one-factor measurement campaign and
constrained Binary Integer Nonlinear Program that recommends an
application-specific processor configuration.

Quickstart
----------
>>> from repro import LiquidPlatform, MicroarchTuner, RUNTIME_OPTIMIZATION
>>> from repro.workloads import ArithWorkload
>>> tuner = MicroarchTuner(LiquidPlatform())
>>> result = tuner.tune(ArithWorkload(iterations=500), RUNTIME_OPTIMIZATION)
>>> sorted(result.changed_parameters())  # doctest: +SKIP
['divider', 'icache_setsize_kb', ...]
"""

from repro.config import (
    Configuration,
    PerturbationSpace,
    base_configuration,
    leon_parameter_space,
)
from repro.core import (
    RESOURCE_OPTIMIZATION,
    RUNTIME_ONLY,
    RUNTIME_OPTIMIZATION,
    BranchAndBoundSolver,
    ExhaustiveSolver,
    MicroarchTuner,
    OneFactorCampaign,
    TuningResult,
    Weights,
    build_problem,
)
from repro.engine import ResultStore
from repro.fpga import SynthesisModel, XCV2000E
from repro.obs import EngineStats
from repro.platform import LiquidPlatform, Measurement

__version__ = "1.0.0"

__all__ = [
    "Configuration",
    "PerturbationSpace",
    "base_configuration",
    "leon_parameter_space",
    "RESOURCE_OPTIMIZATION",
    "RUNTIME_ONLY",
    "RUNTIME_OPTIMIZATION",
    "BranchAndBoundSolver",
    "ExhaustiveSolver",
    "MicroarchTuner",
    "OneFactorCampaign",
    "TuningResult",
    "Weights",
    "build_problem",
    "SynthesisModel",
    "XCV2000E",
    "LiquidPlatform",
    "Measurement",
    "EngineStats",
    "ResultStore",
    "__version__",
]
