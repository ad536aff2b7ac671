"""The one-factor-at-a-time measurement campaign (Section 3 of the paper).

Starting from the base configuration, every perturbation variable's
configuration is built and the application is executed on it; the
resulting rho/lambda/beta deltas populate a :class:`~repro.core.model.CostModel`.
The number of builds is *linear* in the number of parameter values
(52-ish for the full LEON space) instead of the ~3.6 billion exhaustive
configurations -- this is the feasibility/scalability argument of the
paper, and :meth:`OneFactorCampaign.effort` exposes the actual counts so
the scalability benchmark can report them.

The campaign submits the base configuration and every perturbation as
**one batch** per workload through the backend's
:meth:`~repro.engine.backend.EvaluationBackend.measure_many`, so the
underlying simulations are deduplicated, share their trace decodes and
are timed in one broadcast evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config.configuration import Configuration
from repro.config.leon_space import leon_parameter_space
from repro.config.parameters import ParameterSpace
from repro.config.perturbation import PerturbationSpace, PerturbationVariable
from repro.errors import MeasurementError
from repro.engine.backend import EvaluationBackend
from repro.platform.measurement import CostDelta, Measurement
from repro.core.model import CostModel
from repro.workloads.base import Workload

__all__ = ["OneFactorCampaign", "CampaignRecord"]


@dataclass(frozen=True)
class CampaignRecord:
    """One measured perturbation (kept for the per-variable cost tables)."""

    index: int
    label: str
    configuration: Configuration
    measurement: Measurement
    delta: CostDelta


class OneFactorCampaign:
    """Runs the linear measurement campaign for one or more workloads."""

    def __init__(
        self,
        platform: EvaluationBackend,
        parameter_space: Optional[ParameterSpace] = None,
    ):
        self.platform = platform
        self.parameter_space = parameter_space or leon_parameter_space()
        self._records: List[CampaignRecord] = []

    # -- planning --------------------------------------------------------------------------

    def _plan(
        self,
        *,
        parameters: Optional[Iterable[str]] = None,
        perturbation_space: Optional[PerturbationSpace] = None,
    ) -> Tuple[PerturbationSpace, List[PerturbationVariable], List[Configuration]]:
        """The batch of configurations one campaign run needs, base first.

        Every perturbation is screened with the backend's (memoised)
        :meth:`fits` before anything is measured: the paper excludes
        unbuildable values a priori (e.g. a 64 KB set size), and with the
        default LEON space every perturbation fits.
        """
        space = perturbation_space or PerturbationSpace(self.parameter_space, parameters)
        variables: List[PerturbationVariable] = []
        configurations: List[Configuration] = [space.base]
        for variable, configuration in space.iter_single_configurations():
            if not self.platform.fits(configuration):
                raise MeasurementError(
                    f"perturbation {variable.label} does not fit on the device; "
                    f"exclude the value from the parameter space")
            variables.append(variable)
            configurations.append(configuration)
        return space, variables, configurations

    @staticmethod
    def _assemble(
        workload: Workload,
        space: PerturbationSpace,
        variables: List[PerturbationVariable],
        measurements: List[Measurement],
    ) -> Tuple[CostModel, List[CampaignRecord]]:
        base_measurement, perturbed = measurements[0], measurements[1:]
        deltas: List[CostDelta] = []
        records: List[CampaignRecord] = []
        for variable, measurement in zip(variables, perturbed):
            delta = measurement.delta(base_measurement)
            deltas.append(delta)
            records.append(CampaignRecord(
                index=variable.index,
                label=variable.label,
                configuration=measurement.configuration,
                measurement=measurement,
                delta=delta,
            ))
        model = CostModel(
            workload=workload.name,
            space=space,
            base=base_measurement,
            deltas=tuple(deltas),
            measurements=tuple(perturbed),
        )
        return model, records

    # -- execution -------------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        *,
        parameters: Optional[Iterable[str]] = None,
        perturbation_space: Optional[PerturbationSpace] = None,
    ) -> CostModel:
        """Measure the base configuration and every one-factor perturbation.

        ``parameters`` restricts the campaign to a parameter subset (the
        dcache-only study of the paper's Section 5); alternatively a
        pre-built ``perturbation_space`` can be supplied.
        """
        space, variables, configurations = self._plan(
            parameters=parameters, perturbation_space=perturbation_space)
        measurements = self.platform.measure_many(workload, configurations)
        model, records = self._assemble(workload, space, variables, measurements)
        self._records = records
        return model

    def run_many(
        self,
        workloads: Iterable[Workload],
        *,
        parameters: Optional[Iterable[str]] = None,
    ) -> Dict[str, CostModel]:
        """Run the campaign for several workloads, one batch per workload.

        The perturbation space is planned (and fit-screened) once for all
        of them.  Results are keyed by workload name; :attr:`records`
        afterwards holds the records of the *last* workload in iteration
        order (matching repeated :meth:`run` calls).
        """
        space, variables, configurations = self._plan(parameters=parameters)
        models: Dict[str, CostModel] = {}
        for workload in workloads:
            model, records = self._assemble(
                workload, space, variables,
                self.platform.measure_many(workload, configurations))
            models[workload.name] = model
            self._records = records
        return models

    # -- reporting ------------------------------------------------------------------------------

    @property
    def records(self) -> Tuple[CampaignRecord, ...]:
        """Records of the most recent campaign run."""
        return tuple(self._records)

    def effort(self) -> Dict[str, int]:
        """Distinct builds and profiling runs performed by the platform so far."""
        return self.platform.effort()

    def exhaustive_size(self) -> int:
        """Size of the exhaustive design space for comparison in reports."""
        return self.parameter_space.exhaustive_size()
