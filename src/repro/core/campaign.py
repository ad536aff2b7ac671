"""The one-factor-at-a-time measurement campaign (Section 3 of the paper).

Starting from the base configuration, every perturbation variable's
configuration is built and the application is executed on it; the
resulting rho/lambda/beta deltas populate a :class:`~repro.core.model.CostModel`.
The number of builds is *linear* in the number of parameter values
(52-ish for the full LEON space) instead of the ~3.6 billion exhaustive
configurations -- this is the feasibility/scalability argument of the
paper, and :meth:`OneFactorCampaign.effort` exposes the actual counts so
the scalability benchmark can report them.

The configurations of a campaign do not depend on the application, so
a campaign object plans them once per parameter restriction: the
perturbation space, its configurations and their fit screen are reused
by every later run (one tuner tunes a whole suite on one plan).
Each run submits the base configuration and every perturbation as
**one batch** through the platform's
:meth:`~repro.platform.liquid.LiquidPlatform.measure_many`, so the
underlying simulations are deduplicated, share their trace decodes and
are timed in one broadcast evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.config.configuration import Configuration
from repro.config.leon_space import leon_parameter_space
from repro.config.parameters import ParameterSpace
from repro.config.perturbation import PerturbationSpace
from repro.errors import MeasurementError
from repro.obs.metrics import get_registry
from repro.obs.tracer import span
from repro.platform.liquid import LiquidPlatform
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


#: A campaign plan: the perturbation space and the batch every run of the
#: campaign measures (the base configuration, then one per variable).
Plan = Tuple[PerturbationSpace, Tuple[Configuration, ...]]


class OneFactorCampaign:
    """Runs the linear measurement campaign for one or more workloads.

    A campaign is bound to one platform and one parameter space, so its
    plan for a parameter restriction never changes: it is made once.
    """

    def __init__(
        self,
        platform: LiquidPlatform,
        parameter_space: Optional[ParameterSpace] = None,
    ):
        self.platform = platform
        self.parameter_space = parameter_space or leon_parameter_space()
        self._records: List[CampaignRecord] = []
        self._plans: Dict[Optional[FrozenSet[str]], Plan] = {}

    # -- planning --------------------------------------------------------------------------

    def _plan(
        self,
        *,
        parameters: Optional[Iterable[str]] = None,
        perturbation_space: Optional[PerturbationSpace] = None,
    ) -> Plan:
        """The perturbation space and the batch one run measures, base first.

        Every perturbation is screened with the platform's (memoised)
        :meth:`fits` before anything is measured: the paper excludes
        unbuildable values a priori (e.g. a 64 KB set size), and with the
        default LEON space every perturbation fits.  Plans are memoised
        by the restriction (``None`` or the set of ``parameters``); a
        caller-built ``perturbation_space`` is planned afresh, and a plan
        whose screen fails is not kept.
        """
        key = None if parameters is None else frozenset(parameters)
        plan = None if perturbation_space is not None else self._plans.get(key)
        reused = plan is not None
        with span("campaign_plan", reused=reused) as plan_span:
            if plan is None:
                space = perturbation_space or PerturbationSpace(self.parameter_space, key)
                configurations = [space.base]
                for variable, configuration in space.iter_single_configurations():
                    if not self.platform.fits(configuration):
                        raise MeasurementError(
                            f"perturbation {variable.label} does not fit on the device; "
                            f"exclude the value from the parameter space")
                    configurations.append(configuration)
                plan = (space, tuple(configurations))
                if perturbation_space is None:
                    self._plans[key] = plan
            plan_span.set(variables=len(plan[0]), configs=len(plan[1]))
        get_registry().counter(
            "campaign.plans_reused" if reused else "campaign.plans_built").inc()
        return plan

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
        space, configurations = self._plan(
            parameters=parameters, perturbation_space=perturbation_space)
        base, *perturbed = self.platform.measure_many(workload, configurations)
        deltas = tuple(measurement.delta(base) for measurement in perturbed)
        self._records = [
            CampaignRecord(index=variable.index, label=variable.label,
                           configuration=measurement.configuration,
                           measurement=measurement, delta=delta)
            for variable, measurement, delta in zip(space, perturbed, deltas)]
        return CostModel(workload=workload.name, space=space, base=base,
                         deltas=deltas, measurements=tuple(perturbed))

    def run_many(
        self,
        workloads: Iterable[Workload],
        *,
        parameters: Optional[Iterable[str]] = None,
    ) -> Dict[str, CostModel]:
        """Run the campaign for several workloads, one batch per workload.

        Results are keyed by workload name and equal to repeated
        :meth:`run` calls, which share one plan; :attr:`records`
        afterwards holds the records of the *last* workload.
        """
        # read once: a generator of parameter names serves every workload
        restriction = None if parameters is None else frozenset(parameters)
        return {workload.name: self.run(workload, parameters=restriction)
                for workload in workloads}

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
