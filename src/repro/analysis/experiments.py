"""Experiment drivers -- one per table/figure of the paper's evaluation.

Every driver returns an :class:`ExperimentResult` containing formatted
tables (what the benchmark harness prints) and a ``data`` dictionary with
the raw values (what the tests and the paper-comparison module consume).

The mapping from paper figure to driver is:

========  =====================================================
Figure 1  :func:`parameter_space_summary`
Figure 2  :func:`dcache_exhaustive`
Figure 3  :func:`dcache_optimizer`
Figure 4  :func:`dcache_study`
Figure 5  :func:`runtime_optimization` (via :func:`optimization_study`)
Figure 6  :func:`perturbation_costs`
Figure 7  :func:`resource_optimization` (via :func:`optimization_study`)
--        :func:`scalability_study`, :func:`approximation_ablation`,
          :func:`solver_ablation` (ablations motivated by Sections 3/4/6)
========  =====================================================
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.config import (
    CACHE_SET_COUNTS,
    CACHE_SET_SIZES_KB,
    Configuration,
    base_configuration,
    leon_parameter_space,
)
from repro.core import (
    RESOURCE_OPTIMIZATION,
    RUNTIME_ONLY,
    RUNTIME_OPTIMIZATION,
    BranchAndBoundSolver,
    ExhaustiveSolver,
    GreedyIndependentSolver,
    MicroarchTuner,
    RandomSearchSolver,
    TuningResult,
    Weights,
    build_problem,
)
from repro.core.model import CostModel
from repro.microarch.statistics import cycles_to_seconds
from repro.platform.liquid import LiquidPlatform
from repro.workloads import WORKLOAD_ORDER
from repro.workloads.base import Workload
from repro.analysis.tables import Table

__all__ = [
    "ExperimentResult",
    "parameter_space_summary",
    "dcache_exhaustive",
    "dcache_optimizer",
    "dcache_study",
    "optimization_study",
    "runtime_optimization",
    "resource_optimization",
    "perturbation_costs",
    "scalability_study",
    "engine_report",
    "approximation_ablation",
    "solver_ablation",
]

#: Parameters of the scaled-down dcache study (paper, Section 5).
DCACHE_STUDY_PARAMETERS = ("dcache_sets", "dcache_setsize_kb")


@dataclass
class ExperimentResult:
    """Formatted tables plus raw data of one experiment."""

    experiment: str
    tables: List[Table] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self.tables)

    def table(self, title_fragment: str) -> Table:
        for table in self.tables:
            if title_fragment.lower() in table.title.lower():
                return table
        raise KeyError(f"no table matching {title_fragment!r} in {self.experiment}")


def _ordered(workloads: Mapping[str, Workload]) -> List[Workload]:
    order = [name for name in WORKLOAD_ORDER if name in workloads]
    order += [name for name in workloads if name not in order]
    return [workloads[name] for name in order]


# --------------------------------------------------------------------------- Figure 1 --

def parameter_space_summary() -> ExperimentResult:
    """Figure 1: the LEON reconfigurable parameters, defaults and space sizes."""
    space = leon_parameter_space()
    table = Table("Figure 1: LEON reconfigurable parameters",
                  ["parameter", "subsystem", "values", "default"])
    for parameter in space:
        table.add_row([
            parameter.name,
            parameter.subsystem,
            ",".join(str(v) for v in parameter.values),
            parameter.default,
        ])
    sizes = Table("Design-space sizes", ["quantity", "value"])
    sizes.add_row(["parameters", len(space)])
    sizes.add_row(["parameter values", space.value_count()])
    sizes.add_row(["one-factor perturbations (campaign builds)", space.perturbation_count()])
    sizes.add_row(["exhaustive configurations", space.exhaustive_size()])
    sizes.add_row(["exhaustive configurations reported by the paper", 3_641_573_376])
    return ExperimentResult(
        experiment="figure1",
        tables=[table, sizes],
        data={
            "parameters": len(space),
            "values": space.value_count(),
            "perturbations": space.perturbation_count(),
            "exhaustive": space.exhaustive_size(),
        },
    )


# --------------------------------------------------------------------------- Figure 2 --

def dcache_exhaustive(
    platform: LiquidPlatform,
    workload: Workload,
    *,
    set_counts: Sequence[int] = CACHE_SET_COUNTS,
    set_sizes: Sequence[int] = CACHE_SET_SIZES_KB,
) -> ExperimentResult:
    """Figure 2: exhaustive sweep of dcache {sets x set size} for one workload.

    The buildable grid points are submitted as one ``measure_many``
    batch: the distinct cache geometries replay in shared-decode groups
    and the timing model evaluates the whole grid in one broadcast.
    """
    base = base_configuration()
    table = Table(
        f"Figure 2: {workload.name} exhaustive dcache sweep",
        ["sets", "setsize_kb", "cycles", "seconds", "lut_percent", "bram_percent"])
    points = [
        (sets, size, base.replace(dcache_sets=sets, dcache_setsize_kb=size))
        for sets, size in itertools.product(set_counts, set_sizes)
    ]
    fits = platform.fits_many([config for _, _, config in points])
    points = [point for point, fit in zip(points, fits) if fit]
    measurements = platform.measure_many(workload, [config for _, _, config in points])
    rows: List[Dict[str, Any]] = []
    for (sets, size, _), measurement in zip(points, measurements):
        row = {
            "sets": sets,
            "setsize_kb": size,
            "cycles": measurement.cycles,
            "seconds": measurement.seconds,
            "lut_percent": measurement.lut_percent,
            "bram_percent": measurement.bram_percent,
        }
        rows.append(row)
        table.add_mapping(row)
    best = min(rows, key=lambda r: r["cycles"])
    best_table = Table("Optimal runtime (exhaustive)", table.columns)
    best_table.add_mapping(best)
    return ExperimentResult(
        experiment="figure2",
        tables=[table, best_table],
        data={"rows": rows, "best": best, "configurations_evaluated": len(rows)},
    )


# --------------------------------------------------------------------------- Figure 3 --

def dcache_optimizer(
    platform: LiquidPlatform,
    workload: Workload,
    weights: Weights = RUNTIME_ONLY,
) -> ExperimentResult:
    """Figure 3: the optimizer's view of the dcache sub-space for one workload."""
    tuner = MicroarchTuner(platform)
    model = tuner.build_model(workload, parameters=DCACHE_STUDY_PARAMETERS)
    result = tuner.tune(workload, weights, model=model, verify=True)
    campaign = tuner.campaign

    base_table = Table("Base configuration", ["sets", "setsize_kb", "cycles", "seconds",
                                              "lut_percent", "bram_percent"])
    base_cfg = model.base.configuration
    base_table.add_mapping({
        "sets": base_cfg.dcache_sets, "setsize_kb": base_cfg.dcache_setsize_kb,
        "cycles": model.base.cycles, "seconds": model.base.seconds,
        "lut_percent": model.base.lut_percent, "bram_percent": model.base.bram_percent})

    evaluated = Table(
        f"Figure 3: {workload.name} optimizer one-factor dcache configurations "
        f"({weights.describe()})",
        ["sets", "setsize_kb", "cycles", "seconds", "lut_percent", "bram_percent"])
    for record in campaign.records:
        cfg = record.configuration
        evaluated.add_mapping({
            "sets": cfg.dcache_sets, "setsize_kb": cfg.dcache_setsize_kb,
            "cycles": record.measurement.cycles, "seconds": record.measurement.seconds,
            "lut_percent": record.measurement.lut_percent,
            "bram_percent": record.measurement.bram_percent})

    selected = Table("Optimizer selection", evaluated.columns)
    assert result.actual is not None
    selected.add_mapping({
        "sets": result.configuration.dcache_sets,
        "setsize_kb": result.configuration.dcache_setsize_kb,
        "cycles": result.actual.cycles, "seconds": result.actual.seconds,
        "lut_percent": result.actual.lut_percent, "bram_percent": result.actual.bram_percent})

    return ExperimentResult(
        experiment="figure3",
        tables=[base_table, evaluated, selected],
        data={
            "selected_sets": result.configuration.dcache_sets,
            "selected_setsize_kb": result.configuration.dcache_setsize_kb,
            "selected_cycles": result.actual.cycles,
            "base_cycles": model.base.cycles,
            "configurations_evaluated": len(campaign.records),
            "tuning_result": result,
        },
    )


# --------------------------------------------------------------------------- Figure 4 --

def dcache_study(
    platform: LiquidPlatform,
    workloads: Mapping[str, Workload],
    weights: Weights = RUNTIME_ONLY,
) -> ExperimentResult:
    """Figure 4 (and the Section 5 analysis): exhaustive vs optimizer on the dcache space."""
    table = Table(
        f"Figure 4: dcache optimization, exhaustive vs optimizer ({weights.describe()})",
        ["workload", "method", "sets", "setsize_kb", "cycles", "seconds",
         "lut_percent", "bram_percent"])
    data: Dict[str, Any] = {}
    for workload in _ordered(workloads):
        exhaustive = dcache_exhaustive(platform, workload)
        optimizer = dcache_optimizer(platform, workload, weights)
        best = exhaustive.data["best"]
        table.add_mapping({"workload": workload.name, "method": "exhaustive", **best})
        table.add_mapping({
            "workload": workload.name, "method": "optimizer",
            "sets": optimizer.data["selected_sets"],
            "setsize_kb": optimizer.data["selected_setsize_kb"],
            "cycles": optimizer.data["selected_cycles"],
            "seconds": cycles_to_seconds(optimizer.data["selected_cycles"]),
            "lut_percent": optimizer.data["tuning_result"].actual.lut_percent,
            "bram_percent": optimizer.data["tuning_result"].actual.bram_percent,
        })
        base_cycles = optimizer.data["base_cycles"]
        gap = 100.0 * (optimizer.data["selected_cycles"] - best["cycles"]) / base_cycles
        data[workload.name] = {
            "exhaustive_cycles": best["cycles"],
            "exhaustive_config": (best["sets"], best["setsize_kb"]),
            "optimizer_cycles": optimizer.data["selected_cycles"],
            "optimizer_config": (optimizer.data["selected_sets"],
                                 optimizer.data["selected_setsize_kb"]),
            "base_cycles": base_cycles,
            "optimality_gap_percent": gap,
        }
    return ExperimentResult(experiment="figure4", tables=[table], data=data)


# ----------------------------------------------------------------------- Figures 5 & 7 --

def optimization_study(
    platform: LiquidPlatform,
    workloads: Mapping[str, Workload],
    weights: Weights,
    *,
    models: Optional[Mapping[str, CostModel]] = None,
    experiment: str = "optimization",
) -> ExperimentResult:
    """Full-space optimisation for every workload (Figures 5 and 7).

    The one-factor campaigns of all workloads without a pre-built model
    share one perturbation plan and run as one batch per workload.
    """
    tuner = MicroarchTuner(platform)
    ordered = _ordered(workloads)
    results: Dict[str, TuningResult] = {}
    used_models: Dict[str, CostModel] = {
        w.name: (models or {}).get(w.name) for w in ordered}
    missing = [w for w in ordered if used_models[w.name] is None]
    if missing:
        used_models.update(tuner.build_models(missing))
    for workload in ordered:
        results[workload.name] = tuner.tune(
            workload, weights, model=used_models[workload.name], verify=True)

    names = [w.name for w in ordered]
    base = base_configuration()
    changed_params = sorted({p for r in results.values() for p in r.changed_parameters()})
    params_table = Table(
        f"Reconfigured parameters ({weights.describe()})",
        ["parameter", "base"] + names)
    for parameter in changed_params:
        row = {"parameter": parameter, "base": base[parameter]}
        for name in names:
            row[name] = results[name].configuration[parameter]
        params_table.add_mapping(row)

    approx_table = Table(
        "Cost approximations by the optimizer",
        ["quantity"] + names)
    actual_table = Table("Actual synthesis", ["quantity"] + names)

    def approx_row(label: str, getter) -> None:
        approx_table.add_mapping({"quantity": label,
                                  **{n: getter(results[n]) for n in names}})

    def actual_row(label: str, getter) -> None:
        actual_table.add_mapping({"quantity": label,
                                  **{n: getter(results[n]) for n in names}})

    approx_row("runtime_cycles", lambda r: r.predicted.runtime_cycles)
    approx_row("runtime_seconds", lambda r: r.predicted.runtime_seconds)
    approx_row("runtime_change_percent", lambda r: r.predicted.runtime_percent)
    approx_row("lut_percent (linear)", lambda r: r.predicted.lut_percent_linear)
    approx_row("lut_percent (nonlinear)", lambda r: r.predicted.lut_percent_nonlinear)
    approx_row("bram_percent (nonlinear)", lambda r: r.predicted.bram_percent_nonlinear)
    approx_row("bram_percent (linear)", lambda r: r.predicted.bram_percent_linear)

    actual_row("runtime_cycles", lambda r: r.actual.cycles)
    actual_row("runtime_seconds", lambda r: r.actual.seconds)
    actual_row("runtime_change_percent",
               lambda r: 100.0 * (r.actual.cycles - r.base.cycles) / r.base.cycles)
    actual_row("lut_percent", lambda r: r.actual.lut_percent)
    actual_row("bram_percent", lambda r: r.actual.bram_percent)

    base_table = Table("Base configuration measurements",
                       ["quantity"] + names)
    base_table.add_mapping({"quantity": "runtime_cycles",
                            **{n: results[n].base.cycles for n in names}})
    base_table.add_mapping({"quantity": "runtime_seconds",
                            **{n: results[n].base.seconds for n in names}})
    base_table.add_mapping({"quantity": "lut_percent",
                            **{n: results[n].base.lut_percent for n in names}})
    base_table.add_mapping({"quantity": "bram_percent",
                            **{n: results[n].base.bram_percent for n in names}})

    gains = {
        name: {
            "predicted_gain_percent": results[name].predicted_runtime_gain_percent(),
            "actual_gain_percent": results[name].actual_runtime_gain_percent(),
            "lut_delta": results[name].actual_resource_delta()["lut"],
            "bram_delta": results[name].actual_resource_delta()["bram"],
        }
        for name in names
    }
    return ExperimentResult(
        experiment=experiment,
        tables=[params_table, base_table, approx_table, actual_table],
        data={"results": results, "models": used_models, "gains": gains},
    )


def runtime_optimization(
    platform: LiquidPlatform,
    workloads: Mapping[str, Workload],
    *,
    models: Optional[Mapping[str, CostModel]] = None,
) -> ExperimentResult:
    """Figure 5: application runtime optimisation (w1=100, w2=1)."""
    return optimization_study(
        platform, workloads, RUNTIME_OPTIMIZATION, models=models, experiment="figure5")


def resource_optimization(
    platform: LiquidPlatform,
    workloads: Mapping[str, Workload],
    *,
    models: Optional[Mapping[str, CostModel]] = None,
) -> ExperimentResult:
    """Figure 7: chip-resource optimisation (w1=1, w2=100)."""
    return optimization_study(
        platform, workloads, RESOURCE_OPTIMIZATION, models=models, experiment="figure7")


# --------------------------------------------------------------------------- Figure 6 --

def perturbation_costs(result: TuningResult) -> ExperimentResult:
    """Figure 6: one-factor measured costs of the perturbations the optimizer selected."""
    model = result.model
    table = Table(
        f"Figure 6: {result.workload} one-factor costs of the selected perturbations",
        ["perturbation", "cycles", "seconds", "lut_percent", "bram_percent"])
    rows = []
    for index in result.selection:
        measurement = model.measurement(index)
        label = model.space.variable(index).label
        row = {
            "perturbation": label,
            "cycles": measurement.cycles,
            "seconds": measurement.seconds,
            "lut_percent": measurement.lut_percent,
            "bram_percent": measurement.bram_percent,
        }
        rows.append(row)
        table.add_mapping(row)
    return ExperimentResult(experiment="figure6", tables=[table],
                            data={"rows": rows, "base_cycles": model.base.cycles})


# --------------------------------------------------------------------- scalability claim --

def scalability_study(
    platform: LiquidPlatform,
    workload: Workload,
) -> ExperimentResult:
    """Section 3's feasibility claim: campaign size is linear, not exponential.

    The platform's own accounting (deduplication, store hits, decode
    groups) is reported next to the paper's build/run counts.
    """
    space = leon_parameter_space()
    tuner = MicroarchTuner(platform)
    before = platform.effort()
    start = time.perf_counter()
    model = tuner.build_model(workload)
    elapsed = time.perf_counter() - start
    after = platform.effort()
    table = Table("Campaign effort vs exhaustive exploration", ["quantity", "value"])
    builds = after["builds"] - before["builds"]   # includes the base configuration
    runs = after["runs"] - before["runs"]
    throughput = runs / elapsed if elapsed > 0 else 0.0
    table.add_row(["perturbation variables", len(model.space)])
    table.add_row(["configurations built by the campaign (incl. base)", builds])
    table.add_row(["profiling runs by the campaign (incl. base)", runs])
    table.add_row(["exhaustive configurations", space.exhaustive_size()])
    table.add_row(["campaign wall-clock seconds", f"{elapsed:.2f}"])
    table.add_row(["throughput (configs/sec)", f"{throughput:.1f}"])
    data: Dict[str, Any] = {
        "variables": len(model.space),
        "builds": builds,
        "runs": runs,
        "exhaustive": space.exhaustive_size(),
        "seconds": elapsed,
        "configs_per_second": throughput,
    }
    engine = engine_report(platform)
    data["engine"] = engine.data["engine"]
    return ExperimentResult(
        experiment="scalability", tables=[table, *engine.tables], data=data)


def engine_report(platform: LiquidPlatform) -> ExperimentResult:
    """Evaluation-engine accounting: dedup/store hits, decode groups, wall clock."""
    stats = platform.stats
    table = Table("Evaluation engine statistics", ["quantity", "value"])
    for key, value in stats.as_dict().items():
        table.add_row([key, value])
    return ExperimentResult(
        experiment="engine", tables=[table], data={"engine": stats.as_dict()})


# --------------------------------------------------------------------------- ablations --

def approximation_ablation(result: TuningResult) -> ExperimentResult:
    """Linear vs nonlinear cost approximations against the measured configuration."""
    errors = result.prediction_errors()
    table = Table(
        f"Approximation ablation ({result.workload}, {result.weights.describe()})",
        ["quantity", "predicted", "actual", "error"])
    assert result.actual is not None
    table.add_row(["runtime_cycles", result.predicted.runtime_cycles,
                   result.actual.cycles,
                   result.predicted.runtime_cycles - result.actual.cycles])
    table.add_row(["lut_percent (linear)", result.predicted.lut_percent_linear,
                   result.actual.lut_percent, errors["lut_error_linear"]])
    table.add_row(["lut_percent (nonlinear)", result.predicted.lut_percent_nonlinear,
                   result.actual.lut_percent, errors["lut_error_nonlinear"]])
    table.add_row(["bram_percent (linear)", result.predicted.bram_percent_linear,
                   result.actual.bram_percent, errors["bram_error_linear"]])
    table.add_row(["bram_percent (nonlinear)", result.predicted.bram_percent_nonlinear,
                   result.actual.bram_percent, errors["bram_error_nonlinear"]])
    return ExperimentResult(experiment="approximation_ablation", tables=[table],
                            data={"errors": errors})


def solver_ablation(
    model: CostModel,
    weights: Weights = RUNTIME_OPTIMIZATION,
    *,
    include_exhaustive: bool = False,
) -> ExperimentResult:
    """Compare the branch-and-bound solver with the baseline solvers."""
    problem = build_problem(model, weights)
    solvers = [BranchAndBoundSolver(), GreedyIndependentSolver(), RandomSearchSolver()]
    if include_exhaustive:
        solvers.append(ExhaustiveSolver())
    table = Table(
        f"Solver ablation ({model.workload}, {weights.describe()})",
        ["solver", "objective", "variables_selected", "feasible", "nodes", "seconds"])
    data: Dict[str, Any] = {}
    for solver in solvers:
        start = time.perf_counter()
        solution = solver.solve(problem)
        elapsed = time.perf_counter() - start
        table.add_row([solution.solver, solution.objective, len(solution.selection),
                       solution.feasible, solution.nodes_explored, f"{elapsed:.3f}"])
        data[solution.solver] = {
            "objective": solution.objective,
            "selection": solution.selection,
            "nodes": solution.nodes_explored,
            "seconds": elapsed,
        }
    return ExperimentResult(experiment="solver_ablation", tables=[table], data=data)
