"""Evaluation harness: tables, per-figure experiment drivers, paper comparisons."""

from repro.analysis.tables import Table
from repro.analysis.experiments import (
    DCACHE_STUDY_PARAMETERS,
    ExperimentResult,
    approximation_ablation,
    dcache_exhaustive,
    dcache_optimizer,
    dcache_study,
    engine_report,
    optimization_study,
    parameter_space_summary,
    perturbation_costs,
    resource_optimization,
    runtime_optimization,
    scalability_study,
    solver_ablation,
)
from repro.analysis.compare import PAPER_CLAIMS, ClaimCheck, headline_comparison

__all__ = [
    "Table",
    "DCACHE_STUDY_PARAMETERS",
    "ExperimentResult",
    "approximation_ablation",
    "dcache_exhaustive",
    "dcache_optimizer",
    "dcache_study",
    "engine_report",
    "optimization_study",
    "parameter_space_summary",
    "perturbation_costs",
    "resource_optimization",
    "runtime_optimization",
    "scalability_study",
    "solver_ablation",
    "PAPER_CLAIMS",
    "ClaimCheck",
    "headline_comparison",
]
