"""Ablation: branch-and-bound vs greedy vs random search on the full BINLP.

The paper solves the formulation with a commercial MINLP solver; our
branch-and-bound replaces it.  This benchmark shows it dominates the naive
baselines on every workload's problem instance while exploring at most
about a hundred nodes (BLASTN 97, DRR 31, FRAG and Arith only the root),
i.e. the constrained formulation (not brute force) is what makes the
approach work.
"""

from conftest import emit

from repro.analysis import solver_ablation
from repro.core import RUNTIME_OPTIMIZATION


def test_solver_ablation(benchmark, figure5):
    models = figure5.data["models"]

    def run_all():
        return {name: solver_ablation(model, RUNTIME_OPTIMIZATION)
                for name, model in models.items()}

    ablations = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name, ablation in ablations.items():
        emit(ablation)
        data = ablation.data
        bnb = data["branch-and-bound"]
        assert bnb["objective"] <= data["greedy"]["objective"] + 1e-9, name
        assert bnb["objective"] <= data["random-search"]["objective"] + 1e-9, name
        assert bnb["nodes"] < 1_000, name
