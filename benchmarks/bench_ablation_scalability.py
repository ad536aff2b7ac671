"""Scalability ablation: the campaign is linear in parameter values (Section 3).

The paper's feasibility argument is that measuring one perturbation at a
time needs ~52 builds instead of ~3.6 billion.  This benchmark times a full
campaign on a fresh platform and checks the effort accounting, then runs
the same campaign through the evaluation engine (batched, deduplicated)
and records both wall-clocks and the engine statistics so the
scalability report shows how the measurement layer itself scales.
"""

from conftest import emit

from repro.analysis import scalability_study
from repro.platform import LiquidPlatform


def test_scalability_of_the_campaign(benchmark, workloads):
    result = benchmark.pedantic(
        scalability_study, args=(LiquidPlatform(), workloads["frag"]),
        rounds=1, iterations=1)
    emit(result)
    assert result.data["builds"] == result.data["variables"] + 1   # base + one per variable
    assert result.data["exhaustive"] / result.data["builds"] > 10**6
    # per-configuration throughput makes trajectories comparable across machines
    assert result.data["configs_per_second"] > 0
    print(f"\nsequential campaign throughput: "
          f"{result.data['configs_per_second']:.1f} configs/sec "
          f"({result.data['runs']} configs in {result.data['seconds']:.2f}s)")


def test_scalability_of_the_campaign_through_the_engine(benchmark, workloads):
    """Same campaign, batched through the engine."""
    engine = LiquidPlatform()
    result = benchmark.pedantic(
        scalability_study, args=(engine, workloads["frag"]), rounds=1, iterations=1)
    emit(result)

    sequential = scalability_study(LiquidPlatform(), workloads["frag"])
    print(f"\ncampaign wall-clock: sequential {sequential.data['seconds']:.2f}s "
          f"({sequential.data['configs_per_second']:.1f} configs/sec), "
          f"engine {result.data['seconds']:.2f}s "
          f"({result.data['configs_per_second']:.1f} configs/sec)")
    assert result.data["configs_per_second"] > 0

    # identical effort accounting: batching changes scheduling, not work
    assert result.data["builds"] == sequential.data["builds"]
    assert result.data["runs"] == sequential.data["runs"]
    # the engine statistics are part of the recorded scalability report
    engine_stats = result.data["engine"]
    assert engine_stats["cache_simulations"] > 0
    assert engine_stats["wall_seconds"] > 0
