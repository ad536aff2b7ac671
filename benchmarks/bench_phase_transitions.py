"""Phase transitions: cold-start vs warm-chained replay on the Figure-2 grid.

The paper's design-space exploration replays every workload from a cold
cache, but deployed phase-structured programs (BLASTN's seed-then-extend
stages, DRR's enqueue/service alternation, context switches between
applications) carry cache state across phase boundaries.  This benchmark
drives the warm phase-chain engine over the Figure-2 dcache
configuration sweep for the standard multi-phase scenarios and reports
the cold-vs-warm per-phase miss-rate deltas.

Two engine guarantees are asserted on top of the numbers:

* the warm chain is *consistent*: its per-phase totals equal the
  single-shot statistics of the concatenated trace, so overall
  measurements are unchanged by phasing;
* the warm path adds *no per-phase re-decode*: phase decodes are keyed
  by ``(trace, kind, linesize, phase)`` only, so their count must not
  scale with the number of swept configurations
  (``EngineStats.phase_decodes`` / the ``phase_decode`` stage of
  ``EngineStats.stage_seconds``).

Set ``REPRO_BENCH_SMOKE=1`` to run the scenarios at test scale.
"""

from conftest import SMOKE, emit

from repro.analysis import phase_transition_study
from repro.platform import LiquidPlatform
from repro.workloads import phase_scenarios


def test_phase_transitions_cold_vs_warm(benchmark):
    scenarios = phase_scenarios(small=SMOKE)
    engine = LiquidPlatform()
    result = benchmark.pedantic(
        phase_transition_study, args=(engine, scenarios), rounds=1, iterations=1)
    stats = engine.stats
    emit(result)
    stages = stats.stage_report()
    print(f"\nphase chains: {stats.phase_chains}, phase decodes: {stats.phase_decodes}"
          f"\nstage wall-clock: {stages}")

    rows = result.data["rows"]
    summary = result.data["summary"]
    assert len(scenarios) >= 2, "need at least two multi-phase scenarios"
    assert {r["scenario"] for r in rows} == set(scenarios)

    # cold vs warm must differ somewhere: phase transitions are observable
    assert any(abs(r["delta_pp"]) > 0 for r in rows), (
        "no scenario showed a cold-vs-warm miss-rate delta")
    # and the summary covers every phase of every scenario
    for name, workload in scenarios.items():
        phases = {s["phase"] for s in summary if s["scenario"] == name}
        assert phases == set(workload.phase_names)

    # consistency: warm per-phase totals == the single-shot measurement
    for name, phased in result.data["measurements"].items():
        for measurement in phased:
            assert measurement.dcache.warm_total() == measurement.measurement.statistics.dcache, (
                f"warm chain of {name} diverged from the single-shot replay")

    # no per-phase re-decode: decodes scale with (scenario, kind, linesize,
    # phase), never with the number of swept configurations.  The grid
    # varies sets/setsize only, so each scenario decodes its phases once
    # for the icache linesize and once for the dcache linesize.
    expected_decodes = sum(2 * w.phase_count for w in scenarios.values())
    assert stats.phase_decodes == expected_decodes, (
        f"phase decodes ({stats.phase_decodes}) scale beyond the "
        f"(scenario, cache, linesize, phase) space ({expected_decodes})")
    assert stats.phase_chains > len(scenarios) * 2, (
        "the sweep should replay many more chains than it decodes views")
    assert "phase_decode" in stages and "phase_chain" in stages
