#!/usr/bin/env python
"""Run every paper experiment at benchmark scale and print the tables.

This is the non-pytest entry point used to regenerate the numbers quoted
in EXPERIMENTS.md; the pytest-benchmark harness in ``benchmarks/`` wraps
the same drivers.

Every measurement runs through the evaluation engine, one batch at a
time: each batch is planned once, its distinct cache geometries replay
in shared-decode groups and the timing model evaluates the whole batch
in one broadcast.  Pass ``--store PATH`` (a SQLite file) to persist the
trace summaries and per-geometry cache statistics every measurement is
derived from (a full reproduction becomes resumable and shareable across
runs; ``--audit-store FRACTION`` re-derives a sample of those rows),
or ``--profile`` to print per-stage wall-clock.  Engine statistics
(dedup hits, store hits, decode groups, wall clock) are printed at the
end.

Distributed campaign mode (``--grid-db PATH``) replaces the experiment
suite with the pull-based campaign queue: ``--register`` writes the
distinct cache replays of the selected workloads' Figure-2
configuration grid into the database as open rows (one per trace, cache
kind and geometry), any number of concurrent ``--claim`` processes
(same machine or any host sharing the file) atomically claim and
replay batches until the grid is drained (more ``--claim``
processes are how a campaign scales out), ``--status`` prints the row
counts (``--assert-drained`` makes it a CI gate, ``--json`` emits the
machine-readable snapshot, ``--watch`` live-renders the draining grid
with per-worker heartbeat health), and ``--reset-failed`` reopens
failed rows with a fresh attempt budget.  Results land in the same
database as store rows, from which every configuration of the grid is
assembled bit-identical to a direct ``measure_many``.

Resident service mode (``--serve``) turns the process into the
always-on tuning service: ``POST /sweep`` and ``POST /tune`` jobs run
on ONE resident platform (SIGTERM drains queued jobs before the
process exits), repeat queries answer from the
store by trace fingerprint, and with ``--grid-db`` a sweep job's cache
replays become campaign rows drained cooperatively with any CLI
``--claim`` workers.

Observability: ``--trace out.json`` records nested wall/CPU spans of
every pipeline stage and writes a Chrome trace-event file loadable in Perfetto
(``.jsonl`` writes raw span records instead); ``--profile`` adds the
metrics-registry dump next to the per-stage wall-clock table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from repro.engine import CampaignGrid, CampaignWorker, open_store
from repro.service.server import figure2_grid
from repro.obs import enable_tracing, get_tracer
from repro.platform import LiquidPlatform
from repro.workloads import small_workloads, standard_workloads
from repro.analysis import (
    approximation_ablation,
    dcache_exhaustive,
    dcache_study,
    engine_report,
    headline_comparison,
    parameter_space_summary,
    perturbation_costs,
    resource_optimization,
    runtime_optimization,
    scalability_study,
    solver_ablation,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--store", metavar="PATH", default=None,
        help="persistent SQLite result store (.sqlite/.sqlite3/.db): the trace "
             "summaries and cache statistics found there are not re-simulated")
    parser.add_argument(
        "--audit-store", metavar="FRACTION", type=float, default=None,
        help="instead of running experiments, replay a seeded FRACTION (0-1] "
             "of the --store's cache rows for the --scale workloads, recompute "
             "their trace summaries, and exit 1 on any mismatch")
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-stage wall-clock (trace generation, cache simulation, "
             "sweep evaluation, solve) from the engine statistics")
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record pipeline spans and write a Chrome trace-event file at "
             "exit -- load it in Perfetto; a .jsonl suffix writes raw span "
             "records instead")
    parser.add_argument(
        "--only", choices=("fig2",), default=None,
        help="run a single experiment instead of the full suite "
             "(fig2 = the BLASTN dcache exhaustive sweep; used by CI)")
    parser.add_argument(
        "--scale", choices=("standard", "small"), default="standard",
        help="workload scale of the experiment suite (small = quick smoke "
             "traces; honoured with --only, --serve and --audit-store)")
    grid = parser.add_argument_group(
        "distributed campaign grid",
        "register a configuration grid in a shared SQLite database and drain "
        "it with any number of concurrent --claim workers")
    grid.add_argument(
        "--grid-db", metavar="PATH", default=None,
        help="campaign database (grid rows and result-store rows share this file); "
             "selects campaign mode instead of the experiment suite")
    grid.add_argument(
        "--register", action="store_true",
        help="register the cache replays of the selected workloads' Figure-2 "
             "dcache grid as open rows, one per trace, cache kind and "
             "geometry (idempotent; re-running adds only new rows)")
    grid.add_argument(
        "--claim", action="store_true",
        help="run one campaign worker: claim open row batches of one trace, "
             "replay them, write their result-store rows back, until nothing "
             "is claimable")
    grid.add_argument(
        "--status", action="store_true",
        help="print row counts by status and recent failures")
    grid.add_argument(
        "--json", action="store_true",
        help="with --status: print the full machine-readable campaign "
             "snapshot (counts, per-workload matrix, worker heartbeats)")
    grid.add_argument(
        "--watch", action="store_true",
        help="with --status: refresh an in-terminal dashboard until the "
             "grid drains or Ctrl-C (clean exit)")
    grid.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period of --watch in seconds (default: 2)")
    grid.add_argument(
        "--watch-max", type=int, default=None,
        help="stop --watch after this many refreshes (CI/testing bound)")
    grid.add_argument(
        "--stale-after", type=float, default=300.0,
        help="seconds without a heartbeat before a worker is flagged STALE "
             "(default: 300)")
    grid.add_argument(
        "--heartbeat", type=float, default=15.0,
        help="seconds between a --claim worker's liveness heartbeats into "
             "the campaign database (0 disables; default: 15)")
    grid.add_argument(
        "--reset-failed", action="store_true",
        help="reopen every failed row with a fresh attempt budget")
    grid.add_argument(
        "--assert-drained", action="store_true",
        help="with --status: exit non-zero unless every row is done (CI gate)")
    grid.add_argument(
        "--grid-workloads", metavar="NAMES", default=None,
        help="comma-separated workload names to register/claim "
             "(default: all of the selected scale)")
    grid.add_argument(
        "--grid-scale", choices=("standard", "small"), default="standard",
        help="workload scale of the campaign (small = quick smoke grids)")
    grid.add_argument(
        "--batch", type=int, default=16,
        help="replay rows per claim transaction (default: 16)")
    grid.add_argument(
        "--lease", type=float, default=300.0,
        help="seconds before another worker may reclaim a silent claim "
             "(default: 300)")
    grid.add_argument(
        "--max-attempts", type=int, default=3,
        help="claim attempts per row before it rests in failed (default: 3)")
    grid.add_argument(
        "--worker-id", default=None,
        help="claim identity of this worker (default: host:pid:nonce)")
    grid.add_argument(
        "--max-batches", type=int, default=None,
        help="stop the worker after this many claim batches (default: drain)")
    service = parser.add_argument_group(
        "resident tuning service",
        "serve POST /sweep, POST /tune, GET /jobs/<id> and GET /metrics over "
        "one resident platform until SIGTERM")
    service.add_argument(
        "--serve", action="store_true",
        help="run the always-on tuning service instead of the experiment "
             "suite; honours --store and --scale, and with "
             "--grid-db runs sweep jobs as campaign rows shared with "
             "--claim workers")
    service.add_argument(
        "--host", default="127.0.0.1",
        help="service bind address (default: 127.0.0.1)")
    service.add_argument(
        "--port", type=int, default=8023,
        help="service port (default: 8023; 0 picks an ephemeral port)")
    args = parser.parse_args()
    campaign_actions = (args.register, args.claim, args.status, args.reset_failed)
    if any(campaign_actions) and not args.grid_db:
        parser.error("campaign actions require --grid-db PATH")
    if args.grid_db and not any(campaign_actions) and not args.serve:
        parser.error("--grid-db requires --register, --claim, --status, "
                     "--reset-failed and/or --serve")
    if args.serve and any(campaign_actions):
        parser.error("--serve runs its own campaign worker; drop "
                     "--register/--claim/--status/--reset-failed")
    if (args.json or args.watch) and not args.status:
        parser.error("--json/--watch modify --status; add --status")
    if args.json and args.watch:
        parser.error("--json and --watch are mutually exclusive")
    if args.audit_store is not None:
        if not args.store:
            parser.error("--audit-store requires --store PATH")
        if not 0.0 < args.audit_store <= 1.0:
            parser.error("--audit-store FRACTION must be in (0, 1]")
    return args


@contextlib.contextmanager
def managed_backend(args: argparse.Namespace, *, with_store: bool = True):
    """The platform over ``--store`` (unless ``with_store`` is off); the store closes on exit."""
    store = open_store(args.store) if (args.store and with_store) else None
    try:
        yield LiquidPlatform(store=store)
    finally:
        if store is not None:
            store.close()


def print_stage_profile(platform: LiquidPlatform) -> None:
    """Per-stage wall-clock table of the platform's statistics (``--profile``)."""
    stages = platform.stats.stage_report()
    print(f"\n{'#' * 80}\n# Pipeline stage profile\n{'#' * 80}")
    if not stages:
        print("no stage timings recorded")
        return
    width = max(len(stage) for stage in stages)
    for stage, seconds in stages.items():
        print(f"  {stage:<{width}}  {seconds:9.3f}s")
    print(f"\n{'#' * 80}\n# Metrics registry\n{'#' * 80}")
    print(platform.stats.registry.render_text())


def export_trace(path: str) -> None:
    """Write the process tracer's merged spans to ``path`` (``--trace``)."""
    tracer = get_tracer()
    if path.endswith(".jsonl"):
        count = tracer.export_jsonl(path)
        print(f"trace: {count} span records -> {path}")
    else:
        count = tracer.export_chrome(path)
        print(f"trace: {count} events -> {path} "
              "(load in https://ui.perfetto.dev)")


def campaign_main(args: argparse.Namespace) -> None:
    """Campaign mode: register/claim/status/reset against ``--grid-db``."""
    workload_map = (standard_workloads() if args.grid_scale == "standard"
                    else small_workloads())
    if args.grid_workloads:
        names = [name.strip() for name in args.grid_workloads.split(",")]
        unknown = [name for name in names if name not in workload_map]
        if unknown:
            sys.exit(f"unknown workloads: {', '.join(unknown)} "
                     f"(have: {', '.join(sorted(workload_map))})")
    else:
        names = sorted(workload_map)
    workloads = [workload_map[name] for name in names]
    platform = LiquidPlatform()

    with CampaignGrid(args.grid_db) as grid:
        if args.reset_failed:
            print(f"reopened {grid.reset_failed()} failed rows")
        if args.register:
            configs = figure2_grid(platform)
            for workload in workloads:
                added = grid.register(workload, configs)
                print(f"registered {workload.name}: {added} new replay rows "
                      f"({len(configs)} grid points)")
        if args.claim:
            worker = CampaignWorker(
                grid, workloads, worker_id=args.worker_id, batch=args.batch,
                lease_seconds=args.lease, max_attempts=args.max_attempts,
                heartbeat_seconds=args.heartbeat,
                platform=platform)
            try:
                report = worker.run(max_batches=args.max_batches)
            except KeyboardInterrupt:
                print(f"\ninterrupted: claims released "
                      f"({worker.report.done} rows were completed)")
                sys.exit(130)
            finally:
                worker.close()
            print(report.summary())
            stats = report.engine
            print(f"claims: {stats['claim_batches']} batches, "
                  f"{stats['claim_rows']} rows, "
                  f"{stats['claim_conflicts']} lock conflicts, "
                  f"{stats['claim_requeues']} requeued")
        if args.status and args.watch:
            from repro.obs.dashboard import watch

            watch(grid, interval=args.interval, stale_after=args.stale_after,
                  max_refreshes=args.watch_max)
        elif args.status and args.json:
            from repro.obs.dashboard import campaign_snapshot

            snapshot = campaign_snapshot(grid, stale_after=args.stale_after)
            print(json.dumps(snapshot, indent=2))
            if args.assert_drained:
                counts = snapshot["counts"]
                if counts["done"] != counts["total"]:
                    sys.exit(f"grid not drained: "
                             f"{counts['total'] - counts['done']} "
                             f"of {counts['total']} rows not done")
        elif args.status or args.claim:
            counts = grid.status()
            print("status: " + ", ".join(
                f"{counts[key]} {key}"
                for key in ("open", "claimed", "done", "failed")) +
                f" ({counts['total']} total)")
            for workload, state, count in grid.workload_status():
                print(f"  {workload}: {count} {state}")
            for rowid, workload, attempts, error in grid.failures():
                print(f"  failed row {rowid} ({workload}, "
                      f"{attempts} attempts): {error}")
            if args.assert_drained and counts["done"] != counts["total"]:
                sys.exit(f"grid not drained: {counts['total'] - counts['done']} "
                         f"of {counts['total']} rows not done")


def audit_main(args: argparse.Namespace) -> None:
    """``--audit-store``: re-derive a sample of the store's rows, exit 1 on drift."""
    workloads = (small_workloads() if args.scale == "small"
                 else standard_workloads())
    with contextlib.closing(open_store(args.store)) as store:
        audited, mismatches = store.audit(workloads.values(), args.audit_store)
    print(f"audit: {audited} stored rows re-derived, {mismatches} mismatches")
    if mismatches:
        sys.exit(1)


def suite_fig2(args: argparse.Namespace) -> None:
    """The reduced ``--only fig2`` run: one BLASTN dcache exhaustive sweep.

    The CI observability job uses this with ``--scale small --trace`` to
    exercise the trace generation, decode, replay and timing stages in
    seconds instead of minutes.
    """
    start = time.time()
    workloads = (small_workloads() if args.scale == "small"
                 else standard_workloads())
    with managed_backend(args) as platform:
        result = dcache_exhaustive(platform, workloads["blastn"])
        print(f"\n{'#' * 80}\n# Figure 2: BLASTN dcache exhaustive "
              f"({args.scale} scale)\n{'#' * 80}")
        print(result.render())
        print(platform.stats.summary())
        if args.profile:
            print_stage_profile(platform)
    print(f"\nTotal wall clock: {time.time() - start:.1f}s")


def main() -> None:
    args = parse_args()
    if args.trace:
        enable_tracing()
    try:
        if args.serve:
            from repro.service.server import serve

            serve(host=args.host, port=args.port, scale=args.scale,
                  store_path=args.store, grid_path=args.grid_db)
        elif args.audit_store is not None:
            audit_main(args)
        elif args.grid_db:
            campaign_main(args)
        elif args.only == "fig2":
            suite_fig2(args)
        else:
            suite_main(args)
    finally:
        if args.trace:
            export_trace(args.trace)


def suite_main(args: argparse.Namespace) -> None:
    start = time.time()
    workloads = standard_workloads()

    def show(result, label):
        print(f"\n{'#' * 80}\n# {label}  (t={time.time() - start:.0f}s)\n{'#' * 80}")
        print(result.render())

    with managed_backend(args) as platform:
        show(parameter_space_summary(), "Figure 1: parameter space")
        show(dcache_exhaustive(platform, workloads["blastn"]),
             "Figure 2: BLASTN dcache exhaustive")
        fig4 = dcache_study(platform, workloads)
        show(fig4, "Figures 3/4: dcache exhaustive vs optimizer")
        fig5 = runtime_optimization(platform, workloads)
        show(fig5, "Figure 5: application runtime optimization (w1=100, w2=1)")
        show(perturbation_costs(fig5.data["results"]["blastn"]),
             "Figure 6: BLASTN perturbation costs")
        fig7 = resource_optimization(platform, workloads, models=fig5.data["models"])
        show(fig7, "Figure 7: chip resource optimization (w1=1, w2=100)")
        show(headline_comparison(fig5, fig7, fig4), "Headline claims")
        # the scalability study reports the effort of a *fresh* platform; feeding
        # it the store would zero the build/run counts the paper's claim is about
        with managed_backend(args, with_store=False) as fresh:
            show(scalability_study(fresh, workloads["frag"]), "Scalability study")
        show(approximation_ablation(fig5.data["results"]["drr"]),
             "Approximation ablation (DRR)")
        show(solver_ablation(fig5.data["models"]["blastn"]), "Solver ablation (BLASTN)")
        show(engine_report(platform), "Evaluation engine statistics")
        print(platform.stats.summary())
        if args.profile:
            print_stage_profile(platform)
    print(f"\nTotal wall clock: {time.time() - start:.1f}s")


if __name__ == "__main__":
    main()
