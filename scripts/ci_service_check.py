#!/usr/bin/env python
"""End-to-end checks against a *live* tuning service (CI ``service`` job).

Expects a server already listening (``run_experiments.py --serve``);
this script is purely a client plus one local re-computation.  One
subcommand:

``sweep``
    Submits the default Figure-2 sweep for ``--workload``, waits for
    it, recomputes the same sweep with a direct in-process
    ``measure_many`` (an in-memory store, no service) and asserts the wire
    records are bit-identical.  Then resubmits the identical sweep and
    asserts **zero new evaluations**: ``cache_simulations`` and
    ``store_writes`` in ``/metrics`` are unchanged, and the second
    job's results equal the first's byte for byte.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import ResultStore  # noqa: E402
from repro.platform import LiquidPlatform  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import figure2_grid  # noqa: E402
from repro.workloads import small_workloads, standard_workloads  # noqa: E402


def _canon(records):
    return json.dumps(records, sort_keys=True)


def check_sweep(client, args):
    before = client.metrics()["engine"]
    first = client.wait(client.submit_sweep(args.workload)["id"],
                        timeout=args.timeout)
    assert first["status"] == "done", first
    mid = client.metrics()["engine"]

    # the same sweep, recomputed from scratch in this process
    store = ResultStore()
    direct = LiquidPlatform(store=store)
    registry = (small_workloads() if args.scale == "small"
                else standard_workloads())
    workload = registry[args.workload]
    configs = figure2_grid(direct)
    assert first["total"] == len(configs), (first["total"], len(configs))
    expected = [store.encode(workload, measurement)
                for measurement in direct.measure_many(workload, configs)]
    store.close()
    assert _canon(first["results"]) == _canon(expected), (
        "served sweep differs from a direct measure_many")

    # identical resubmit: answered from memo/store, zero new evaluations
    second = client.wait(client.submit_sweep(args.workload)["id"],
                         timeout=args.timeout)
    after = client.metrics()["engine"]
    assert after["cache_simulations"] == mid["cache_simulations"], (
        "resubmitted sweep re-simulated", mid, after)
    assert after["store_writes"] == mid["store_writes"], (
        "resubmitted sweep wrote new rows", mid, after)
    assert _canon(second["results"]) == _canon(first["results"])
    print(f"sweep ok: {len(expected)} records bit-identical to direct "
          f"measure_many; resubmit cost 0 new evaluations "
          f"({after['cache_simulations']} simulations total, was "
          f"{before['cache_simulations']} before the first job)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("check", choices=("sweep",))
    parser.add_argument("--url", default="http://127.0.0.1:8023")
    parser.add_argument("--workload", default="blastn")
    parser.add_argument("--scale", default="small",
                        choices=("small", "standard"),
                        help="must match the server's --scale")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)

    client = ServiceClient(args.url)
    assert client.health(), f"no live service at {args.url}"
    check_sweep(client, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
