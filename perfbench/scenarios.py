"""The benchmark's workloads: what one operation is, and how it is checked.

Every scenario follows the same life cycle, driven by ``run.py``:

``setup()``
    builds the fixtures the operations need and runs one untimed
    warm-up operation, so lazy initialisation is paid here (and shows in
    ``setup_s``) instead of in the first timed operation;
``prepare(index)``
    makes the inputs of one operation from the run's seed (untimed);
``run(inputs)``
    the timed operation; returns ``(answered, outputs, seconds)``:
    the number of configuration measurements it answered, what
    ``check`` needs, and the operation's own duration when the program
    reports one (``None``: the runner's wall clock around ``run``);
``check(inputs, outputs)``
    compares the outputs against an independent path of the program
    (untimed); returns a list of mismatch descriptions;
``teardown()``
    releases everything ``setup`` made.

Engines run with the defaults of ``scripts/run_experiments.py``: one
worker process per CPU and the adaptive shared-memory trace arena.
Application inputs come only from the seed (the data seeds of BLASTN,
DRR and FRAG, and Arith's loop count where it is drawn).
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.config import base_configuration
from repro.config.configuration import Configuration
from repro.config.leon_space import (
    CACHE_LINE_SIZES_WORDS,
    CACHE_SET_COUNTS,
    CACHE_SET_SIZES_KB,
    Replacement,
    leon_parameter_space,
)
from repro.config.rules import check_rules
from repro.core.tuner import MicroarchTuner
from repro.core.weights import (
    RESOURCE_OPTIMIZATION,
    RUNTIME_ONLY,
    RUNTIME_OPTIMIZATION,
)
from repro.engine import (
    CampaignGrid,
    CampaignWorker,
    ParallelEvaluator,
    ResultStore,
    open_store,
)
from repro.engine.store import SqliteResultStore
from repro.errors import VerificationError
from repro.platform import LiquidPlatform
from repro.service.client import ServiceClient
from repro.service.server import figure2_grid
from repro.workloads import (
    ArithWorkload,
    BlastnWorkload,
    DrrWorkload,
    FragWorkload,
    small_workloads,
)

#: Record encoder used to compare measurements field by field.
_ENCODER = ResultStore()

#: Weight presets of the service's ``POST /tune`` and their library values.
_PRESETS = {"runtime": RUNTIME_OPTIMIZATION,
            "resources": RESOURCE_OPTIMIZATION,
            "runtime-only": RUNTIME_ONLY}


def small_suite(seed: int, arith_iterations: Optional[int] = None) -> List[Any]:
    """The four applications at test-suite sizes, inputs drawn from ``seed``."""
    rng = random.Random(seed)
    return [
        BlastnWorkload(database_length=1500, query_length=64, query_count=1,
                       seed=rng.randrange(1, 1 << 30)),
        DrrWorkload(packet_count=200, seed=rng.randrange(1, 1 << 30)),
        FragWorkload(packet_count=6, seed=rng.randrange(1, 1 << 30)),
        ArithWorkload(iterations=arith_iterations or rng.randrange(250, 350)),
    ]


def standard_suite(seed: int) -> List[Any]:
    """The four applications at the experiment script's (standard) sizes.

    Only the data seeds come from ``seed``; Arith has no input data.
    """
    rng = random.Random(seed)
    return [BlastnWorkload(seed=rng.randrange(1, 1 << 30)),
            DrrWorkload(seed=rng.randrange(1, 1 << 30)),
            FragWorkload(seed=rng.randrange(1, 1 << 30)),
            ArithWorkload()]


def verify_all(apps) -> List[str]:
    """Simulate each application and compare its outputs with Python's."""
    errors = []
    for app in apps:
        try:
            app.verify()
        except VerificationError as exc:
            errors.append(str(exc))
    return errors


def new_evaluator(store=None) -> ParallelEvaluator:
    """The engine as ``run_experiments.py`` builds it (CPU-count workers)."""
    return ParallelEvaluator(LiquidPlatform(), store=store)


class ConfigSampler:
    """Uniform draws of valid, buildable configurations of the LEON space."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.params = list(leon_parameter_space())
        self.base = base_configuration()

    def grid(self, size: int) -> List[Configuration]:
        # a platform per grid: its synthesis memo would otherwise grow
        # with every draw of the run and slow the timed operations' GC
        platform = LiquidPlatform()
        configs: Dict[Configuration, None] = {}
        while len(configs) < size:
            config = self.base.replace(
                **{p.name: self.rng.choice(p.values) for p in self.params})
            if not check_rules(config) and platform.fits(config):
                configs[config] = None
        return list(configs)


def tuning_summary(app, result) -> Dict[str, Any]:
    """The outputs of one tuning run that a caller acts on."""
    return {"configuration": result.configuration.as_dict(),
            "actual": _ENCODER.encode(app, result.actual)}


def check_tuning(apps, results, only: Optional[int] = None) -> List[str]:
    """Tuning outputs against the bare platform (no engine, no store).

    ``only`` restricts the (costly) reference tuning to one application.
    """
    errors = verify_all(apps)
    for index, (app, result) in enumerate(zip(apps, results)):
        if only is not None and index != only:
            continue
        reference = MicroarchTuner(LiquidPlatform()).tune(
            app, RUNTIME_OPTIMIZATION, verify=True)
        if tuning_summary(app, result) != tuning_summary(app, reference):
            errors.append(f"{app.name}: tuned result differs from the bare platform")
    return errors


def tune_suite(apps, store=None):
    """Tune every application with a fresh engine; (requests, results)."""
    with new_evaluator(store) as evaluator:
        tuner = MicroarchTuner(evaluator)
        results = [tuner.tune(app, RUNTIME_OPTIMIZATION, verify=True)
                   for app in apps]
    return evaluator.stats.requested, results


class TuneCold:
    """Tune applications never seen before, persisting into a result store.

    Every operation draws fresh application inputs, so the functional
    simulator, decode, replay, timing model, solver and store writes all
    run: nothing is reusable.  Each check re-tunes one application on the
    bare platform, in turn, so checks do not crowd out operations.
    """

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.workdir = workdir
        self.checks = 0
        # Arith's only input is its loop count; stepping it through the
        # suite's 250..349 range by a stride coprime to 100 keeps it from
        # repeating (and hitting the store) within a run, and spreads any
        # run's counts over the whole range (the golden-ratio stride), so
        # the mean size does not depend on where the seed starts it
        self.arith_offset = rng.randrange(100)

    def setup(self) -> None:
        self.store = open_store(os.path.join(self.workdir, "cold.sqlite"))
        self.run(self.prepare(-1))

    def prepare(self, index: int):
        return small_suite(self.rng.randrange(1 << 30),
                           250 + (self.arith_offset + 61 * index) % 100)

    def run(self, apps):
        requested, results = tune_suite(apps, self.store)
        return requested, results, None

    def check(self, apps, results) -> List[str]:
        self.checks += 1
        return check_tuning(apps, results, only=self.checks % len(apps))

    def teardown(self) -> None:
        if getattr(self, "store", None) is not None:
            self.store.close()


class TuneWarm:
    """Re-tune known applications from a new process against a warm store.

    Set-up tunes one application suite into the store; every operation
    rebuilds the same applications from their inputs (as a new process
    would) and tunes them again with a fresh engine over that store, so
    every measurement is a store hit and nothing is replayed.
    """

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.path = os.path.join(workdir, "warm.sqlite")

    def setup(self) -> None:
        self.suite_seed = self.rng.randrange(1 << 30)
        apps = small_suite(self.suite_seed)
        with contextlib.closing(open_store(self.path)) as store:
            _, results = tune_suite(apps, store)
        self.expected = [tuning_summary(app, result)
                         for app, result in zip(apps, results)]
        self.setup_errors = check_tuning(apps, results)
        self.run(self.prepare(-1))

    def prepare(self, index: int):
        return small_suite(self.suite_seed)

    def run(self, apps):
        with contextlib.closing(open_store(self.path)) as store:
            requested, results = tune_suite(apps, store)
        return requested, results, None

    def check(self, apps, results) -> List[str]:
        return [f"{app.name}: warm result differs from the cold one"
                for app, result, expected in zip(apps, results, self.expected)
                if tuning_summary(app, result) != expected]

    def teardown(self) -> None:
        pass


class Campaign:
    """Drain the Figure-2 grid of standard-size applications as a campaign.

    One operation is what ``run_experiments.py --grid-db F --register``
    followed by ``--claim`` does with its defaults: register the
    Figure-2 dcache grid of all four applications as rows of a fresh
    campaign SQLite file, then drain it with one ``CampaignWorker``
    (batches of 16 rows, an engine with one worker per CPU) that claims
    row batches, measures them through the broadcast sweep and writes the
    measurements back into the file.  The applications are simulated once
    in set-up, as a resident worker process would hold them; every
    operation starts a fresh engine, so every cache geometry is replayed.
    """

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.workdir = workdir
        self.reference: Dict[Tuple[str, Configuration], Dict[str, Any]] = {}

    def setup(self) -> None:
        self.apps = standard_suite(self.rng.randrange(1 << 30))
        self.setup_errors = verify_all(self.apps)
        self.configs = figure2_grid(LiquidPlatform())
        self.run(self.prepare(-1))

    def prepare(self, index: int) -> str:
        return os.path.join(self.workdir, f"grid-{index + 1}.sqlite")

    def run(self, path: str):
        platform = LiquidPlatform()
        with CampaignGrid(path) as grid:
            grid.bind_platform(platform.device, platform.timing_parameters)
            for app in self.apps:
                grid.register(app, self.configs)
            with CampaignWorker(grid, self.apps, platform=platform,
                                workers=os.cpu_count() or 1) as worker:
                report = worker.run()
        return report.done, report, None

    def check(self, path: str, report) -> List[str]:
        platform = LiquidPlatform()
        errors = []
        with CampaignGrid(path) as grid:
            counts = grid.status()
        if counts["done"] != counts["total"] or report.failed:
            errors.append(f"campaign not drained: {counts}")
        with contextlib.closing(SqliteResultStore(
                path, device=platform.device,
                timing_parameters=platform.timing_parameters)) as store:
            for app, config in itertools.product(self.apps, self.configs):
                key = (app.name, config)
                if key not in self.reference:  # the per-configuration path
                    self.reference[key] = _ENCODER.encode(
                        app, platform.measure(app, config))
                stored = store.get(app, config)
                if stored is None or _ENCODER.encode(app, stored) != self.reference[key]:
                    errors.append(
                        f"{app.name}: campaign row dcache {config.dcache_sets}x"
                        f"{config.dcache_setsize_kb}KB differs from the "
                        "per-configuration path")
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + suffix)
        return errors

    def teardown(self) -> None:
        pass


class Service:
    """A closed-loop client session against the resident tuning service.

    Set-up starts ``scripts/run_experiments.py --serve`` as its own
    process (its default engine: one worker per CPU, adaptive arena) at
    the service's small scale and sweeps one configuration per cache
    geometry of every application, so the cache replays are done before
    timing and sessions do not drift as the memo fills.

    One operation is one session of three jobs submitted over HTTP, each
    waited for before the next: a repeated Figure-2 sweep (answered from
    the service's memo), a sweep of 24 configurations never requested
    before (timing model plus store writes), and a BINLP tuning job; a
    ``GET /metrics`` read closes the session.  Its time is the sum of the
    jobs' lifetimes (submission to finish) as the server records them, so
    the client's polling period does not round it; what HTTP, JSON and
    polling add on top is reported as the ``http`` layer.
    """

    NEW_CONFIGS = 24
    #: Client poll period while a job runs.
    POLL_SECONDS = 0.02
    #: Server engine stages (``GET /metrics`` registry) -> benchmark layers.
    STAGES = {"trace_generation": "functional_sim",
              "cache_simulation": "replay",
              "sweep_evaluate": "timing_eval",
              "model_build": "solve",
              "solve": "solve"}
    #: Server engine counters -> benchmark work counters.
    COUNTERS = {"cache_simulations": "cache_sims",
                "sweep_evaluations": "timing_evals",
                "store_hits": "store_hits",
                "store_writes": "store_puts"}

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.workdir = workdir
        self.probe = None

    def setup(self) -> None:
        adopt_orphans()
        self.log = open(os.path.join(self.workdir, "server.log"), "wb")
        self.server = subprocess.Popen(
            [sys.executable, os.path.join("scripts", "run_experiments.py"),
             "--serve", "--scale", "small", "--port", "0",
             "--store", os.path.join(self.workdir, "service.sqlite")],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            start_new_session=True,
            env=dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1"))
        announce = self.server.stdout.readline()
        url = re.search(r"http://[^\s]+", announce)
        if url is None:
            raise RuntimeError(f"service did not start: {announce!r}")
        self.client = ServiceClient(url.group(0), timeout=60.0)
        self.apps = small_workloads()
        self.names = sorted(self.apps)
        self.sampler = ConfigSampler(self.rng)
        self.last = self.client.metrics()
        for name in self.names:
            self._wait(self.client.submit_sweep(name, self._geometry_cover()))
        self.run(self.prepare(-1))

    def _geometry_cover(self) -> List[Dict[str, Any]]:
        """One configuration per cache geometry (the other cache at its base)."""
        base = self.sampler.base
        platform = LiquidPlatform()
        cover = []
        for prefix, geometry in itertools.product(
                ("icache", "dcache"),
                itertools.product(CACHE_SET_COUNTS, CACHE_SET_SIZES_KB,
                                  CACHE_LINE_SIZES_WORDS, Replacement.ALL)):
            config = base.replace(**{
                f"{prefix}_{name}": value for name, value in zip(
                    ("sets", "setsize_kb", "linesize_words", "replacement"),
                    geometry)})
            if not check_rules(config) and platform.fits(config):
                cover.append(config.as_dict())
        return cover

    def _wait(self, submitted: Dict[str, Any]) -> Dict[str, Any]:
        return self.client.wait(submitted["id"], poll=self.POLL_SECONDS)

    def prepare(self, index: int):
        # rotate applications and presets so every run holds the same mix;
        # only the new configurations are drawn from the seed
        names, presets = self.names, sorted(_PRESETS)
        return {"sweep": names[index % 4], "new": names[(index + 1) % 4],
                "configs": [c.as_dict() for c in self.sampler.grid(self.NEW_CONFIGS)],
                "tune": names[(index + 2) % 4],
                "weights": presets[index % len(presets)]}

    def run(self, session):
        client = self.client
        start = time.perf_counter()
        jobs = (
            self._wait(client.submit_sweep(session["sweep"])),
            self._wait(client.submit_sweep(session["new"], session["configs"])),
            self._wait(client.submit_tune(session["tune"], weights=session["weights"])))
        before, self.last = self.last, client.metrics()
        wall = time.perf_counter() - start
        served = sum(j["finished_at"] - j["submitted_at"] for j in jobs)
        if self.probe is not None:
            self._account(before, self.last, wall - served, jobs)
        answered = self.last["engine"]["requested"] - before["engine"]["requested"]
        return answered, jobs, served

    def _account(self, before, after, client_seconds, jobs) -> None:
        """Book the server's per-session work into the layer probe."""
        probe = self.probe
        probe.add("http", client_seconds)
        for stage, layer in self.STAGES.items():
            probe.add(layer, stage_seconds(after, stage) - stage_seconds(before, stage))
        for counter, name in self.COUNTERS.items():
            probe.count(name, after["engine"][counter] - before["engine"][counter])
        probe.count("jobs", len(jobs))
        probe.count("job_queue_us", sum(
            int(1e6 * (j["started_at"] - j["submitted_at"])) for j in jobs))

    def check(self, session, outputs) -> List[str]:
        repeat, new, tune = outputs
        base = self.sampler.base
        reference = LiquidPlatform()
        errors = []
        for snapshot, name, configs in (
                (repeat, session["sweep"], figure2_grid(reference)),
                (new, session["new"], [base.replace(**c) for c in session["configs"]])):
            app = self.apps[name]
            expected = [_ENCODER.encode(app, reference.measure(app, config))
                        for config in configs]
            if snapshot["results"] != expected:
                errors.append(f"{name}: service sweep differs from the "
                              "per-configuration path")
        app = self.apps[session["tune"]]
        tuned = MicroarchTuner(reference).tune(
            app, _PRESETS[session["weights"]], verify=False)
        record = tune["results"][0]
        if (record["configuration"] != tuned.configuration.as_dict()
                or record["predicted"]["runtime_cycles"]
                != tuned.predicted.runtime_cycles):
            errors.append(f"{session['tune']}: service tune differs from the tuner")
        return errors

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            # SIGTERM is the service's graceful stop: drain jobs, join workers
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                os.killpg(server.pid, signal.SIGKILL)
                server.wait()
            # the server's own helpers (its multiprocessing resource
            # tracker) end only after it does; wait for its whole group
            if not reap_group(server.pid, timeout=10.0):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(server.pid, signal.SIGKILL)
                reap_group(server.pid, timeout=10.0)
            server.stdout.close()
        if getattr(self, "log", None) is not None:
            self.log.close()


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of its descendants that lose theirs.

    The service's resource tracker outlives the service by a moment;
    adopted, it can be waited for here instead of lingering under init.
    """
    with contextlib.suppress(AttributeError, OSError):
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_group(pgid: int, timeout: float) -> bool:
    """Wait until process group ``pgid`` has no live or unreaped member.

    Members adopted by this process are reaped here; a zombie that
    belongs to another parent has ended and is not waited for.
    """
    me = os.getpid()
    deadline = time.monotonic() + timeout
    while True:
        pending = False
        for pid, parent, group, state in processes():
            if group != pgid:
                continue
            if parent == me:
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)
                pending = True
            elif state != "Z":
                pending = True
        if not pending:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def processes():
    """``(pid, parent pid, process group, state)`` of every process."""
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:  # ended while listing
            continue
        # fields after the parenthesised command: state, ppid, pgrp, ...
        state, parent, group = stat[stat.rindex(")") + 2:].split()[:3]
        yield int(name), int(parent), int(group), state


def stage_seconds(metrics: Dict[str, Any], stage: str) -> float:
    """Total seconds of one engine stage in a ``GET /metrics`` document."""
    histogram = metrics["registry"].get(f"stage.{stage}")
    return histogram["total"] if histogram else 0.0


SCENARIOS = {"tune-cold": TuneCold, "tune-warm": TuneWarm,
             "campaign": Campaign, "service": Service}
