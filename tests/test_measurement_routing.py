"""Every measurement reaches the timing model through one broadcast call per batch.

There is one measurement path: a batch is planned once and its missing
configurations are timed by a single
:func:`~repro.microarch.timing.evaluate_many` call made from
:mod:`repro.platform.liquid`.  These tests count those calls for every
consumer -- the one-factor campaign (one and several workloads), the
tuner's verification measurement and a service sweep --
and check the platform's accounting of them.
"""

import pytest

from repro.config import base_configuration
from repro.core import MicroarchTuner, OneFactorCampaign, RUNTIME_OPTIMIZATION
from repro.engine import ResultStore
from repro.platform import LiquidPlatform, liquid
from repro.service import TuningService, server
from repro.workloads import ArithWorkload, DrrWorkload

DCACHE = ("dcache_sets", "dcache_setsize_kb")


@pytest.fixture()
def timing_calls(monkeypatch):
    """``(workload, configs)`` of every ``evaluate_many`` call the platform makes.

    The count is the length of the returned term table: one row per
    configuration timed.
    """
    calls = []
    original = liquid.evaluate_many

    def counted(summary, *args, **kwargs):
        table = original(summary, *args, **kwargs)
        calls.append((summary.name, len(table)))
        return table

    monkeypatch.setattr(liquid, "evaluate_many", counted)
    return calls


def assert_accounting(platform, calls):
    assert platform.stats.sweep_evaluations == sum(n for _, n in calls)
    assert platform.effort()["runs"] == platform.stats.sweep_evaluations
    assert "model_build" not in platform.stats.stage_seconds


@pytest.mark.parametrize("backend", ["platform", "engine"])
def test_campaign_run_is_one_call(timing_calls, backend):
    """The bare platform and one backed by the engine's result store."""
    store = ResultStore() if backend == "engine" else None
    platform = LiquidPlatform(store=store)
    model = OneFactorCampaign(platform).run(ArithWorkload(iterations=80), parameters=DCACHE)
    assert timing_calls == [("arith", 1 + len(model.measurements))]
    assert_accounting(platform, timing_calls)
    # a repeated campaign is answered from the memos: no timing call at all
    OneFactorCampaign(platform).run(ArithWorkload(iterations=80), parameters=DCACHE)
    assert len(timing_calls) == 1
    assert_accounting(platform, timing_calls)
    if store is not None:
        store.close()


def test_campaign_run_many_is_one_call_per_workload(timing_calls):
    platform = LiquidPlatform()
    workloads = [ArithWorkload(iterations=80), DrrWorkload(packet_count=40)]
    models = OneFactorCampaign(platform).run_many(workloads, parameters=DCACHE)
    configs = 1 + len(models["arith"].measurements)
    assert timing_calls == [("arith", configs), ("drr", configs)]
    assert_accounting(platform, timing_calls)


def test_tuner_verification_is_one_call(timing_calls):
    platform = LiquidPlatform()
    workload = ArithWorkload(iterations=80)
    tuner = MicroarchTuner(platform)
    model = tuner.build_model(workload)
    assert len(timing_calls) == 1
    result = tuner.tune(workload, RUNTIME_OPTIMIZATION, model=model, verify=True)
    # several perturbations combined: a configuration the campaign never measured
    assert len(result.changed_parameters()) > 1
    assert timing_calls[1:] == [("arith", 1)]
    assert_accounting(platform, timing_calls)


def test_engine_plans_each_batch_once(monkeypatch):
    """A batch's one ``cache_plan`` feeds its assembly."""
    plans = []
    original = LiquidPlatform.cache_plan

    def counted(self, workload, configs):
        plans.append(len(configs))
        return original(self, workload, configs)

    monkeypatch.setattr(LiquidPlatform, "cache_plan", counted)
    base = base_configuration()
    LiquidPlatform().measure_many(
        ArithWorkload(iterations=80), [base, base.replace(dcache_sets=2), base])
    assert plans == [2]


@pytest.mark.parametrize("chunk", [2, 16])
def test_service_sweep_is_one_call_per_chunk(timing_calls, monkeypatch, chunk):
    configs = [{"dcache_sets": sets, "dcache_setsize_kb": size}
               for sets in (1, 2) for size in (1, 2)]
    monkeypatch.setattr(server, "SWEEP_CHUNK", chunk)
    with TuningService(scale="small") as service:
        job = service.submit_sweep({"workload": "arith", "configs": configs})
        assert service.jobs.drain(timeout=120.0)
        assert service.job_snapshot(job.id)["status"] == "done"
        assert timing_calls == [("arith", min(chunk, 4))] * -(-4 // chunk)
        assert_accounting(service.platform, timing_calls)
