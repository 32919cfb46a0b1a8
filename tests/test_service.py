"""Tests for the serving layer: admission, batching, fusion groups,
metrics, and the synchronous handle (fault injection lives in
``test_service_faults.py``)."""

import asyncio
import concurrent.futures
import time

import numpy as np
import pytest

import repro
from repro.core.params import TemplateParams
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ServiceError, WorkloadError
from repro.service import (
    MicroBatcher,
    PriorityClassQueue,
    Request,
    ServiceConfig,
    ServiceHandle,
    TemplateService,
    execute_batch_fused,
    percentile,
    percentiles,
    workload_cost,
    workload_kind,
)
from repro.trees.generator import generate_tree
from repro.core.recursive import RecursiveTreeWorkload


def make_workload(name="svc-wl", outer=1500, seed=0):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.8, size=outer).clip(max=200).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=name, trip_counts=trips,
        streams=[AccessStream("x", rng.integers(0, nnz, size=nnz) * 4)],
    )


@pytest.fixture(scope="module")
def workload():
    return make_workload()


@pytest.fixture(scope="module")
def tree_workload():
    return RecursiveTreeWorkload(generate_tree(depth=5, outdegree=3, seed=1),
                                 "descendants")


def run_service(scenario, config=None, **service_kwargs):
    """Run an async scenario against a started service, then stop it."""
    async def driver():
        service = TemplateService(config, **service_kwargs)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()
    return asyncio.run(driver())


class TestRequestModel:
    def test_workload_kind_and_cost(self, workload, tree_workload):
        assert workload_kind(workload) == "nested-loop"
        assert workload_kind(tree_workload) == "tree"
        assert workload_cost(workload) == workload.n_pairs
        assert workload_cost(tree_workload) == tree_workload.tree.n_nodes
        with pytest.raises(WorkloadError):
            workload_kind(object())

    def test_batch_key_is_content_addressed(self, workload):
        twin = make_workload()  # same content, different object
        r1 = Request(template="dbuf-global", workload=workload)
        r2 = Request(template="dbuf-global", workload=twin)
        assert r1.batch_key() == r2.batch_key()

    def test_batch_key_distinguishes_inputs(self, workload):
        base = Request(template="dbuf-global", workload=workload)
        assert base.batch_key() != Request(
            template="dual-queue", workload=workload).batch_key()
        assert base.batch_key() != Request(
            template="dbuf-global", workload=workload,
            engine="exact").batch_key()
        assert base.batch_key() != Request(
            template="dbuf-global", workload=workload,
            params=TemplateParams(lb_threshold=64)).batch_key()
        assert base.batch_key() != Request(
            template="dbuf-global", workload=make_workload(seed=7)
        ).batch_key()

    def test_invalid_template_and_engine_fail_eagerly(self, workload):
        with pytest.raises(repro.PlanError):
            Request(template="flat", workload=workload)
        with pytest.raises(repro.ConfigError):
            Request(template="dual-queue", workload=workload, engine="warp")
        for deadline in (0, -1.0, float("nan"), float("inf"), "3"):
            with pytest.raises(repro.ConfigError, match="deadline_s"):
                Request(template="dual-queue", workload=workload,
                        deadline_s=deadline)


class TestMicroBatcher:
    def test_grouping_coalesces_same_key(self, workload):
        batcher = MicroBatcher()
        reqs = [Request(template="dbuf-global", workload=workload)
                for _ in range(3)]
        reqs.append(Request(template="dual-queue", workload=workload))
        batches = batcher.group([(r, None) for r in reqs])
        assert sorted(b.size for b in batches) == [1, 3]


class TestServiceBasics:
    def test_single_request_matches_repro_run(self, workload):
        expected = repro.run(workload, "dbuf-global")

        async def scenario(service):
            return await service.submit("dbuf-global", workload)

        response = run_service(scenario)
        assert response.ok and not response.degraded
        assert response.time_ms == expected.time_ms
        assert response.template == "dbuf-global"
        assert response.workload == workload.name
        assert response.metrics["kernel_calls"] >= 1
        assert response.latency_s > 0
        assert response.attempts == 1

    def test_concurrent_identical_requests_are_batched(self, workload):
        async def scenario(service):
            responses = await asyncio.gather(*[
                service.submit("dbuf-global", workload) for _ in range(12)
            ])
            return responses, service.snapshot()

        responses, stats = run_service(
            scenario, ServiceConfig(max_batch=16, batch_window_s=0.05))
        assert all(r.ok for r in responses)
        assert len({r.time_ms for r in responses}) == 1
        assert max(r.batch_size for r in responses) > 1
        assert stats["batching"]["batches"] < 12
        assert stats["batching"]["coalesced_requests"] > 0

    def test_mixed_workloads_answered_correctly(self, workload):
        other = make_workload(name="svc-other", seed=5)
        expected_a = repro.run(workload, "dbuf-global")
        expected_b = repro.run(other, "dbuf-global")
        assert expected_a.time_ms != expected_b.time_ms

        async def scenario(service):
            return await asyncio.gather(*[
                service.submit("dbuf-global", wl)
                for wl in [workload, other] * 4
            ])

        responses = run_service(scenario)
        for i, response in enumerate(responses):
            expected = expected_a if i % 2 == 0 else expected_b
            assert response.time_ms == expected.time_ms
            assert response.workload == (workload.name if i % 2 == 0
                                         else other.name)

    def test_tree_workloads_served(self, tree_workload):
        expected = repro.run(tree_workload, "rec-hier")

        async def scenario(service):
            return await service.submit("rec-hier", tree_workload)

        response = run_service(scenario)
        assert response.ok
        assert response.time_ms == expected.time_ms

    def test_submit_on_stopped_service_raises(self, workload):
        async def driver():
            service = TemplateService()
            with pytest.raises(ServiceError, match="not running"):
                await service.submit("dbuf-global", workload)
        asyncio.run(driver())

    def test_stats_snapshot_shape(self, workload):
        async def scenario(service):
            await service.submit("dbuf-global", workload)
            return service.snapshot()

        stats = run_service(scenario)
        for section in ("requests", "batching", "queue", "plan_cache",
                        "latency_ms", "config"):
            assert section in stats
        assert stats["requests"]["served"] == 1
        assert stats["requests"]["succeeded"] == 1
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] >= 0


class RecordingRun:
    """run_fn that records the template names of every call's specs."""

    def __init__(self):
        self.calls = []

    def __call__(self, specs):
        self.calls.append([spec.template.name for spec in specs])
        return execute_batch_fused(specs)


class TestFusionGroups:
    """A window's batches run as one group per (backend, device, engine,
    priority); every answer equals ``repro.run``."""

    @staticmethod
    def _window(workload, submissions, config, run_fn=None):
        async def scenario(service):
            responses = await asyncio.gather(*[
                service.submit(name, workload, **kwargs)
                for name, kwargs in submissions
            ])
            return responses, service.snapshot()

        return run_service(scenario, config, run_fn=run_fn)

    def test_priority_classes_never_share_a_group(self, workload):
        record = RecordingRun()
        responses, stats = self._window(
            workload,
            [("dual-queue", dict(priority="high")),
             ("dbuf-global", dict(priority="low"))],
            ServiceConfig(batch_window_s=0.05), run_fn=record,
        )
        assert sorted(record.calls) == [["dbuf-global"], ["dual-queue"]]
        for name, response in zip(("dual-queue", "dbuf-global"), responses):
            expected = repro.run(workload, name)
            assert response.ok and response.template == name
            assert response.time_ms == expected.time_ms
            assert response.metrics == expected.metrics.as_dict()
        assert stats["batching"]["fused_passes"] == 0

    def test_queue_backend_window_fuses(self, workload):
        record = RecordingRun()
        names = ("dbuf-shared", "dual-queue")
        responses, stats = self._window(
            workload, [(name, {}) for name in names],
            ServiceConfig(backend="queue", batch_window_s=0.05),
            run_fn=record,
        )
        assert record.calls == [list(names)]
        for name, response in zip(names, responses):
            expected = repro.run(workload, name, backend="queue")
            assert response.ok and response.template == name
            assert response.time_ms == expected.time_ms
            assert response.metrics == expected.metrics.as_dict()
        # dbuf-shared needs launch-wide barriers: counted, run on BSP
        assert stats["batching"]["queue_fallbacks"] == 1
        assert stats["batching"]["fused_passes"] == 1

    def test_device_group_books_settle(self, workload):
        names = ("dbuf-global", "dual-queue")
        responses, stats = self._window(
            workload, [(name, {}) for name in names],
            ServiceConfig(devices=2, batch_window_s=0.05),
        )
        for name, response in zip(names, responses):
            assert response.ok
            assert response.time_ms == repro.run(workload, name).time_ms
        assert responses[0].device == responses[1].device
        devices = stats["devices"]
        assert devices["release_underflows"] == 0
        assert all(d["inflight"] == 0 for d in devices["per_device"])
        assert stats["batching"]["fused_passes"] == 1


class TestAdmissionControl:
    def test_queue_full_returns_structured_rejection(self, workload):
        import time as time_mod

        def slow_run(specs):
            time_mod.sleep(0.2)
            return execute_batch_fused(specs)

        async def scenario(service):
            first = asyncio.create_task(
                service.submit("dbuf-global", workload))
            await asyncio.sleep(0.05)  # first is admitted and executing
            second = await asyncio.wait_for(
                service.submit("dual-queue", workload), timeout=1.0)
            return await first, second

        first, second = run_service(
            scenario,
            ServiceConfig(max_pending=1, batch_window_s=0.0),
            run_fn=slow_run,
        )
        assert first.ok
        assert second.status == "rejected" and not second.ok
        assert "queue full" in second.reason
        assert "max_pending=1" in second.reason

    def test_rejections_counted(self, workload):
        import time as time_mod

        def slow_run(specs):
            time_mod.sleep(0.15)
            return execute_batch_fused(specs)

        async def scenario(service):
            first = asyncio.create_task(
                service.submit("dbuf-global", workload))
            await asyncio.sleep(0.05)
            rejected = await service.submit("dbuf-global", workload)
            await first
            return rejected, service.snapshot()

        rejected, stats = run_service(
            scenario, ServiceConfig(max_pending=1), run_fn=slow_run)
        assert rejected.status == "rejected"
        assert (stats["requests"]["admission_rejected"]
                + stats["requests"]["drain_rejected"]) == 1
        assert stats["requests"]["succeeded"] == 1


class TestServiceHandle:
    def test_sync_facade_roundtrip(self, workload):
        expected = repro.run(workload, "dbuf-global")
        with repro.serve(max_batch=8, batch_window_s=0.01) as svc:
            assert isinstance(svc, ServiceHandle)
            futures = [svc.submit("dbuf-global", workload) for _ in range(6)]
            responses = [f.result(timeout=30) for f in futures]
            one = svc.request("dual-queue", workload)
            stats = svc.stats()
        assert all(r.ok for r in responses)
        assert responses[0].time_ms == expected.time_ms
        assert one.ok and one.template == "dual-queue"
        assert stats["requests"]["succeeded"] == 7

    def test_submit_returns_concurrent_future(self, workload):
        with repro.serve() as svc:
            future = svc.submit("thread-mapped", workload)
            assert isinstance(future, concurrent.futures.Future)
            assert future.result(timeout=30).ok

    def test_closed_handle_rejects_use(self, workload):
        svc = repro.serve()
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(ServiceError, match="closed"):
            svc.submit("thread-mapped", workload)

    def test_serve_rejects_config_plus_kwargs(self):
        with pytest.raises(ServiceError, match="not both"):
            repro.serve(ServiceConfig(), max_batch=4)

    def test_bad_config_values_fail_fast(self):
        with pytest.raises(ServiceError):
            ServiceConfig(max_pending=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ServiceError):
            ServiceConfig(engine="warp")
        with pytest.raises(ServiceError):
            ServiceConfig(retry_backoff_s=-1)


class TestPriorityQueue:
    def test_strict_priority_dequeue(self):
        q = PriorityClassQueue()
        for priority in ("low", "normal", "high", "low", "high"):
            request = type("R", (), {"priority": priority})()
            q.put_nowait((request, priority))
        drained = [q.get_nowait()[1] for _ in range(q.qsize())]
        assert drained == ["high", "high", "normal", "low", "low"]
        assert q.empty()

    def test_requeue_front_preserves_fifo_within_class(self):
        q = PriorityClassQueue()
        items = []
        for i, priority in enumerate(("normal", "normal", "high")):
            request = type("R", (), {"priority": priority})()
            items.append((request, (priority, i)))
            q.put_nowait(items[-1])
        window = [q.get_nowait() for _ in range(2)]  # high, normal#0
        q.requeue_front(window)
        order = [q.get_nowait()[1] for _ in range(3)]
        assert order == [("high", 2), ("normal", 0), ("normal", 1)]


class TestSLOScheduling:
    def test_priority_separates_batch_identities(self, workload):
        batcher = MicroBatcher()
        reqs = [
            Request(template="dbuf-global", workload=workload,
                    priority=priority)
            for priority in ("high", "high", "low")
        ]
        batches = batcher.group([(r, None) for r in reqs])
        assert sorted(b.size for b in batches) == [1, 2]
        assert {b.priority for b in batches} == {"high", "low"}

    def test_class_bound_rejects_with_kind(self, workload):
        def slow(specs):
            time.sleep(0.1)
            return execute_batch_fused(specs)

        async def scenario(service):
            blocker = asyncio.create_task(
                service.submit("dual-queue", workload, priority="low"))
            await asyncio.sleep(0.03)
            low = await service.submit("dual-queue", workload, priority="low")
            high = await service.submit("dual-queue", workload,
                                        priority="high")
            return await blocker, low, high, service.snapshot()

        blocker, low, high, stats = run_service(
            scenario,
            ServiceConfig(max_pending_per_class={"low": 1},
                          batch_window_s=0.0),
            run_fn=slow,
        )
        assert blocker.ok and high.ok
        assert low.status == "rejected"
        assert "class full" in low.reason
        assert low.priority == "low" and low.id >= 0
        assert stats["requests"]["class_rejected"] == 1
        assert stats["classes"]["low"]["rejected"] == 1
        assert stats["classes"]["high"]["succeeded"] == 1

    def test_tenant_quota_rejects_with_kind(self, workload):
        def slow(specs):
            time.sleep(0.1)
            return execute_batch_fused(specs)

        async def scenario(service):
            blocker = asyncio.create_task(
                service.submit("dual-queue", workload, tenant="acme"))
            await asyncio.sleep(0.03)
            over = await service.submit("dual-queue", workload, tenant="acme")
            other = await service.submit("dual-queue", workload,
                                         tenant="globex")
            return await blocker, over, other, service.snapshot()

        blocker, over, other, stats = run_service(
            scenario,
            ServiceConfig(tenant_quotas={"acme": 1}, batch_window_s=0.0),
            run_fn=slow,
        )
        assert blocker.ok and other.ok
        assert over.status == "rejected"
        assert "tenant quota" in over.reason and over.tenant == "acme"
        assert stats["requests"]["quota_rejected"] == 1

    def test_expired_deadline_is_shed(self, workload):
        async def scenario(service):
            response = await service.submit("dual-queue", workload,
                                            deadline_s=0.001)
            return response, service.snapshot()

        response, stats = run_service(
            scenario, ServiceConfig(batch_window_s=0.05))
        assert response.status == "shed" and not response.ok
        assert "deadline" in response.reason
        assert stats["requests"]["shed"] == 1
        assert stats["requests"]["served"] == 1  # shed is a terminal answer

    def test_shedding_disabled_runs_late_work(self, workload):
        async def scenario(service):
            return await service.submit("dual-queue", workload,
                                        deadline_s=0.001)

        response = run_service(
            scenario,
            ServiceConfig(batch_window_s=0.05, shed_deadlines=False))
        assert response.ok

    def test_low_priority_dynpar_degrades_under_load(self, workload):
        async def scenario(service):
            low = await service.submit("dpar-opt", workload, priority="low")
            high = await service.submit("dpar-opt", workload, priority="high")
            return low, high, service.snapshot()

        low, high, stats = run_service(
            scenario, ServiceConfig(degrade_pending_threshold=1))
        assert low.ok and low.degraded
        # ThreadMappedTemplate's historical .name is "baseline"
        assert low.template == "baseline"
        assert high.ok and not high.degraded  # only low traffic pays
        assert stats["requests"]["load_degraded"] == 1

    def test_autoscaler_grows_the_device_group(self, workload):
        def slow(specs):
            time.sleep(0.3)
            return execute_batch_fused(specs)

        async def scenario(service):
            tasks = [
                asyncio.create_task(service.submit("dual-queue", workload))
                for _ in range(6)
            ]
            await asyncio.sleep(0.15)  # several evaluations, work in flight
            under_load = service.snapshot()
            responses = await asyncio.gather(*tasks)
            return responses, under_load, service.snapshot()

        responses, under_load, final = run_service(
            scenario,
            ServiceConfig(
                devices=1, autoscale=True, max_devices=3,
                scale_up_pending_per_device=1, scale_check_interval_s=0.01,
                scale_cooldown_s=0.02, batch_window_s=0.0, max_batch=1,
            ),
            run_fn=slow,
        )
        assert all(r.ok for r in responses)
        assert under_load["autoscaler"]["scale_ups"] >= 1
        assert under_load["devices"]["devices"] >= 2
        # bounds respected throughout; may have scaled back down when idle
        assert 1 <= final["devices"]["devices"] <= 3

    def test_response_echoes_slo_metadata(self, workload):
        async def scenario(service):
            return await service.submit(
                "dual-queue", workload, tenant="acme", priority="high",
                deadline_s=30.0)

        response = run_service(scenario)
        assert response.ok
        assert response.tenant == "acme" and response.priority == "high"


class TestPercentiles:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_percentiles_dict(self):
        out = percentiles(range(101))
        assert out["p50"] == pytest.approx(50.0)
        assert out["p95"] == pytest.approx(95.0)
        assert out["p99"] == pytest.approx(99.0)
