"""Tests for the serving layer: admission, batching, fusion groups,
metrics, and the synchronous handle (fault injection lives in
``test_service_faults.py``)."""

import asyncio
import concurrent.futures

import numpy as np
import pytest

import repro
from repro.core import artifactcache
from repro.core.params import TemplateParams
from repro.core.plancache import default_cache
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ServiceError, WorkloadError
from repro.gpusim import GpuExecutor
from repro.service import (
    MicroBatcher,
    Request,
    ServiceConfig,
    ServiceHandle,
    TemplateService,
    execute_batch_fused,
    percentile,
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

        responses, stats = run_service(scenario)
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
            await asyncio.wait_for(service.submit("dbuf-global", workload),
                                   30.0)
            return service.snapshot()

        stats = run_service(scenario)
        for section in ("requests", "batching", "queue", "plan_cache",
                        "latency_ms", "config"):
            assert section in stats
        assert stats["requests"]["served"] == 1
        assert stats["requests"]["succeeded"] == 1
        # the service's own snapshot keeps the depth counters while it runs
        assert stats["queue"] == {"depth": 0, "max_depth": 1}
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] >= 0


class RecordingRun:
    """run_fn that records the template names of every call's specs."""

    def __init__(self):
        self.calls = []

    def __call__(self, specs):
        self.calls.append([spec.template.name for spec in specs])
        return execute_batch_fused(specs)


class TestFusionGroups:
    """A window's batches run as one group per (device, engine);
    every answer equals ``repro.run``."""

    @staticmethod
    def _window(workload, names, config, run_fn=None):
        async def scenario(service):
            responses = await asyncio.wait_for(asyncio.gather(*[
                service.submit(name, workload) for name in names
            ]), 60.0)
            return responses, service.snapshot()

        return run_service(scenario, config, run_fn=run_fn)

    def test_two_templates_in_one_window_share_a_group(self, workload):
        record = RecordingRun()
        names = ("dual-queue", "dbuf-global")
        responses, stats = self._window(workload, names, None,
                                        run_fn=record)
        assert record.calls == [list(names)]
        for name, response in zip(names, responses):
            expected = repro.run(workload, name)
            assert response.ok and response.template == name
            assert response.time_ms == expected.time_ms
            assert response.metrics == expected.metrics.as_dict()
        assert stats["batching"]["fused_passes"] == 1

    def test_window_executes_each_identity_once(self, monkeypatch):
        """Twelve concurrent requests over two identities are two batches
        in one window: one ``run_fn`` call and one executor pass of two
        graphs answer all twelve."""
        monkeypatch.setattr(artifactcache, "_cache", None)
        workloads = [make_workload(name=f"svc-once-{seed}", seed=seed)
                     for seed in (31, 32)]
        expected = [repro.run(wl, "dbuf-global") for wl in workloads]
        default_cache().clear(reset_stats=True)
        passes = []
        run_many = GpuExecutor.run_many

        def counting_run_many(executor, graphs, *args, **kwargs):
            passes.append(len(graphs))
            return run_many(executor, graphs, *args, **kwargs)

        monkeypatch.setattr(GpuExecutor, "run_many", counting_run_many)
        record = RecordingRun()

        async def scenario(service):
            responses = await asyncio.gather(*[
                service.submit("dbuf-global", workloads[i % 2])
                for i in range(12)
            ])
            return responses, service.snapshot()

        responses, stats = run_service(scenario, run_fn=record)
        assert record.calls == [["dbuf-global", "dbuf-global"]]
        assert passes == [2]
        batching = stats["batching"]
        assert batching["batches"] == 2
        assert batching["coalesced_requests"] == 10
        assert batching["fused_passes"] == 1
        for i, response in enumerate(responses):
            want = expected[i % 2]
            assert response.ok
            assert response.workload == workloads[i % 2].name
            assert response.time_ms == want.time_ms
            assert response.metrics == want.metrics.as_dict()


class TestCollection:
    """The batch loop is work-conserving: a window is the head of the
    queue plus whatever is already queued behind it."""

    def test_lone_request_is_dispatched_without_waiting(self, workload):
        """On a default-config service a lone request is coalesced right
        after the one awaited ``get`` that took it: the loop does not
        await a second ``get`` for co-travellers that are not queued."""
        events = []
        record = RecordingRun()

        async def scenario(service):
            # patched before the scenario's first await, so before the
            # batch loop's first ``get``
            get = service._queue.get

            async def recording_get():
                events.append("get")
                return await get()

            service._queue.get = recording_get
            group = service.batcher.group

            def recording_group(pending):
                events.append(("group", len(pending)))
                return group(pending)

            service.batcher.group = recording_group
            return await asyncio.wait_for(
                service.submit("dbuf-global", workload), 30.0)

        response = run_service(scenario, run_fn=record)
        assert events[:2] == ["get", ("group", 1)]
        assert record.calls == [["dbuf-global"]]
        assert response.ok
        assert response.time_ms == repro.run(workload, "dbuf-global").time_ms

    def test_windows_keep_arrival_order(self):
        """Five requests queued together under ``max_batch=1`` form five
        windows in arrival order.  ``submit`` queues its request before
        it first awaits, so all five are queued before the batch loop
        takes its first window."""
        workloads = [make_workload(name=f"svc-fifo-{i}", outer=300,
                                   seed=40 + i) for i in range(5)]
        expected = [repro.run(wl, "dbuf-global") for wl in workloads]

        async def scenario(service):
            windows = []
            group = service.batcher.group

            def recording_group(pending):
                windows.append([r.workload.name for r, _ in pending])
                return group(pending)

            service.batcher.group = recording_group
            responses = await asyncio.wait_for(asyncio.gather(*[
                service.submit("dbuf-global", wl) for wl in workloads
            ]), 60.0)
            return windows, responses

        windows, responses = run_service(scenario, ServiceConfig(max_batch=1))
        assert windows == [[wl.name] for wl in workloads]
        for want, response in zip(expected, responses):
            assert response.ok
            assert response.time_ms == want.time_ms
            assert response.metrics == want.metrics.as_dict()


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
            ServiceConfig(max_pending=1),
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
        with repro.serve(max_batch=8) as svc:
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


class TestPercentiles:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0
