"""Fault injection for the serving layer.

Crashing and hanging workers are monkeypatched ``run_fn``s (and, for the
pool route, a thread-backed executor factory), so every retry/timeout/
degradation path runs without a real child process dying — and without
ever wedging the suite: hangs are short sleeps that outlive only the
configured timeout.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ServiceError
from repro.service import (
    BatchSpec,
    ServiceConfig,
    TemplateService,
    WorkerPool,
    WorkerTimeoutError,
    execute_batch,
)


def make_workload(name="fault-wl", outer=800, seed=3):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.8, size=outer).clip(max=100).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=name, trip_counts=trips,
        streams=[AccessStream("x", rng.integers(0, nnz, size=nnz) * 4)],
    )


@pytest.fixture(scope="module")
def workload():
    return make_workload()


FAST_RETRY = dict(max_retries=2, retry_backoff_s=0.001)


def run_service(scenario, config=None, **service_kwargs):
    async def driver():
        service = TemplateService(config, **service_kwargs)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()
    return asyncio.run(driver())


class FlakyRun:
    """run_fn that fails ``failures`` times, then succeeds."""

    def __init__(self, failures: int, exc=RuntimeError("injected crash")):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return execute_batch(spec)


class TestRetry:
    def test_transient_crashes_are_retried(self, workload):
        flaky = FlakyRun(failures=2)

        async def scenario(service):
            return await service.submit("dual-queue", workload)

        response = run_service(
            scenario, ServiceConfig(**FAST_RETRY), run_fn=flaky)
        assert response.ok and not response.degraded
        assert response.attempts == 3
        assert flaky.calls == 3
        expected = repro.run(workload, "dual-queue")
        assert response.time_ms == expected.time_ms

    def test_retry_counters(self, workload):
        flaky = FlakyRun(failures=1)

        async def scenario(service):
            await service.submit("dual-queue", workload)
            return service.snapshot()

        stats = run_service(
            scenario, ServiceConfig(**FAST_RETRY), run_fn=flaky)
        assert stats["requests"]["retries"] == 1
        assert stats["requests"]["failed"] == 0

    def test_exhausted_retries_fail_with_reason(self, workload):
        always = FlakyRun(failures=10**9, exc=RuntimeError("disk on fire"))

        async def scenario(service):
            return await service.submit("dual-queue", workload), \
                service.snapshot()

        response, stats = run_service(
            scenario, ServiceConfig(**FAST_RETRY), run_fn=always)
        assert response.status == "failed" and not response.ok
        assert "disk on fire" in response.reason
        assert response.attempts == 3  # 1 try + 2 retries
        assert stats["requests"]["failed"] == 1
        assert stats["requests"]["degraded"] == 0


class TestDegradation:
    def test_dynpar_template_degrades_to_thread_mapped(self, workload):
        def crash_dpar(spec):
            if isinstance(spec.template, str) and \
                    spec.template.startswith("dpar"):
                raise RuntimeError("nested launch pool exhausted")
            return execute_batch(spec)

        async def scenario(service):
            return await service.submit("dpar-opt", workload), \
                service.snapshot()

        response, stats = run_service(
            scenario, ServiceConfig(**FAST_RETRY), run_fn=crash_dpar)
        assert response.ok and response.degraded
        # ThreadMappedTemplate's historical .name is "baseline"
        assert response.template == "baseline"
        assert response.route == "inline"
        expected = repro.run(workload, "thread-mapped")
        assert response.time_ms == expected.time_ms
        assert stats["requests"]["degraded"] == 1
        assert stats["requests"]["succeeded"] == 1
        assert stats["requests"]["failed"] == 0

    def test_tree_dynpar_degrades_to_flat(self):
        from repro.core.recursive import RecursiveTreeWorkload
        from repro.trees.generator import generate_tree
        tree_wl = RecursiveTreeWorkload(
            generate_tree(depth=4, outdegree=3, seed=2), "descendants")

        def crash_rec(spec):
            if isinstance(spec.template, str) and \
                    spec.template.startswith("rec-"):
                raise RuntimeError("recursion depth")
            return execute_batch(spec)

        async def scenario(service):
            return await service.submit("rec-hier", tree_wl)

        response = run_service(
            scenario, ServiceConfig(**FAST_RETRY), run_fn=crash_rec)
        assert response.ok and response.degraded
        assert response.template == "flat"

    def test_degradation_disabled_fails_instead(self, workload):
        def crash_dpar(spec):
            raise RuntimeError("kaboom")

        async def scenario(service):
            return await service.submit("dpar-opt", workload)

        response = run_service(
            scenario, ServiceConfig(degrade=False, **FAST_RETRY),
            run_fn=crash_dpar)
        assert response.status == "failed"
        assert "kaboom" in response.reason

    def test_non_dynpar_template_never_degrades(self, workload):
        def always_crash(spec):
            raise RuntimeError("kaboom")

        async def scenario(service):
            return await service.submit("dbuf-shared", workload)

        response = run_service(
            scenario, ServiceConfig(**FAST_RETRY), run_fn=always_crash)
        assert response.status == "failed" and not response.degraded


class TestTimeouts:
    def test_hanging_inline_run_times_out_without_wedging(self, workload):
        calls = {"n": 0}

        def hang_once(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(0.3)  # far beyond the 0.05s timeout
            return execute_batch(spec)

        async def scenario(service):
            first = await service.submit("dual-queue", workload)
            second = await service.submit("dbuf-global", workload)
            return first, second, service.snapshot()

        first, second, stats = run_service(
            scenario,
            ServiceConfig(request_timeout_s=0.05, max_retries=1,
                          retry_backoff_s=0.001),
            run_fn=hang_once,
        )
        # first request: attempt 1 hung (timeout), retry succeeded
        assert first.ok and first.attempts == 2
        assert stats["requests"]["timeouts"] == 1
        # service is still alive and serving
        assert second.ok

    def test_hang_past_all_retries_fails(self, workload):
        def always_hang(spec):
            time.sleep(0.2)
            return execute_batch(spec)

        async def scenario(service):
            return await service.submit("dual-queue", workload)

        response = run_service(
            scenario,
            ServiceConfig(request_timeout_s=0.02, max_retries=1,
                          retry_backoff_s=0.001),
            run_fn=always_hang,
        )
        assert response.status == "failed"
        assert "Timeout" in response.reason


class TestWorkerPool:
    def test_pool_timeout_recycles(self, workload):
        def hang(spec):
            time.sleep(0.3)
            return execute_batch(spec)

        pool = WorkerPool(
            max_workers=1,
            executor_factory=lambda n: ThreadPoolExecutor(n),
            run_fn=hang,
        )
        spec = BatchSpec(template="dual-queue", workload=workload,
                         kind="nested-loop")

        async def driver():
            with pytest.raises(WorkerTimeoutError):
                await pool.run(spec, timeout_s=0.02)

        asyncio.run(driver())
        assert pool.timeouts == 1
        assert pool.recycles == 1
        pool.shutdown()

    def test_pool_crash_route_degrades_end_to_end(self, workload):
        """A crashing *pool* worker triggers retry-then-degrade."""
        def crash_dpar(spec):
            if isinstance(spec.template, str) and \
                    spec.template.startswith("dpar"):
                raise RuntimeError("worker segfault (simulated)")
            return execute_batch(spec)

        pool = WorkerPool(
            max_workers=1,
            executor_factory=lambda n: ThreadPoolExecutor(n),
            run_fn=crash_dpar,
        )

        async def scenario(service):
            return await service.submit("dpar-opt", workload), \
                service.snapshot()

        response, stats = run_service(
            scenario,
            # everything routes to the pool; the degraded fallback
            # deliberately runs inline (execute_batch via run_fn default)
            ServiceConfig(inline_cost_threshold=0, **FAST_RETRY),
            worker_pool=pool,
        )
        assert response.ok and response.degraded
        assert response.route == "inline"
        assert stats["pool"]["submitted"] == 3  # 1 try + 2 retries
        assert stats["requests"]["degraded"] == 1
        pool.shutdown()

    def test_real_process_pool_roundtrip(self, workload):
        """One real ProcessPoolExecutor execution through the pool route."""
        async def scenario(service):
            return await service.submit("dbuf-global", workload)

        response = run_service(
            scenario,
            ServiceConfig(inline_cost_threshold=0, workers=1),
        )
        assert response.ok and response.route == "pool"
        expected = repro.run(workload, "dbuf-global")
        assert response.time_ms == expected.time_ms


class TestStopBehaviour:
    def test_stop_answers_queued_requests(self, workload):
        """stop(drain=False) rejects queued work instead of dropping it."""
        def slow(spec):
            time.sleep(0.1)
            return execute_batch(spec)

        async def driver():
            service = TemplateService(
                ServiceConfig(batch_window_s=0.0), run_fn=slow)
            await service.start()
            tasks = [
                asyncio.create_task(service.submit("dual-queue", workload))
                for _ in range(3)
            ]
            await asyncio.sleep(0.02)
            await service.stop(drain=False)
            return await asyncio.gather(*tasks)

        responses = asyncio.run(driver())
        # every submitted request got *an* answer — none hang forever
        assert all(r.status in ("ok", "rejected") for r in responses)


class TestDispatchCrash:
    """Failures the retry loop does not model must never leak futures."""

    def test_malformed_summary_yields_failed_response(self, workload):
        """run_fn returning garbage used to kill the dispatch task,

        leaving the member futures unanswered and ``_pending`` stuck —
        ``stop(drain=True)`` then spun forever.  The dispatch wrapper now
        converts the escaping ``KeyError`` into structured failures.
        """
        def malformed(spec):
            return {}  # no template/time_ms/metrics keys

        async def scenario(service):
            response = await service.submit("dual-queue", workload)
            return response, service.pending, service.snapshot()

        response, pending_after, stats = run_service(
            scenario,
            ServiceConfig(max_retries=0, retry_backoff_s=0.001,
                          drain_timeout_s=1.0),
            run_fn=malformed,
        )
        assert response.status == "failed" and not response.ok
        assert "dispatch error" in response.reason
        assert "KeyError" in response.reason
        assert pending_after == 0  # books un-counted, not leaked
        assert stats["requests"]["failed"] == 1
        assert stats["requests"]["served"] == 1

    def test_crash_during_dispatch_then_drain_stop_returns(self, workload):
        """stop(drain=True) must return promptly after a dispatch crash."""
        def malformed(spec):
            return {"time_ms": None}  # still missing response keys

        async def driver():
            service = TemplateService(
                ServiceConfig(max_retries=0, retry_backoff_s=0.001,
                              batch_window_s=0.0),
                run_fn=malformed,
            )
            await service.start()
            tasks = [
                asyncio.create_task(service.submit("dual-queue", workload))
                for _ in range(4)
            ]
            await asyncio.sleep(0.05)
            t0 = time.perf_counter()
            await service.stop(drain=True)
            stop_s = time.perf_counter() - t0
            return await asyncio.gather(*tasks), stop_s

        responses, stop_s = asyncio.run(driver())
        assert all(r.status in ("failed", "rejected") for r in responses)
        assert stop_s < 5.0  # pre-fix this hung for drain_timeout_s (30s)

    def test_wedged_dispatch_is_bounded_by_drain_timeout(self, workload):
        """A run_fn that never returns cannot wedge stop(drain=True)."""
        def hang(spec):
            time.sleep(0.4)  # far beyond the drain bound
            return execute_batch(spec)

        async def driver():
            service = TemplateService(
                ServiceConfig(request_timeout_s=None, drain_timeout_s=0.05,
                              batch_window_s=0.0),
                run_fn=hang,
            )
            await service.start()
            task = asyncio.create_task(service.submit("dual-queue", workload))
            await asyncio.sleep(0.02)
            t0 = time.perf_counter()
            await service.stop(drain=True)
            stop_s = time.perf_counter() - t0
            return await task, stop_s

        response, stop_s = asyncio.run(driver())
        assert response.status == "failed"
        assert "cancelled" in response.reason
        assert stop_s < 0.4  # bounded by drain_timeout_s, not the hang


class TestRejectionIds:
    def test_rejections_carry_real_monotonic_ids(self, workload):
        """Structured rejections used to share the sentinel id=-1."""
        def slow(spec):
            time.sleep(0.08)
            return execute_batch(spec)

        async def scenario(service):
            first = asyncio.create_task(
                service.submit("dual-queue", workload))
            await asyncio.sleep(0.02)  # let it be admitted + dispatched
            rejected = [
                await service.submit("dual-queue", workload)
                for _ in range(3)
            ]
            return await first, rejected

        ok, rejected = run_service(
            scenario,
            ServiceConfig(max_pending=1, batch_window_s=0.0),
            run_fn=slow,
        )
        assert ok.ok and ok.id == 0
        assert [r.status for r in rejected] == ["rejected"] * 3
        ids = [r.id for r in rejected]
        assert ids == [1, 2, 3]  # real, distinct, monotonic — never -1

    def test_drain_false_rejections_echo_request_ids(self, workload):
        def slow(spec):
            time.sleep(0.1)
            return execute_batch(spec)

        async def driver():
            service = TemplateService(
                ServiceConfig(batch_window_s=0.0, max_batch=1), run_fn=slow)
            await service.start()
            tasks = [
                asyncio.create_task(service.submit("dual-queue", workload))
                for _ in range(4)
            ]
            await asyncio.sleep(0.02)
            await service.stop(drain=False)
            return await asyncio.gather(*tasks)

        responses = asyncio.run(driver())
        assert sorted(r.id for r in responses) == [0, 1, 2, 3]
        assert all(r.id >= 0 for r in responses)


class TestConfigValidation:
    """ServiceConfig gaps that used to slip through to runtime faults."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(workers=0), "workers must be >= 1"),
            (dict(workers=-2), "workers must be >= 1"),
            (dict(request_timeout_s=0), "request_timeout_s must be positive"),
            (dict(request_timeout_s=-1.5),
             "request_timeout_s must be positive"),
            (dict(stats_window=0), "stats_window must be >= 1"),
            # exact wording MicroBatcher itself uses
            (dict(inline_cost_threshold=-1),
             "inline_cost_threshold cannot be negative"),
            (dict(drain_timeout_s=0), "drain_timeout_s must be positive"),
            (dict(default_priority="urgent"), "unknown priority"),
            (dict(max_pending_per_class={"urgent": 4}), "unknown priority"),
            (dict(max_pending_per_class={"low": 0}), "must be >= 1"),
            (dict(tenant_quota=0), "tenant_quota must be >= 1"),
            (dict(tenant_quotas={"acme": 0}), "must be >= 1"),
            (dict(default_deadline_s=0), "default_deadline_s"),
            (dict(degrade_pending_threshold=0), "degrade_pending_threshold"),
            (dict(autoscale=True, devices=2, max_devices=1),
             "autoscale bounds"),
            (dict(autoscale=True, backend="queue"), "single-device"),
            (dict(autoscale=True, max_devices=2, scale_check_interval_s=0),
             "scale_check_interval_s"),
            (dict(autoscale=True, max_devices=2,
                  scale_up_pending_per_device=0),
             "scale_up_pending_per_device"),
            (dict(autoscale=True, max_devices=2, scale_cooldown_s=-1),
             "scale_cooldown_s"),
        ],
    )
    def test_invalid_config_fails_fast(self, kwargs, match):
        with pytest.raises(ServiceError, match=match):
            ServiceConfig(**kwargs)

    def test_valid_boundary_values_accepted(self):
        config = ServiceConfig(
            workers=1, stats_window=1, inline_cost_threshold=0,
            request_timeout_s=None, drain_timeout_s=None,
            tenant_quota=1, max_pending_per_class={"low": 1},
            degrade_pending_threshold=1,
        )
        assert config.workers == 1
        assert config.min_devices == config.max_devices == config.devices
