"""Fault injection for the serving layer.

Crashing and hanging runs are ``run_fn`` stand-ins (each takes one fusion
group's list of specs), so every retry/timeout/degradation path runs
without wedging the suite: hangs are short sleeps that outlive only the
configured timeout.
"""

import asyncio
import json
import time

import numpy as np
import pytest

import repro
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ConfigError, ServiceError
from repro.service import ServiceConfig, TemplateService, execute_batch_fused
from test_api import MALFORMED_ARGUMENTS, MALFORMED_IDS


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

#: malformed arguments ``submit`` once swapped for its defaults (they
#: are falsy); each must raise a ConfigError naming it
SUBMIT_MALFORMED_ARGUMENTS = [
    ("thread-mapped", dict(params={}), "params"),
    ("thread-mapped", dict(device=0), "device"),
]
SUBMIT_MALFORMED_IDS = ["empty-params", "zero-device"]


def names(specs):
    """Template names of one run_fn call's specs."""
    return [spec.template.name for spec in specs]


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

    def __call__(self, specs):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return execute_batch_fused(specs)


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
        def crash_dpar(specs):
            if any(name.startswith("dpar") for name in names(specs)):
                raise RuntimeError("nested launch pool exhausted")
            return execute_batch_fused(specs)

        async def scenario(service):
            return await service.submit("dpar-opt", workload), \
                service.snapshot()

        response, stats = run_service(
            scenario, ServiceConfig(**FAST_RETRY), run_fn=crash_dpar)
        assert response.ok and response.degraded
        # ThreadMappedTemplate's historical .name is "baseline"
        assert response.template == "baseline"
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

        def crash_rec(specs):
            if any(name.startswith("rec-") for name in names(specs)):
                raise RuntimeError("recursion depth")
            return execute_batch_fused(specs)

        async def scenario(service):
            return await service.submit("rec-hier", tree_wl)

        response = run_service(
            scenario, ServiceConfig(**FAST_RETRY), run_fn=crash_rec)
        assert response.ok and response.degraded
        assert response.template == "flat"

    def test_degradation_disabled_fails_instead(self, workload):
        def crash_dpar(specs):
            raise RuntimeError("kaboom")

        async def scenario(service):
            return await service.submit("dpar-opt", workload)

        response = run_service(
            scenario, ServiceConfig(degrade=False, **FAST_RETRY),
            run_fn=crash_dpar)
        assert response.status == "failed"
        assert "kaboom" in response.reason

    def test_non_dynpar_template_never_degrades(self, workload):
        def always_crash(specs):
            raise RuntimeError("kaboom")

        async def scenario(service):
            return await service.submit("dbuf-shared", workload)

        response = run_service(
            scenario, ServiceConfig(**FAST_RETRY), run_fn=always_crash)
        assert response.status == "failed" and not response.degraded


class TestFusedGroupFailure:
    """A failed group of several batches splits into one-batch groups, so
    fusion never fails a request that would have succeeded alone."""

    @staticmethod
    def _pair(workload, other, run_fn):
        async def scenario(service):
            responses = await asyncio.gather(
                service.submit("dual-queue", workload),
                service.submit(other, workload),
            )
            return responses, service.snapshot()

        return run_service(
            scenario, ServiceConfig(**FAST_RETRY),
            run_fn=run_fn)

    def test_group_failure_alone_fails_nobody(self, workload):
        sizes = []

        def unfusable(specs):
            sizes.append(len(specs))
            if len(specs) > 1:
                raise RuntimeError("fused pass failed")
            return execute_batch_fused(specs)

        responses, stats = self._pair(workload, "dbuf-global", unfusable)
        assert sizes == [2, 1, 1]
        for name, response in zip(("dual-queue", "dbuf-global"), responses):
            assert response.ok and not response.degraded
            assert response.attempts == 1
            assert response.time_ms == repro.run(workload, name).time_ms
        assert stats["requests"]["retries"] == 0
        assert stats["requests"]["failed"] == 0
        assert stats["batching"]["fused_passes"] == 0
        # the split counts each batch once, in its window
        assert stats["batching"]["batches"] == 2

    @pytest.mark.parametrize("bad", ["dpar-opt", "dbuf-shared"])
    def test_failing_member_gets_the_one_batch_policy(self, workload, bad):
        def crash_bad(specs):
            if bad in names(specs):
                raise RuntimeError(f"{bad} crashed")
            return execute_batch_fused(specs)

        (good, failing), stats = self._pair(workload, bad, crash_bad)
        assert good.ok and not good.degraded and good.attempts == 1
        assert good.time_ms == repro.run(workload, "dual-queue").time_ms
        # the failing member alone: one try plus max_retries retries
        assert stats["requests"]["retries"] == FAST_RETRY["max_retries"]
        if bad == "dpar-opt":
            assert failing.ok and failing.degraded
            # ThreadMappedTemplate's historical .name is "baseline"
            assert failing.template == "baseline"
            assert failing.time_ms == \
                repro.run(workload, "thread-mapped").time_ms
        else:
            assert failing.status == "failed" and not failing.degraded
            assert f"{bad} crashed" in failing.reason
            assert stats["requests"]["failed"] == 1


class TestTimeouts:
    def test_hanging_inline_run_times_out_without_wedging(self, workload):
        calls = {"n": 0}

        def hang_once(specs):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(0.3)  # far beyond the 0.05s timeout
            return execute_batch_fused(specs)

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
        def always_hang(specs):
            time.sleep(0.2)
            return execute_batch_fused(specs)

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


class TestStopBehaviour:
    def test_stop_answers_queued_requests(self, workload):
        """stop(drain=False) rejects queued work instead of dropping it."""
        def slow(specs):
            time.sleep(0.1)
            return execute_batch_fused(specs)

        async def driver():
            service = TemplateService(run_fn=slow)
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
        def malformed(specs):
            return {}  # no summary per spec

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
        def malformed(specs):
            return [{"time_ms": None}]  # missing response keys

        async def driver():
            service = TemplateService(
                ServiceConfig(max_retries=0, retry_backoff_s=0.001),
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
        def hang(specs):
            time.sleep(0.4)  # far beyond the drain bound
            return execute_batch_fused(specs)

        async def driver():
            service = TemplateService(
                ServiceConfig(request_timeout_s=None, drain_timeout_s=0.05),
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

    def test_grouping_error_fails_its_window_and_loop_serves_on(
            self, workload):
        """An exception from grouping a window used to end the batch
        loop: that request and every later one went unanswered, and
        ``stop()`` re-raised it.  Now the window is answered ``failed``
        and the next request is served."""
        async def two_requests():
            service = TemplateService(ServiceConfig(drain_timeout_s=1.0))
            group = service.batcher.group
            calls = []

            def group_failing_once(pending):
                calls.append(len(pending))
                if len(calls) == 1:
                    raise RuntimeError("grouping failed")
                return group(pending)

            service.batcher.group = group_failing_once
            await service.start()
            first = await asyncio.wait_for(
                service.submit("thread-mapped", workload), 5.0)
            second = await asyncio.wait_for(
                service.submit("thread-mapped", workload), 30.0)
            await asyncio.wait_for(service.stop(), 5.0)
            return first, second, service.stats.invariant_violations()

        first, second, problems = asyncio.run(two_requests())
        assert first.status == "failed"
        assert first.reason == "dispatch error: RuntimeError: grouping failed"
        assert second.ok
        assert problems == []


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "template, kwargs, argument",
        MALFORMED_ARGUMENTS + SUBMIT_MALFORMED_ARGUMENTS,
        ids=MALFORMED_IDS + SUBMIT_MALFORMED_IDS)
    def test_rejected_at_submit_and_service_keeps_serving(
            self, workload, template, kwargs, argument):
        """A malformed argument raises a ConfigError naming it from
        ``submit``, before anything is queued, and the same service
        answers the next valid request.  The bounded waits turn a wedged
        batch loop into a failure instead of a hang."""
        async def scenario(service):
            with pytest.raises(ConfigError, match=f"^{argument} must be"):
                await asyncio.wait_for(
                    service.submit(template, workload, **kwargs), 5.0)
            response = await asyncio.wait_for(
                service.submit("thread-mapped", workload), 30.0)
            return response, service.snapshot()

        response, stats = run_service(
            scenario, ServiceConfig(drain_timeout_s=1.0))
        assert response.ok
        assert response.time_ms == \
            repro.run(workload, "thread-mapped").time_ms
        assert stats["requests"]["submitted"] == 1


class TestRejectionIds:
    def test_rejections_carry_real_monotonic_ids(self, workload):
        """Structured rejections used to share the sentinel id=-1."""
        def slow(specs):
            time.sleep(0.08)
            return execute_batch_fused(specs)

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
            ServiceConfig(max_pending=1),
            run_fn=slow,
        )
        assert ok.ok and ok.id == 0
        assert [r.status for r in rejected] == ["rejected"] * 3
        ids = [r.id for r in rejected]
        assert ids == [1, 2, 3]  # real, distinct, monotonic — never -1

    def test_drain_false_rejections_echo_request_ids(self, workload):
        def slow(specs):
            time.sleep(0.1)
            return execute_batch_fused(specs)

        async def driver():
            service = TemplateService(
                ServiceConfig(max_batch=1), run_fn=slow)
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
    """ServiceConfig gaps that used to slip through to runtime faults.

    Rows are never deleted from the table, only replaced in place, so
    the parametrized ids of the rows after them keep their positions.
    """

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(max_batch="3"), "max_batch must be an integer"),
            (dict(max_pending=2.5), "max_pending must be an integer"),
            (dict(request_timeout_s=0), "request_timeout_s must be positive"),
            (dict(request_timeout_s=-1.5),
             "request_timeout_s must be positive"),
            (dict(max_retries=-1), "max_retries cannot be negative"),
            # a zero-ok duration still rejects infinity: the first retry
            # would never start
            (dict(retry_backoff_s=float("inf")),
             "retry_backoff_s must be a finite number"),
            (dict(drain_timeout_s=0), "drain_timeout_s must be positive"),
            # a device name used to start the service, then fail every
            # submit
            (dict(device="k20"), "device must be a DeviceConfig"),
            (dict(device=None), "device must be a DeviceConfig"),
            (dict(max_pending=0), "must be >= 1"),
            # a truthy string used to leave degradation on
            (dict(degrade="no"), "degrade must be a bool"),
            (dict(max_batch=0), "must be >= 1"),
            # each used to raise a bare TypeError from pathlib
            (dict(cache_dir=5), "cache_dir must be None, a string or a path"),
            (dict(cache_dir=b"/tmp/x"),
             "cache_dir must be None, a string or a path"),
            (dict(drain_timeout_s=float("inf")),
             "drain_timeout_s must be a finite number"),
            (dict(max_batch=2.5), "max_batch must be an integer"),
            (dict(request_timeout_s="1"),
             "request_timeout_s must be a finite number"),
            (dict(cache_dir=["/tmp"]),
             "cache_dir must be None, a string or a path"),
            (dict(retry_backoff_s=-1), "retry_backoff_s cannot be negative"),
            # NaN compares false with every bound, so each used to pass
            (dict(request_timeout_s=float("nan")),
             "request_timeout_s must be a finite number"),
            (dict(drain_timeout_s=float("nan")),
             "drain_timeout_s must be a finite number"),
            (dict(retry_backoff_s=float("nan")),
             "retry_backoff_s must be a finite number"),
            (dict(engine="warp"), "unknown engine"),
            (dict(max_retries=True), "max_retries must be an integer"),
        ],
    )
    def test_invalid_config_fails_fast(self, kwargs, match):
        with pytest.raises(ServiceError, match=match):
            ServiceConfig(**kwargs)

    def test_valid_boundary_values_accepted(self):
        config = ServiceConfig(
            max_batch=np.int64(4), max_retries=0, retry_backoff_s=0,
            request_timeout_s=None, drain_timeout_s=None,
        )
        assert config.max_batch == 4

    @pytest.mark.parametrize("field, value, kind", [
        ("max_pending", np.int64(64), int),
        ("max_batch", np.int32(3), int),
        ("drain_timeout_s", np.float32(5), float),
    ])
    def test_numpy_numbers_are_stored_plain(self, field, value, kind):
        with repro.serve(**{field: value}) as svc:
            snapshot = json.loads(json.dumps(svc.stats()))
        assert type(getattr(svc.service.config, field)) is kind
        assert snapshot["config"][field] == value
