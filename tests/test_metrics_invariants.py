"""Accounting invariants: service stats, plan-cache reset, autotune
tie-breaking.

The service scenarios reuse the fault-injection harness from
``test_service_faults``: crashing/hanging ``run_fn`` stand-ins, so every
reject/crash/timeout/degrade path is exercised.  After each scenario the
books must balance::

    submitted == served + admission_rejected
    served    == succeeded + failed + drain_rejected
"""

import asyncio
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.autotune import autotune, best_run
from repro.core.params import TemplateParams
from repro.core.plancache import default_cache
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import PlanError
from repro.gpusim.config import KEPLER_K20
from repro.service import ServiceConfig, TemplateService, execute_batch_fused


def make_workload(name="inv-wl", outer=600, seed=11):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.8, size=outer).clip(max=80).astype(np.int64)
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


def assert_books_balance(service):
    violations = service.stats.invariant_violations()
    assert violations == [], "\n".join(violations)
    snap = service.snapshot()["requests"]
    # no aggregate: every reject is one of the two kinds, reported apart
    assert "rejected" not in snap


class TestServiceInvariants:
    def test_mixed_success_crash_degrade_timeout(self, workload):
        """One scenario through every terminal path; the books balance."""
        calls = {"hangs": 0}

        def chaos(specs):
            for spec in specs:
                name = spec.template.name
                if name.startswith("dpar"):
                    raise RuntimeError("injected dynpar crash")  # -> degrade
                if name == "dbuf-shared":
                    raise RuntimeError("injected hard crash")    # -> failed
                if name == "dbuf-global" and calls["hangs"] == 0:
                    calls["hangs"] += 1
                    time.sleep(0.3)                              # -> timeout
            return execute_batch_fused(specs)

        async def scenario(service):
            responses = await asyncio.gather(
                service.submit("dual-queue", workload),   # ok
                service.submit("dpar-opt", workload),     # ok (degraded)
                service.submit("dbuf-shared", workload),  # failed
                service.submit("dbuf-global", workload),  # timeout, then ok
            )
            assert_books_balance(service)
            return responses, service.snapshot()["requests"]

        responses, snap = run_service(
            scenario,
            ServiceConfig(request_timeout_s=0.05, **FAST_RETRY),
            run_fn=chaos,
        )
        statuses = sorted(r.status for r in responses)
        assert statuses == ["failed", "ok", "ok", "ok"]
        assert snap["submitted"] == snap["served"] == 4
        assert snap["succeeded"] == 3
        assert snap["failed"] == 1
        assert snap["degraded"] == 1
        assert snap["timeouts"] == 1
        assert snap["admission_rejected"] == snap["drain_rejected"] == 0

    def test_admission_rejects_split_from_drain(self, workload):
        """Over-limit submissions count as admission rejects, nothing else."""
        def slow(specs):
            time.sleep(0.05)
            return execute_batch_fused(specs)

        async def scenario(service):
            tasks = [
                asyncio.create_task(service.submit("dual-queue", workload))
                for _ in range(8)
            ]
            responses = await asyncio.gather(*tasks)
            assert_books_balance(service)
            return responses, service.snapshot()["requests"]

        responses, snap = run_service(
            scenario,
            ServiceConfig(max_pending=2, **FAST_RETRY),
            run_fn=slow,
        )
        rejected = [r for r in responses if r.status == "rejected"]
        assert len(rejected) == 6
        assert all("queue full" in r.reason for r in rejected)
        assert snap["submitted"] == 8
        assert snap["admission_rejected"] == 6
        assert snap["drain_rejected"] == 0
        assert snap["served"] == snap["succeeded"] == 2
        assert snap["admission_rejected"] + snap["drain_rejected"] == 6

    def test_stop_mid_window_counts_drain_rejects(self, workload):
        """Requests queued but not yet collected into a window when
        ``stop(drain=False)`` runs are answered (drain-rejected), not
        silently dropped."""
        async def driver():
            service = TemplateService()
            await service.start()
            tasks = [
                asyncio.create_task(service.submit("dual-queue", workload))
                for _ in range(3)
            ]
            await asyncio.sleep(0)  # all three queue; none is collected
            await service.stop(drain=False)
            responses = await asyncio.gather(*tasks)
            assert_books_balance(service)
            return responses, service.snapshot()["requests"]

        responses, snap = asyncio.run(driver())
        assert [r.status for r in responses] == ["rejected"] * 3
        assert all("stopped" in r.reason for r in responses)
        assert snap["drain_rejected"] == 3
        assert snap["admission_rejected"] == 0
        assert snap["submitted"] == snap["served"] == 3


class TestPlanCacheReset:
    def test_disable_resets_counters_and_entries(self):
        """``clear(reset_stats=True)`` is the cold restart: it drops the
        plans *and* their counters, so the cache never reports a stale
        hit rate."""
        import repro

        wl = make_workload(name="inv-cache")
        repro.run(wl, "dbuf-shared")
        repro.run(wl, "dbuf-shared")
        cache = default_cache()
        assert cache.stats.hits >= 1 and len(cache) >= 1

        cache.clear(reset_stats=True)
        assert len(cache) == 0
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        assert cache.stats.hit_rate == 0.0

        # the usual miss/hit sequence from scratch
        repro.run(wl, "dbuf-shared")
        repro.run(wl, "dbuf-shared")
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)


class TestAutotuneDeterminism:
    def test_best_run_breaks_ties_on_template_then_threshold(self):
        def fake(template, lbt, time_ms=5.0):
            return SimpleNamespace(
                template=template, time_ms=time_ms,
                params=TemplateParams(lb_threshold=lbt))

        runs = [fake("dual-queue", 128), fake("dbuf-shared", 64),
                fake("dbuf-shared", 32)]
        assert best_run(runs).template == "dbuf-shared"
        assert best_run(runs).params.lb_threshold == 32
        assert best_run(reversed(runs)) is best_run(runs)
        # time still dominates the tie-break
        runs.append(fake("zz-last", 256, time_ms=1.0))
        assert best_run(runs).template == "zz-last"

    def test_best_run_rejects_empty(self):
        with pytest.raises(PlanError):
            best_run([])

    def test_autotune_is_order_insensitive(self):
        # thresholds above every trip count yield identical plans (and
        # bit-equal simulated times) — exactly the tie the deterministic
        # key must resolve the same way regardless of sweep order
        wl = make_workload(name="inv-tune", outer=200, seed=4)
        templates = ("dbuf-shared", "dual-queue")
        a = autotune(wl, KEPLER_K20, templates=templates,
                     thresholds=(512, 1024))
        b = autotune(wl, KEPLER_K20, templates=tuple(reversed(templates)),
                     thresholds=(1024, 512))
        assert (a.template, a.params.lb_threshold) == \
            (b.template, b.params.lb_threshold)
