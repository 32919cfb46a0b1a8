"""Plan-cache hardening: hit/cold equivalence, LRU eviction order,
counter accuracy under eviction, and the exposed helpers.  Plans are the
``plan`` kind of the tiered cache; the LRU tests drive that cache with
three ~1 KB entries' worth of memory."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.core import artifactcache
from repro.core.analysis import TreeAnalysis, WorkloadAnalysis
from repro.core.artifactcache import TieredCache, sizeof, tiered_cache
from repro.core.base import run_many
from repro.core.params import TemplateParams
from repro.core.plancache import default_cache, fingerprint_of
from repro.core.registry import (ALL_TEMPLATES, NESTED_LOOP_TEMPLATES,
                                  TREE_TEMPLATE_CLASSES, resolve)
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ConfigError
from repro.gpusim.config import KEPLER_K20
from repro.gpusim.executor import GpuExecutor
from repro.trees.generator import generate_tree


def _blob(tag: str) -> bytes:
    """A ~1 KB plan stand-in."""
    return tag.encode() * 1000


@pytest.fixture
def small_cache(monkeypatch):
    """A fresh tiered cache with room for three blobs and no disk level."""
    monkeypatch.setattr(artifactcache, "_cache", None)
    monkeypatch.setattr(artifactcache, "MEMORY_MAX_BYTES",
                        3 * sizeof(_blob("a")))
    return TieredCache()


def _plans(cache):
    return [key for kind, key in cache._entries if kind == "plan"]


def make_workload(seed=0, outer=1200):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.8, size=outer).clip(max=150).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=f"pc-{seed}", trip_counts=trips,
        streams=[AccessStream("x", rng.integers(0, nnz, size=nnz) * 4)],
    )


class TestHitEquivalence:
    def test_cache_hit_run_identical_to_cold_build(self):
        """A cache-hit TemplateRun must be indistinguishable from a cold
        one: same timing, same metrics, same schedule — and the graph is
        the *shared* cached object."""
        workload = make_workload(seed=11)
        cache = default_cache()
        cache.clear()
        cold = repro.run(workload, "dbuf-shared")
        hits0 = cache.stats.hits
        warm = repro.run(workload, "dbuf-shared")
        assert cache.stats.hits == hits0 + 1
        assert warm.graph is cold.graph  # shared, not rebuilt
        assert warm.time_ms == cold.time_ms
        assert warm.metrics == cold.metrics
        assert warm.result.cycles == cold.result.cycles
        assert set(warm.schedule) == set(cold.schedule)
        for phase in cold.schedule:
            np.testing.assert_array_equal(
                warm.schedule[phase], cold.schedule[phase])

    def test_tree_template_hit_equivalence(self):
        tree_wl = RecursiveTreeWorkload(
            generate_tree(depth=5, outdegree=3, seed=4), "heights")
        default_cache().clear()
        cold = repro.run(tree_wl, "rec-hier")
        warm = repro.run(tree_wl, "rec-hier")
        assert warm.graph is cold.graph
        assert warm.time_ms == cold.time_ms
        assert warm.metrics == cold.metrics


class TestLRUEviction:
    def test_eviction_order_is_least_recently_used(self, small_cache):
        cache = small_cache
        for key in ("a", "b", "c"):
            cache.put("plan", (key,), _blob(key))
        assert _plans(cache) == [("a",), ("b",), ("c",)]
        # touching "a" makes "b" the LRU victim
        assert cache.get("plan", ("a",)) == _blob("a")
        assert _plans(cache) == [("b",), ("c",), ("a",)]
        cache.put("plan", ("d",), _blob("d"))
        assert cache.count("plan") == 3
        assert _plans(cache) == [("c",), ("a",), ("d",)]
        assert cache.get("plan", ("b",)) is None  # evicted

    def test_put_existing_key_refreshes_recency(self, small_cache):
        cache = small_cache
        cache.put("plan", ("a",), _blob("a"))
        cache.put("plan", ("b",), _blob("b"))
        cache.put("plan", ("c",), _blob("c"))
        cache.put("plan", ("a",), _blob("A"))  # refresh, not duplicate
        assert cache.count("plan") == 3
        cache.put("plan", ("d",), _blob("d"))
        assert cache.get("plan", ("b",)) is None  # b was LRU
        assert cache.get("plan", ("a",)) == _blob("A")

    def test_counters_accurate_under_eviction(self, small_cache):
        cache = small_cache
        stats = cache.stats["plan", "memory"]
        assert cache.get("plan", ("a",)) is None   # miss 1
        for key in ("a", "b", "c"):
            cache.put("plan", (key,), _blob(key))
        assert cache.get("plan", ("a",)) == _blob("a")  # hit 1
        cache.put("plan", ("d",), _blob("d"))          # evicts b
        assert cache.get("plan", ("b",)) is None   # miss 2 (evicted)
        assert cache.get("plan", ("d",)) == _blob("d")  # hit 2
        assert stats.hits == 2
        assert stats.misses == 2
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.evictions == 1


class TestExposedHelpers:
    def test_fingerprint_of_dispatches(self):
        workload = make_workload(seed=2)
        assert fingerprint_of(workload) == workload.fingerprint()
        twin = make_workload(seed=2)
        assert fingerprint_of(workload) == fingerprint_of(twin)
        assert fingerprint_of(make_workload(seed=3)) != fingerprint_of(workload)
        tree_wl = RecursiveTreeWorkload(
            generate_tree(depth=3, outdegree=2, seed=1), "descendants")
        assert fingerprint_of(tree_wl) == tree_wl.fingerprint()
        with pytest.raises(ConfigError, match="no fingerprint"):
            fingerprint_of(object())

    def test_snapshot_shape(self):
        """``default_cache()`` reports the plan kind's occupancy and live
        counters."""
        view = default_cache()
        view.clear(reset_stats=True)
        workload = make_workload(seed=4)
        repro.run(workload, "dual-queue")
        repro.run(workload, "dual-queue")
        assert len(view) == 1
        assert (view.stats.hits, view.stats.misses) == (1, 1)
        assert view.stats.hit_rate == 0.5


#: alternative values for every TemplateParams field (all valid)
_ALTERNATIVES = {
    "lb_threshold": (1, 8, 200),
    "thread_block": (64, 256),
    "lb_block": (32, 48, 128),
    "registers_per_thread": (16, 64),
    "streams_per_block": (2, 3),
    "max_grid_blocks": (2_000,),
}


def _plan_state(graph, schedule):
    launches = []
    for launch in graph.launches:
        state = {k: v for k, v in vars(launch).items()
                 if k not in ("costs", "counters")}
        launches.append((
            state,
            launch.costs.block_cycles.tobytes(),
            launch.costs.block_floor.tobytes(),
            launch.costs.serial_tail,
            dataclasses.asdict(launch.counters),
        ))
    return launches, {k: v.tolist() for k, v in schedule.items()}


def make_tree_workloads():
    """Two tree shapes: a bushy, sparse one and a deeper, narrower one."""
    return [
        RecursiveTreeWorkload(
            generate_tree(depth=4, outdegree=12, sparsity=0.5, seed=3),
            "descendants"),
        RecursiveTreeWorkload(
            generate_tree(depth=5, outdegree=4, sparsity=1.5, seed=6),
            "heights"),
    ]


class TestPlanRelevantParams:
    """A plan is keyed only on its template's declared params, so a field
    outside that set must never change the built graph — otherwise the
    plan cache would serve one point's plan for another."""

    @pytest.mark.parametrize(
        "name", sorted(NESTED_LOOP_TEMPLATES) + sorted(TREE_TEMPLATE_CLASSES))
    def test_undeclared_fields_leave_the_plan_unchanged(self, name):
        template = resolve(name)
        declared = template.PLAN_RELEVANT_PARAMS
        assert declared is not None, f"{name} keys plans on every field"
        fields = {f.name for f in dataclasses.fields(TemplateParams)}
        assert set(declared) <= fields
        assert set(_ALTERNATIVES) == fields
        if name in NESTED_LOOP_TEMPLATES:
            workloads = [make_workload(seed=5, outer=600)]
            analyze = WorkloadAnalysis.from_workload
        else:
            workloads = make_tree_workloads()
            analyze = TreeAnalysis.from_workload
        base = TemplateParams()
        for workload in workloads:
            analysis = analyze(workload)

            def state(params):
                plan = template.specialize(workload, analysis, KEPLER_K20,
                                           params)
                return _plan_state(*template._split_plan(plan, workload))

            want = state(base)
            for field in sorted(fields - set(declared)):
                for value in _ALTERNATIVES[field]:
                    params = base.replace(**{field: value})
                    assert state(params) == want, (workload.name, field, value)


@pytest.fixture
def executed(monkeypatch):
    """Graphs the executor simulates while the test runs, with no disk
    level: every run is served from memory or executed live."""
    monkeypatch.setattr(artifactcache, "_cache", None)
    graphs = []
    execute = GpuExecutor._execute

    def spy(executor, batch):
        graphs.extend(batch)
        return execute(executor, batch)

    monkeypatch.setattr(GpuExecutor, "_execute", spy)
    default_cache().clear()
    yield graphs
    default_cache().clear()


class TestRunMemoryLevel:
    """Execution results are the ``run`` kind's memory level: a repeated
    run is served without the simulator and equals a live one."""

    @pytest.mark.parametrize("name", sorted(ALL_TEMPLATES))
    def test_repeat_is_a_memory_hit_equal_to_a_live_run(self, name,
                                                        executed):
        kind = ALL_TEMPLATES[name][0]
        workload = (make_workload(seed=8, outer=500) if kind == "nested-loop"
                    else make_tree_workloads()[0])
        first = repro.run(workload, name)
        assert len(executed) == 1
        stats = tiered_cache().stats["run", "memory"]
        hits = stats.hits
        again = repro.run(workload, name)
        assert len(executed) == 1, "a repeated run called the executor"
        assert stats.hits == hits + 1
        assert again.result is first.result  # shared, read-only

        default_cache().clear()
        assert tiered_cache().count("run") == 0
        live = repro.run(workload, name)
        assert len(executed) == 2
        assert live.result is not again.result
        assert live.result == again.result
        assert live.metrics == again.metrics

    def test_cold_restart_drops_runs_and_their_counters(self, executed):
        workload = make_workload(seed=10, outer=400)
        repro.run(workload, "dual-queue")
        repro.run(workload, "dual-queue")
        assert tiered_cache().stats["run", "memory"].hits >= 1
        default_cache().clear(reset_stats=True)
        assert tiered_cache().count("run") == 0
        assert tiered_cache().stats["run", "memory"].lookups == 0
        repro.run(workload, "dual-queue")
        assert len(executed) == 2
        stats = tiered_cache().stats["run", "memory"]
        assert (stats.hits, stats.misses) == (0, 1)

    def test_run_many_executes_each_distinct_key_once(self, executed):
        workload = make_workload(seed=9, outer=500)
        tree = make_tree_workloads()[1]
        dbuf, dual, hier = (resolve(name) for name in
                            ("dbuf-shared", "dual-queue", "rec-hier"))
        items = [
            (dbuf, workload, TemplateParams(lb_block=64)),
            (dual, workload, TemplateParams()),
            # dbuf-shared's plan does not read lb_block, rec-hier's does
            # not read streams_per_block: same run keys as above
            (dbuf, workload, TemplateParams(lb_block=128)),
            (hier, tree, TemplateParams(streams_per_block=1)),
            (hier, tree, TemplateParams(streams_per_block=2)),
            (dual, workload, TemplateParams()),
            (dbuf, workload, TemplateParams(lb_block=64)),
        ]
        runs = run_many(items, KEPLER_K20)
        assert len(executed) == 3
        assert [run.params for run in runs] == [item[2] for item in items]
        for (template, wl, params), run in zip(items, runs):
            default_cache().clear()
            alone = template.run(wl, KEPLER_K20, params)
            assert run.template == alone.template
            assert run.result == alone.result, (template.name, params)
            assert run.metrics == alone.metrics
