"""Plan-cache hardening: hit/cold equivalence, LRU eviction order,
counter accuracy under eviction, and the exposed helpers."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.core.analysis import WorkloadAnalysis
from repro.core.params import TemplateParams
from repro.core.plancache import PlanCache, default_cache, fingerprint_of
from repro.core.registry import NESTED_LOOP_TEMPLATES
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ConfigError
from repro.gpusim.config import KEPLER_K20
from repro.trees.generator import generate_tree


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
    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(maxsize=3)
        for key in ("a", "b", "c"):
            cache.put((key,), key.upper())
        assert cache.keys() == [("a",), ("b",), ("c",)]
        # touching "a" makes "b" the LRU victim
        assert cache.get(("a",)) == "A"
        assert cache.keys() == [("b",), ("c",), ("a",)]
        cache.put(("d",), "D")
        assert len(cache) == 3
        assert cache.keys() == [("c",), ("a",), ("d",)]
        assert cache.get(("b",)) is None  # evicted

    def test_put_existing_key_refreshes_recency(self):
        cache = PlanCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("a",), 10)  # refresh, not duplicate
        assert len(cache) == 2
        cache.put(("c",), 3)
        assert cache.get(("b",)) is None  # b was LRU
        assert cache.get(("a",)) == 10

    def test_counters_accurate_under_eviction(self):
        cache = PlanCache(maxsize=2)
        assert cache.get(("a",)) is None          # miss 1
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1             # hit 1
        cache.put(("c",), 3)                      # evicts b
        assert cache.get(("b",)) is None          # miss 2 (evicted)
        assert cache.get(("c",)) == 3             # hit 2
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.lookups == 4
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_maxsize_validation(self):
        with pytest.raises(ConfigError):
            PlanCache(maxsize=0)


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
        cache = PlanCache(maxsize=4)
        cache.put(("a",), 1)
        cache.get(("a",))
        cache.get(("zz",))
        snap = cache.snapshot()
        assert snap == {
            "size": 1, "maxsize": 4, "enabled": True,
            "hits": 1, "misses": 1, "hit_rate": 0.5,
        }

    def test_disabled_cache_snapshot(self):
        cache = PlanCache(enabled=False)
        cache.put(("a",), 1)
        assert cache.get(("a",)) is None
        assert cache.snapshot()["enabled"] is False
        assert cache.snapshot()["size"] == 0


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


class TestPlanRelevantParams:
    """A plan is keyed only on its template's declared params, so a field
    outside that set must never change the built graph — otherwise the
    plan cache would serve one point's plan for another."""

    @pytest.mark.parametrize("name", sorted(NESTED_LOOP_TEMPLATES))
    def test_undeclared_fields_leave_the_plan_unchanged(self, name):
        template = NESTED_LOOP_TEMPLATES[name]()
        declared = template.PLAN_RELEVANT_PARAMS
        assert declared is not None, f"{name} keys plans on every field"
        fields = {f.name for f in dataclasses.fields(TemplateParams)}
        assert set(declared) <= fields
        assert set(_ALTERNATIVES) == fields
        workload = make_workload(seed=5, outer=600)
        analysis = WorkloadAnalysis.from_workload(workload)
        base = TemplateParams()
        want = _plan_state(*template.specialize(workload, analysis,
                                                KEPLER_K20, base))
        for field in sorted(fields - set(declared)):
            for value in _ALTERNATIVES[field]:
                params = base.replace(**{field: value})
                got = template.specialize(workload, analysis, KEPLER_K20,
                                          params)
                assert _plan_state(*got) == want, (field, value)
