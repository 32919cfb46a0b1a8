"""Fast-engine equivalence suite + plan-cache behavior tests.

The cohort-batched fast engine must reproduce the reference
event-per-block engine's results bit for bit — every
:class:`ExecutionResult` field, counters included — on every template,
across workload shapes that stress different scheduling paths: uniform
(maximal cohorts), power-law (mixed phases, nested launches), and a
single hot iteration (one giant block-mapped/nested unit among trivial
ones).
"""

import numpy as np
import pytest

from repro.backends import SimBackend
from repro.core import (
    AccessStream,
    NestedLoopWorkload,
    RecursiveTreeWorkload,
    TemplateParams,
)
from repro.core import artifactcache
from repro.core.artifactcache import TieredCache, sizeof
from repro.core.plancache import default_cache
from repro.core.registry import ALL_TEMPLATES, resolve
from repro.errors import ConfigError
from repro.gpusim import KEPLER_K20
from repro.gpusim import executor as executor_mod
from repro.gpusim.executor import (
    ENGINES,
    GpuExecutor,
    get_default_engine,
    set_default_engine,
)
from repro.gpusim.kernels import KernelCosts, Launch, LaunchGraph
from repro.trees.generator import generate_tree
from test_executor_fused import assert_result_equal

NESTED_NAMES = sorted(n for n, (k, _) in ALL_TEMPLATES.items() if k == "nested-loop")
TREE_NAMES = sorted(n for n, (k, _) in ALL_TEMPLATES.items() if k == "tree")
SHAPES = ("uniform", "power", "hot")


def _trips(shape: str) -> np.ndarray:
    rng = np.random.default_rng(7)
    if shape == "uniform":
        return np.full(900, 24, dtype=np.int64)
    if shape == "power":
        return rng.zipf(1.8, size=900).clip(max=500).astype(np.int64)
    # one hot iteration among trivially small ones
    trips = np.full(900, 2, dtype=np.int64)
    trips[137] = 2500
    return trips


def _workload(shape: str) -> NestedLoopWorkload:
    trips = _trips(shape)
    nnz = int(trips.sum())
    rng = np.random.default_rng(11)
    streams = [
        AccessStream("seq", np.arange(nnz, dtype=np.int64) * 4),
        AccessStream("gather", rng.integers(0, nnz, size=nnz) * 4),
        AccessStream("scatter", rng.integers(0, nnz, size=nnz) * 4,
                     "store", 4, staged_in_shared=True),
    ]
    return NestedLoopWorkload(name=f"eq-{shape}", trip_counts=trips,
                              streams=streams)


@pytest.fixture(scope="module")
def workloads():
    return {shape: _workload(shape) for shape in SHAPES}


@pytest.fixture(scope="module")
def tree_workloads():
    tree = generate_tree(depth=7, outdegree=4, sparsity=0.4, seed=3)
    return {
        kind: RecursiveTreeWorkload(tree, kind)
        for kind in ("descendants", "heights")
    }


def _run_both(template, workload, params=None):
    exact = template.run(workload, KEPLER_K20, params,
                         SimBackend(KEPLER_K20, engine="exact"))
    fast = template.run(workload, KEPLER_K20, params,
                        SimBackend(KEPLER_K20, engine="fast"))
    return exact, fast


class TestEngineEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("name", NESTED_NAMES)
    def test_nested_loop_templates(self, workloads, name, shape):
        exact, fast = _run_both(resolve(name), workloads[shape])
        assert_result_equal(fast.result, exact.result, name)

    @pytest.mark.parametrize("kind", ("descendants", "heights"))
    @pytest.mark.parametrize("name", TREE_NAMES)
    def test_tree_templates(self, tree_workloads, name, kind):
        exact, fast = _run_both(resolve(name), tree_workloads[kind])
        assert_result_equal(fast.result, exact.result, name)

    def test_timeline_matches_too(self, workloads):
        template = resolve("dbuf-global")
        graph, _ = template.build(workloads["power"], KEPLER_K20,
                                  TemplateParams())
        exact = GpuExecutor(KEPLER_K20, engine="exact",
                            record_timeline=True).run(graph)
        fast = GpuExecutor(KEPLER_K20, engine="fast",
                           record_timeline=True).run(graph)
        assert_result_equal(fast, exact)
        assert fast.records == exact.records


class TestDispatchPasses:
    def test_few_passes_place_nothing(self, monkeypatch):
        """A dispatch pass leaves every launch it examined fully dispatched
        or blocked on its footprint, so the fast engine runs another only
        after something changed: on a grid of distinct-work blocks almost
        every pass places blocks."""
        placed = []
        dispatch = executor_mod._FastSimulation._dispatch

        def counting(self):
            progress = dispatch(self)
            placed.append(progress)
            return progress

        monkeypatch.setattr(executor_mod._FastSimulation, "_dispatch", counting)
        work = np.random.default_rng(5).uniform(1_000.0, 50_000.0, 2_000)
        graph = LaunchGraph()
        graph.add(Launch(name="distinct", block_size=128,
                         costs=KernelCosts(work)))
        fast = GpuExecutor(KEPLER_K20, engine="fast").run(graph)
        assert_result_equal(fast, GpuExecutor(KEPLER_K20, engine="exact").run(graph))
        assert len(placed) > 100
        assert placed.count(False) < 0.01 * len(placed)

    def test_pass_cut_by_the_kernel_cap_runs_again(self):
        """With a one-kernel cap the second stream's launch waits behind
        the first's blocked remainder; once a pass finishes the first, the
        second must place in the same instant, as the exact engine does."""
        config = KEPLER_K20.replace(max_concurrent_kernels=1)
        graph = LaunchGraph()
        for stream, blocks in enumerate((250, 10)):
            graph.add(Launch(name=f"s{stream}", block_size=64, stream=stream,
                             costs=KernelCosts(np.full(blocks, 1_000.0))))
        fast, exact = (GpuExecutor(config, engine=engine, record_timeline=True)
                       .run(graph) for engine in ("fast", "exact"))
        assert_result_equal(fast, exact)
        assert fast.records == exact.records


class TestEngineSelection:
    def test_engines_listed(self):
        assert set(ENGINES) == {"fast", "exact"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            GpuExecutor(KEPLER_K20, engine="warp9")
        with pytest.raises(ConfigError, match="unknown engine"):
            set_default_engine("warp9")

    def test_default_engine_roundtrip(self):
        before = get_default_engine()
        try:
            set_default_engine("exact")
            assert get_default_engine() == "exact"
        finally:
            set_default_engine(before)
        assert get_default_engine() == before


class TestPlanCacheUnit:
    """The ``plan`` kind of a fresh tiered cache with room for two
    ~1 KB plans and no disk level."""

    @pytest.fixture
    def cache(self, monkeypatch):
        monkeypatch.setattr(artifactcache, "_cache", None)
        monkeypatch.setattr(artifactcache, "MEMORY_MAX_BYTES",
                            2 * sizeof(b"p" * 1000))
        return TieredCache()

    def test_hit_miss_counters(self, cache):
        assert cache.get("plan", ("k",)) is None
        cache.put("plan", ("k",), b"p" * 1000)
        assert cache.get("plan", ("k",)) == b"p" * 1000
        stats = cache.stats["plan", "memory"]
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_lru_eviction(self, cache):
        cache.put("plan", ("a",), b"a" * 1000)
        cache.put("plan", ("b",), b"b" * 1000)
        assert cache.get("plan", ("a",)) == b"a" * 1000  # b is now oldest
        cache.put("plan", ("c",), b"c" * 1000)
        assert cache.get("plan", ("b",)) is None
        assert cache.get("plan", ("a",)) == b"a" * 1000
        assert cache.get("plan", ("c",)) == b"c" * 1000

    def test_disabled_cache_stores_nothing(self, cache):
        """``run`` results live on disk only, and the disk level is off."""
        cache.put("run", ("k",), b"p" * 1000)
        assert cache.get("run", ("k",)) is None
        assert cache.count("run") == 0


class TestPlanCacheIntegration:
    def _fresh_stats(self):
        stats = default_cache().stats
        return stats.hits, stats.misses

    def test_repeat_run_hits(self, workloads):
        wl = workloads["power"]
        template = resolve("dbuf-shared")
        template.run(wl, KEPLER_K20)        # warm (hit or miss, don't care)
        h0, m0 = self._fresh_stats()
        template.run(wl, KEPLER_K20)
        h1, m1 = self._fresh_stats()
        assert (h1 - h0, m1 - m0) == (1, 0)

    def test_plan_relevant_param_change_misses(self, workloads):
        wl = workloads["power"]
        template = resolve("dbuf-shared")
        template.run(wl, KEPLER_K20, TemplateParams(lb_threshold=48))
        h0, m0 = self._fresh_stats()
        template.run(wl, KEPLER_K20, TemplateParams(lb_threshold=49))
        h1, m1 = self._fresh_stats()
        assert m1 - m0 == 1

    def test_irrelevant_param_change_still_hits(self, workloads):
        wl = workloads["uniform"]
        template = resolve("thread-mapped")   # never reads streams_per_block
        template.run(wl, KEPLER_K20, TemplateParams(streams_per_block=1))
        h0, m0 = self._fresh_stats()
        template.run(wl, KEPLER_K20, TemplateParams(streams_per_block=2))
        h1, m1 = self._fresh_stats()
        assert (h1 - h0, m1 - m0) == (1, 0)

    def test_workload_content_change_misses(self):
        template = resolve("thread-mapped")
        a = _workload("uniform")
        b = _workload("uniform")
        assert a.fingerprint() == b.fingerprint()   # same content, same key
        trips = _trips("uniform")
        trips[0] += 1
        c = NestedLoopWorkload(name=a.name, trip_counts=trips)
        assert c.fingerprint() != a.fingerprint()
