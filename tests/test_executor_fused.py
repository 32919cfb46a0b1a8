"""Fused batch execution: ``GpuExecutor.run_many`` / ``run_many`` equivalence.

The fused executor merges N heterogeneous launch graphs into one
event-loop pass and demuxes exact per-graph results.  The contract is
*bit*-identity — not tolerance-based closeness — with N sequential
:meth:`GpuExecutor.run` calls on the same engine, across every registry
template (including dynamic-parallelism graphs) and batch sizes down
to 1.
"""

import numpy as np
import pytest

from repro.backends import DeviceGroup, SimBackend
from repro.core import (
    AccessStream,
    NestedLoopWorkload,
    RecursiveTreeWorkload,
    TemplateParams,
)
from repro.core.base import run_many
from repro.core.registry import ALL_TEMPLATES, resolve
import repro
from repro.gpusim import KEPLER_K20, GpuExecutor
from repro.gpusim.kernels import LaunchGraph
from repro.service import ServiceConfig, TemplateService
from repro.trees.generator import generate_tree

NESTED_NAMES = sorted(n for n, (k, _) in ALL_TEMPLATES.items()
                      if k == "nested-loop")
TREE_NAMES = sorted(n for n, (k, _) in ALL_TEMPLATES.items() if k == "tree")


def _nested_workload(shape: str, n: int = 700, seed: int = 3):
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        trips = np.full(n, 19, dtype=np.int64)
    elif shape == "power":
        trips = rng.zipf(1.8, size=n).clip(max=400).astype(np.int64)
    else:  # hot: one giant iteration among trivial ones
        trips = np.full(n, 2, dtype=np.int64)
        trips[n // 3] = 1800
    nnz = int(trips.sum())
    rng2 = np.random.default_rng(seed + 1)
    streams = [
        AccessStream("seq", np.arange(nnz, dtype=np.int64) * 4),
        AccessStream("gather", rng2.integers(0, nnz, size=nnz) * 4),
        AccessStream("scatter", rng2.integers(0, nnz, size=nnz) * 4,
                     "store", 4, staged_in_shared=True),
    ]
    return NestedLoopWorkload(name=f"fuse-{shape}", trip_counts=trips,
                              streams=streams)


@pytest.fixture(scope="module")
def nested_workloads():
    return {s: _nested_workload(s) for s in ("uniform", "power", "hot")}


@pytest.fixture(scope="module")
def tree_workloads():
    tree = generate_tree(depth=6, outdegree=4, sparsity=0.4, seed=5)
    return {k: RecursiveTreeWorkload(tree, k)
            for k in ("descendants", "heights")}


def _graph_of(name, workload):
    built = resolve(name).build(workload, KEPLER_K20, TemplateParams())
    return built[0] if isinstance(built, tuple) else built


@pytest.fixture(scope="module")
def all_graphs(nested_workloads, tree_workloads):
    """One graph per (template, workload-shape) — the mixed fusion batch."""
    graphs = {}
    for name in NESTED_NAMES:
        for shape, wl in nested_workloads.items():
            graphs[f"{name}/{shape}"] = _graph_of(name, wl)
    for name in TREE_NAMES:
        for kind, wl in tree_workloads.items():
            graphs[f"{name}/{kind}"] = _graph_of(name, wl)
    return graphs


def fused_pass(graphs, config, engine=None):
    """One fused executor pass over ``graphs``."""
    return GpuExecutor(config, engine=engine).run_many(graphs)


def assert_result_equal(fused, sequential, label=""):
    """Field-by-field *bit* equality of two ExecutionResults."""
    assert fused.cycles == sequential.cycles, label
    assert fused.time_ms == sequential.time_ms, label
    assert fused.sm_busy_cycles == sequential.sm_busy_cycles, label
    assert fused.sm_count == sequential.sm_count, label
    assert fused.n_launches == sequential.n_launches, label
    assert fused.n_device_launches == sequential.n_device_launches, label
    assert fused.pool_overflows == sequential.pool_overflows, label
    assert fused.counters == sequential.counters, label


class TestExecuteFused:
    @pytest.mark.parametrize("engine", ["fast", "exact"])
    def test_mixed_batch_matches_sequential(self, all_graphs, engine):
        """Every template's graph fused together == run one at a time."""
        executor = GpuExecutor(KEPLER_K20, engine=engine)
        keys = sorted(all_graphs)
        if engine == "exact":  # exact engine is slow; a cross-section is enough
            keys = keys[::4]
        graphs = [all_graphs[k] for k in keys]
        fused = fused_pass(graphs, KEPLER_K20, engine=engine)
        for key, graph, got in zip(keys, graphs, fused):
            assert_result_equal(got, executor.run(graph), key)

    @pytest.mark.parametrize("name", NESTED_NAMES + TREE_NAMES)
    def test_singleton_batch_matches_run(self, all_graphs, name):
        """N=1 fusion is exactly a plain run, per template."""
        key = next(k for k in sorted(all_graphs) if k.startswith(f"{name}/"))
        graph = all_graphs[key]
        (fused,) = fused_pass([graph], KEPLER_K20, engine="fast")
        assert_result_equal(
            fused, GpuExecutor(KEPLER_K20, engine="fast").run(graph), key)

    def test_dynamic_parallelism_graphs_fuse(self, all_graphs):
        """Device-side launches keep exact parent/child demux when fused."""
        keys = [k for k in sorted(all_graphs)
                if k.startswith(("dpar-", "rec-"))]
        graphs = [all_graphs[k] for k in keys]
        fused = fused_pass(graphs, KEPLER_K20, engine="fast")
        executor = GpuExecutor(KEPLER_K20, engine="fast")
        for key, graph, got in zip(keys, graphs, fused):
            assert_result_equal(got, executor.run(graph), key)
        # the batch genuinely exercises device-side launches
        assert any(r.n_device_launches > 0 for r in fused)

    def test_empty_batch_and_empty_graphs(self, all_graphs):
        assert fused_pass([], KEPLER_K20) == []
        graph = all_graphs[f"{NESTED_NAMES[0]}/uniform"]
        results = fused_pass([LaunchGraph(), graph, LaunchGraph()],
                                KEPLER_K20, engine="fast")
        assert results[0].n_launches == 0 and results[0].cycles == 0.0
        assert results[2].n_launches == 0 and results[2].cycles == 0.0
        assert_result_equal(
            results[1], GpuExecutor(KEPLER_K20, engine="fast").run(graph))

    def test_duplicate_graphs_demux_independently(self, all_graphs):
        graph = all_graphs[f"{NESTED_NAMES[0]}/power"]
        results = fused_pass([graph, graph, graph], KEPLER_K20,
                                engine="fast")
        ref = GpuExecutor(KEPLER_K20, engine="fast").run(graph)
        for got in results:
            assert_result_equal(got, ref)


class TestBackendSubmitMany:
    def test_sim_backend_matches_sequential(self, all_graphs):
        keys = sorted(all_graphs)[:8]
        graphs = [all_graphs[k] for k in keys]
        fused_backend = SimBackend(KEPLER_K20, engine="fast")
        seq_backend = SimBackend(KEPLER_K20, engine="fast")
        results = fused_backend.submit_many(graphs)
        for key, graph, got in zip(keys, graphs, results):
            assert_result_equal(got, seq_backend.submit(graph), key)
        # accounting covers every graph in the batch
        assert fused_backend.submissions == len(graphs)
        assert fused_backend.busy_ms == pytest.approx(seq_backend.busy_ms)

    def test_device_group_matches_per_graph_results(self, all_graphs):
        keys = sorted(all_graphs)[:6]
        graphs = [all_graphs[k] for k in keys]
        group = DeviceGroup(KEPLER_K20, 2, engine="fast")
        results = group.submit_many(graphs)
        ref = GpuExecutor(KEPLER_K20, engine="fast")
        for key, graph, got in zip(keys, graphs, results):
            assert_result_equal(got, ref.run(graph), key)

    def test_submit_many_empty(self):
        assert SimBackend(KEPLER_K20).submit_many([]) == []
        assert DeviceGroup(KEPLER_K20, 2).submit_many([]) == []


class TestRunMany:
    def test_run_many_matches_individual_runs(self, nested_workloads,
                                              tree_workloads):
        items = []
        for name in NESTED_NAMES:
            items.append((resolve(name), nested_workloads["power"],
                          TemplateParams()))
        for name in TREE_NAMES:
            items.append((resolve(name), tree_workloads["descendants"],
                          TemplateParams()))
        runs = run_many(items, KEPLER_K20)
        assert len(runs) == len(items)
        for (template, workload, params), run in zip(items, runs):
            ref = template.run(workload, KEPLER_K20, params)
            assert run.result.cycles == ref.result.cycles, template.name
            assert run.result.counters == ref.result.counters, template.name

    def test_run_many_empty(self):
        assert run_many([], KEPLER_K20) == []


class TestServiceFusion:
    TEMPLATES = ("dbuf-global", "dual-queue", "thread-mapped")

    def _responses(self, workloads):
        import asyncio

        async def driver():
            config = ServiceConfig(batch_window_s=0.05, max_batch=16)
            service = TemplateService(config)
            await service.start()
            try:
                tasks = [
                    asyncio.create_task(service.submit(name, wl))
                    for name in self.TEMPLATES
                    for wl in workloads
                ]
                responses = await asyncio.gather(*tasks)
            finally:
                await service.stop()
            return responses, service.stats.snapshot()

        return asyncio.run(driver())

    def test_fused_service_equals_unfused(self):
        """Mixed-fingerprint windows answer exactly as unfused
        ``repro.run`` calls on each (template, workload)."""
        workloads = [_nested_workload("power", n=400, seed=s)
                     for s in (1, 2)]
        fused_resp, fused_stats = self._responses(workloads)
        plain = [repro.run(wl, name)
                 for name in self.TEMPLATES for wl in workloads]
        assert len(fused_resp) == len(plain) == 6
        for a, b in zip(fused_resp, plain):
            assert a.ok
            assert a.time_ms == b.time_ms
            assert a.metrics == b.metrics.as_dict()
        batching = fused_stats["batching"]
        assert batching["fused_passes"] >= 1
        assert batching["fused_batches"] >= 2
