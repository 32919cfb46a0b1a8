"""Launch classes: bulk child rows against one ``add(Launch(...))`` each.

rec-naive and dpar-naive add their one-block children through
``add_one_block_children``: one interned :class:`LaunchClass` per distinct
(work, floor, block size) triple and one ``add_rows`` call.  The oracle
swaps that helper for the per-child construction it replaced — its own
``KernelCosts``, ``ProfileCounters`` and ``Launch`` per child, added one at
a time — and both graphs must execute and profile bit-identically on both
engines, alone and inside one fused batch.
"""

from functools import partial

import numpy as np
import pytest

from repro.core import dynamic_par, recursive
from repro.core.analysis import TreeAnalysis, WorkloadAnalysis
from repro.core.params import TemplateParams
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.registry import resolve
from repro.errors import LaunchError
from repro.gpusim import executor as executor_mod
from repro.gpusim import kernels, profiler
from repro.gpusim.config import KEPLER_K20
from repro.gpusim.dynpar import add_one_block_children
from repro.gpusim.executor import GpuExecutor
from repro.gpusim.kernels import (
    HOST,
    KernelCosts,
    Launch,
    LaunchClass,
    LaunchGraph,
    ProfileCounters,
)
from repro.gpusim.profiler import profile
from repro.trees.generator import generate_tree

from test_window_table import THRESHOLDS, WORKLOADS

#: the benchmark's small recursion trees (depth 4, outdegree 16, two
#: sparsities, both computations)
TREES = [(sparsity, kind, seed)
         for seed, (sparsity, kind) in enumerate(
             [(0.5, "descendants"), (0.5, "heights"),
              (1.5, "descendants"), (1.5, "heights")])]


def _one_launch_per_child(graph, name, work, floor, block_size, parents,
                          parent_blocks, device_streams, *,
                          registers_per_thread=24, resident_warps_hint=0.0):
    """Reference for ``add_one_block_children``: one object set per child."""
    n = len(work)
    columns = [np.broadcast_to(np.asarray(v), (n,))
               for v in (floor, block_size, parents, parent_blocks,
                         device_streams)]
    first = len(graph)
    for k, (crit, width, parent, block, stream) in enumerate(zip(*columns)):
        graph.add(Launch(
            name=name,
            block_size=int(width),
            costs=KernelCosts(block_cycles=np.array([work[k]]),
                              block_floor=np.array([crit])),
            registers_per_thread=registers_per_thread,
            parent=int(parent),
            parent_block=int(block),
            device_stream=int(stream),
            counters=ProfileCounters(),
            resident_warps_hint=resident_warps_hint,
        ))
    return range(first, len(graph))


def _rec_naive_cases():
    template = resolve("rec-naive", kind="tree")
    for sparsity, kind, seed in TREES:
        wl = RecursiveTreeWorkload(
            generate_tree(4, 16, sparsity=sparsity, seed=seed), kind)
        analysis = TreeAnalysis.from_workload(wl)
        for spb in (1, 2):
            params = TemplateParams(streams_per_block=spb)
            yield (f"rec-naive/{kind}/{sparsity}/spb{spb}",
                   partial(template.specialize, wl, analysis, KEPLER_K20,
                           params))


def _dpar_naive_cases():
    template = resolve("dpar-naive")
    for name, make in sorted(WORKLOADS.items()):
        wl = make()
        analysis = WorkloadAnalysis.from_workload(wl)
        for lbt in THRESHOLDS:
            params = TemplateParams(lb_threshold=lbt, streams_per_block=2)
            yield (f"dpar-naive/{name}/lbt{lbt}",
                   partial(_graph_only, template, wl, analysis, params))


def _graph_only(template, wl, analysis, params):
    return template.specialize(wl, analysis, KEPLER_K20, params)[0]


@pytest.fixture(scope="module")
def graph_pairs():
    """label -> (bulk graph, one-launch-per-child graph)."""
    pairs = {}
    patch = pytest.MonkeyPatch()
    try:
        for label, build in [*_rec_naive_cases(), *_dpar_naive_cases()]:
            bulk = build()
            patch.setattr(recursive, "add_one_block_children",
                          _one_launch_per_child)
            patch.setattr(dynamic_par, "add_one_block_children",
                          _one_launch_per_child)
            oracle = build()
            patch.undo()
            pairs[label] = (bulk, oracle)
    finally:
        patch.undo()
    return pairs


def _child_triples(graph):
    """(work, floor, block size) of every device row's class."""
    return [
        (float(c.costs.block_cycles[0]), float(c.costs.block_floor[0]),
         c.block_size)
        for c in (graph.classes[cid]
                  for cid, parent in zip(graph.class_ids, graph.parents)
                  if parent != HOST)
    ]


class TestOracle:
    @pytest.mark.parametrize("engine", ["fast", "exact"])
    def test_bulk_rows_run_like_one_launch_each(self, graph_pairs, engine):
        executor = GpuExecutor(KEPLER_K20, engine=engine)
        labels = sorted(graph_pairs)
        bulk = [graph_pairs[k][0] for k in labels]
        oracle = [graph_pairs[k][1] for k in labels]
        fused = executor.run_many(bulk + oracle)
        for i, label in enumerate(labels):
            assert len(bulk[i]) == len(oracle[i]) > 1, label
            alone = executor.run(oracle[i])
            for got in (executor.run(bulk[i]), fused[i],
                        fused[len(labels) + i]):
                assert got == alone, label
            assert (profile(bulk[i], fused[i], KEPLER_K20)
                    == profile(oracle[i], alone, KEPLER_K20)), label

    def test_one_class_per_distinct_triple(self, graph_pairs):
        for label, (bulk, oracle) in graph_pairs.items():
            triples = _child_triples(bulk)
            assert triples == _child_triples(oracle), label
            child_classes = {cid for cid, parent
                             in zip(bulk.class_ids, bulk.parents)
                             if parent != HOST}
            assert len(child_classes) == len(set(triples)), label
            assert len(bulk.classes) == len(child_classes) + 1, label
            assert all(bulk.classes[cid].counters == ProfileCounters()
                       for cid in child_classes), label

    def test_rows_keep_the_launch_order(self, graph_pairs):
        for label, (bulk, oracle) in graph_pairs.items():
            for column in ("parents", "parent_blocks", "streams",
                           "device_streams", "issue_points", "counts"):
                assert (getattr(bulk, column)
                        == getattr(oracle, column)), (label, column)


def _merge_each(graph):
    """Reference fold: every launch's counters, one merge per launch."""
    total = ProfileCounters()
    for launch in graph.launches:
        total.merge(launch.counters if launch.count == 1
                    else kernels._scale_counters(launch.counters, launch.count))
    return total


def _occupancy_each(graph):
    """Reference work-weighted occupancy, one launch at a time."""
    weighted = weight = 0.0
    for launch in graph.launches:
        work = launch.costs.total_cycles * launch.count
        if work > 0 and launch.resident_warps_hint > 0:
            weighted += launch.resident_warps_hint * work
            weight += work
    return (weighted / weight) / KEPLER_K20.max_warps_per_sm if weight else 0.0


class TestReaders:
    def test_column_readers_match_per_launch_folds(self, graph_pairs):
        for label, (bulk, oracle) in graph_pairs.items():
            assert bulk.aggregate_counters() == _merge_each(oracle), label
            assert (profiler._weighted_occupancy(bulk, KEPLER_K20)
                    == _occupancy_each(oracle)), label

    def test_empty_children_still_reset_an_empty_traffic_record(self):
        """An empty running traffic record adopts the segment size of the
        next record merged, empty or not: skipping the children's empty
        counters would keep the parent's 32-byte size."""
        graph = LaunchGraph()
        counters = ProfileCounters()
        counters.store_traffic.segment_bytes = 32
        graph.add(Launch(name="p", block_size=64, costs=KernelCosts(np.ones(2)),
                         counters=counters))
        add_one_block_children(graph, "c", np.ones(3), np.ones(3), 32,
                               parents=0, parent_blocks=[0, 1, 1],
                               device_streams=0)
        assert graph.aggregate_counters() == _merge_each(graph)
        assert graph.aggregate_counters().store_traffic.segment_bytes == 128


class TestPerClassWork:
    def test_block_runs_and_footprint_once_per_class(self, graph_pairs,
                                                     monkeypatch):
        calls = {"runs": 0, "footprint": 0}
        block_runs = KernelCosts.block_runs
        footprint = executor_mod._Simulation._footprint

        def counting_runs(self):
            calls["runs"] += 1
            return block_runs(self)

        def counting_footprint(self, cls):
            calls["footprint"] += 1
            return footprint(self, cls)

        monkeypatch.setattr(KernelCosts, "block_runs", counting_runs)
        monkeypatch.setattr(executor_mod._Simulation, "_footprint",
                            counting_footprint)
        graph = graph_pairs["rec-naive/heights/0.5/spb2"][0]
        result = GpuExecutor(KEPLER_K20, engine="fast").run(graph)
        assert result.n_launches == len(graph) > 10 * len(graph.classes)
        assert calls["runs"] <= len(graph.classes)
        assert calls["footprint"] <= len(graph.classes)


def _class(name="k", blocks=2):
    return LaunchClass(name=name, block_size=64,
                       costs=KernelCosts(np.ones(blocks)))


class TestAddRows:
    def _graph(self):
        graph = LaunchGraph()
        graph.add(Launch(name="root", block_size=64,
                         costs=KernelCosts(np.ones(3))))
        return graph

    def test_rows_may_name_parents_from_the_same_call(self):
        graph = self._graph()
        rows = graph.add_rows([_class("a"), _class("b")], [0, 1, 1],
                              parents=[0, 1, 1], parent_blocks=[2, 1, 0])
        assert rows == range(1, 4)
        assert graph.parents == [HOST, 0, 1, 1]
        assert [l.name for l in graph.launches] == ["root", "a", "b", "b"]
        assert GpuExecutor(KEPLER_K20).run(graph).n_launches == 4

    @pytest.mark.parametrize("parents", [[1], [5], [-2], [0, 2]])
    def test_bad_parent_rejected(self, parents):
        graph = self._graph()
        with pytest.raises(LaunchError, match="unknown parent"):
            graph.add_rows([_class()], [0] * len(parents), parents=parents,
                           parent_blocks=0)
        assert len(graph) == 1

    @pytest.mark.parametrize("parents,blocks", [([0], [3]), ([0], [-1]),
                                                ([0, 1], [0, 2])])
    def test_bad_parent_block_rejected(self, parents, blocks):
        graph = self._graph()
        with pytest.raises(LaunchError, match="parent grid has"):
            graph.add_rows([_class()], [0] * len(parents), parents=parents,
                           parent_blocks=blocks)
        assert len(graph) == 1
