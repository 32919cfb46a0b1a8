"""Tests for the recursive applications: tree traversals + recursive BFS."""

import numpy as np
import pytest

from repro.apps import (
    RecursiveBFSApp,
    TreeDescendantsApp,
    TreeHeightsApp,
    unordered_bfs_visits,
)
from repro.core import TemplateParams
from repro.cpu.reference import bfs_serial
from repro.cpu.trees import descendants_recursive_py, heights_recursive_py
from repro.errors import GraphError, PlanError, WorkloadError
from repro.graphs import uniform_random_graph
from repro.trees import generate_tree


@pytest.fixture(scope="module")
def tree():
    return generate_tree(depth=4, outdegree=12, sparsity=0.0)


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(3000, (4, 16), seed=7)


class TestTreeApps:
    def test_descendants_result_matches_recursive_oracle(self, tree):
        run = TreeDescendantsApp(tree).run("flat")
        np.testing.assert_array_equal(run.result, descendants_recursive_py(tree))

    def test_heights_result_matches_recursive_oracle(self, tree):
        run = TreeHeightsApp(tree).run("rec-hier")
        np.testing.assert_array_equal(run.result, heights_recursive_py(tree))

    def test_results_template_invariant(self, tree):
        app = TreeDescendantsApp(tree)
        results = [app.run(t).result for t in ("flat", "rec-naive", "rec-hier")]
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_unknown_template_rejected(self, tree):
        with pytest.raises(PlanError):
            TreeDescendantsApp(tree).run("rec-magic")

    def test_rec_naive_much_slower_than_hier(self, tree):
        app = TreeDescendantsApp(tree)
        naive = app.run("rec-naive")
        hier = app.run("rec-hier")
        assert naive.gpu_time_ms > 2 * hier.gpu_time_ms

    def test_heights_cost_slightly_above_descendants(self, tree):
        d = TreeDescendantsApp(tree).cpu_baseline()
        h = TreeHeightsApp(tree).cpu_baseline()
        assert h >= d


class TestUnorderedBFS:
    def test_fixpoint_matches_level_synchronous(self, graph):
        forest, levels = unordered_bfs_visits(graph, 0)
        np.testing.assert_array_equal(levels, bfs_serial(graph, 0).result)

    def test_visits_at_least_reached_nodes(self, graph):
        forest, levels = unordered_bfs_visits(graph, 0)
        assert forest.n_visits >= np.count_nonzero(levels >= 0)

    def test_inflation_at_least_one(self, graph):
        forest, levels = unordered_bfs_visits(graph, 0)
        assert forest.inflation(int(np.count_nonzero(levels >= 0))) >= 1.0

    def test_chunk_one_is_serial_dfs(self):
        g = uniform_random_graph(200, (2, 6), seed=8)
        forest, levels = unordered_bfs_visits(g, 0, chunk=1)
        np.testing.assert_array_equal(levels, bfs_serial(g, 0).result)

    def test_parents_precede_children(self, graph):
        forest, _ = unordered_bfs_visits(graph, 0)
        valid = forest.parent >= 0
        assert np.all(forest.parent[valid] < np.flatnonzero(valid))

    def test_visit_levels_bound_fixpoint(self, graph):
        # Within one parallel chunk two stale readers may visit a node with
        # equal levels, so per-visit monotonicity is NOT guaranteed; what
        # must hold is that every visit's level is >= the fixpoint and the
        # minimum visit level per node IS the fixpoint.
        forest, levels = unordered_bfs_visits(graph, 0)
        assert np.all(forest.level >= levels[forest.node])
        best = np.full(graph.n_nodes, np.iinfo(np.int64).max)
        np.minimum.at(best, forest.node, forest.level)
        reached = levels >= 0
        np.testing.assert_array_equal(best[reached], levels[reached])

    def test_validation(self, graph):
        for chunk in (0, 2.5, True):
            with pytest.raises(WorkloadError):
                unordered_bfs_visits(graph, 0, chunk=chunk)


class TestRecursiveBFSApp:
    @pytest.fixture(scope="class")
    def app(self, graph):
        return RecursiveBFSApp(graph, source=0)

    def test_result_matches_flat(self, app, graph):
        np.testing.assert_array_equal(
            app.compute(), bfs_serial(graph, 0).result
        )

    def test_both_variants_are_slowdowns(self, app):
        naive = app.run("rec-naive")
        hier = app.run("rec-hier")
        # Fig. 9: recursive GPU variants lose to recursive serial CPU
        assert naive.speedup < 1.0
        assert hier.speedup < 1.0

    def test_streams_help_naive(self, app):
        plain = app.run("rec-naive")
        streamed = app.run("rec-naive", params=TemplateParams(streams_per_block=2))
        assert streamed.gpu_time_ms < plain.gpu_time_ms

    def test_hier_beats_naive_without_streams(self, app):
        naive = app.run("rec-naive")
        hier = app.run("rec-hier")
        assert hier.gpu_time_ms < naive.gpu_time_ms

    def test_unknown_variant(self, app):
        with pytest.raises(WorkloadError):
            app.run("rec-flat")

    def test_source_and_chunk_validated(self, graph):
        # checked when the visit forest is built, before any run()
        for source in (graph.n_nodes, True, 1.5):
            with pytest.raises(GraphError):
                RecursiveBFSApp(graph, source=source)
        with pytest.raises(WorkloadError):
            RecursiveBFSApp(graph, chunk=2.5)

    def test_meta_reports_visits(self, app):
        run = app.run("rec-hier")
        assert run.meta["visits"] == app.forest.n_visits
        assert run.meta["inflation"] >= 1.0
