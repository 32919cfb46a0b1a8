"""Tests for the graph applications (SpMV, SSSP, PageRank, BC, flat BFS)."""

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.apps import BCApp, BFSApp, PageRankApp, SpMVApp, SSSPApp
from repro.core import TemplateParams
from repro.cpu.reference import bc_serial, bfs_serial, pagerank_serial
from repro.errors import GraphError
from repro.graphs import citeseer_like, uniform_random_graph, wiki_vote_like


@pytest.fixture(scope="module")
def small_graph():
    g = uniform_random_graph(2000, (1, 12), seed=3)
    rng = np.random.default_rng(4)
    g.weights = rng.integers(1, 10, size=g.n_edges).astype(np.float64)
    return g


@pytest.fixture(scope="module")
def irregular_graph():
    return citeseer_like(scale=0.01, seed=5)


class TestSpMVApp:
    def test_result_matches_scipy(self, small_graph):
        app = SpMVApp(small_graph, seed=1)
        run = app.run("baseline")
        expected = small_graph.to_scipy() @ app.x
        np.testing.assert_allclose(run.result, expected, rtol=1e-12)

    def test_result_template_invariant(self, small_graph):
        app = SpMVApp(small_graph, seed=1)
        results = [app.run(t).result
                   for t in ("baseline", "dbuf-shared", "dual-queue")]
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_load_balancing_beats_baseline_on_irregular(self, irregular_graph):
        app = SpMVApp(irregular_graph)
        base = app.run("baseline")
        dbuf = app.run("dbuf-global")
        assert dbuf.gpu_time_ms < base.gpu_time_ms

    def test_x_shape_validated(self, small_graph):
        with pytest.raises(GraphError):
            SpMVApp(small_graph, x=np.ones(3))

    def test_seed_validated(self, small_graph):
        for seed in (-1, 2.5, True):
            with pytest.raises(GraphError):
                SpMVApp(small_graph, seed=seed)
        np.testing.assert_array_equal(SpMVApp(small_graph, seed=np.int64(1)).x,
                                      SpMVApp(small_graph, seed=1).x)

    def test_speedup_is_cpu_over_gpu(self, small_graph):
        run = SpMVApp(small_graph).run("baseline")
        assert run.speedup == pytest.approx(run.cpu_time_ms / run.gpu_time_ms)


class TestSSSPApp:
    def test_distances_match_dijkstra(self, small_graph):
        app = SSSPApp(small_graph, source=0)
        run = app.run("baseline")
        expected = dijkstra(small_graph.to_scipy(), indices=0)
        np.testing.assert_allclose(run.result, expected)

    def test_multiple_rounds(self, small_graph):
        run = SSSPApp(small_graph).run("baseline")
        assert run.meta["rounds"] > 1

    def test_templates_agree_functionally(self, small_graph):
        app = SSSPApp(small_graph)
        a = app.run("baseline").result
        b = app.run("dbuf-shared").result
        np.testing.assert_array_equal(a, b)

    def test_load_balancing_helps(self, irregular_graph):
        app = SSSPApp(irregular_graph)
        base = app.run("baseline")
        dbuf = app.run("dbuf-shared", params=TemplateParams(lb_threshold=32))
        assert dbuf.gpu_time_ms < base.gpu_time_ms

    def test_source_validated(self, small_graph):
        # a bool is no node id: dist[True] = 0.0 would zero every distance
        for source in (10**6, -1, True, 1.5, float("nan")):
            with pytest.raises(GraphError):
                SSSPApp(small_graph, source=source)
        np.testing.assert_array_equal(
            SSSPApp(small_graph, source=np.int64(1)).compute(),
            SSSPApp(small_graph, source=1).compute())

    def test_max_rounds_validated(self, small_graph):
        for rounds in (0, -1, 2.5, True):
            with pytest.raises(GraphError):
                SSSPApp(small_graph, max_rounds=rounds)
        run = SSSPApp(small_graph, max_rounds=np.int64(2)).run("baseline")
        assert run.meta["rounds"] == 2

    def test_negative_weights_rejected(self, small_graph):
        bad = citeseer_like(scale=0.01, seed=9)
        bad.weights[0] = -5
        with pytest.raises(GraphError):
            SSSPApp(bad)


class TestPageRankApp:
    def test_matches_serial_reference(self, small_graph):
        app = PageRankApp(small_graph, n_iters=15)
        run = app.run("baseline")
        expected = pagerank_serial(small_graph, n_iters=15).result
        np.testing.assert_allclose(run.result, expected)

    def test_ranks_sum_to_one(self, small_graph):
        run = PageRankApp(small_graph, n_iters=10).run("dbuf-global")
        assert run.result.sum() == pytest.approx(1.0, abs=1e-9)

    def test_time_scales_with_iterations(self, small_graph):
        short = PageRankApp(small_graph, n_iters=5).run("baseline")
        long = PageRankApp(small_graph, n_iters=20).run("baseline")
        assert long.gpu_time_ms == pytest.approx(4 * short.gpu_time_ms, rel=0.01)

    def test_validation(self, small_graph):
        with pytest.raises(GraphError):
            PageRankApp(small_graph, damping=2.0)
        for n_iters in (0, 2.5, True, float("nan")):
            with pytest.raises(GraphError):
                PageRankApp(small_graph, n_iters=n_iters)
        assert PageRankApp(small_graph, n_iters=np.int64(3)).n_iters == 3


class TestBCApp:
    def test_matches_serial_reference(self):
        g = wiki_vote_like(seed=2)
        app = BCApp(g, n_sources=4, seed=1)
        run = app.run("baseline")
        expected = bc_serial(g, app.sources).result
        np.testing.assert_allclose(run.result, expected)

    def test_all_sources_option(self, small_graph):
        app = BCApp(small_graph, n_sources=None)
        assert app.sources.size == small_graph.n_nodes

    def test_source_count_validated(self, small_graph):
        for n_sources in (0, 2.5, True, float("nan")):
            with pytest.raises(GraphError):
                BCApp(small_graph, n_sources=n_sources)
        with pytest.raises(GraphError):
            BCApp(small_graph, seed=-1)
        assert BCApp(small_graph, n_sources=np.int64(3)).sources.size == 3

    def test_forward_and_backward_kernels(self):
        g = wiki_vote_like(seed=2)
        run = BCApp(g, n_sources=2, seed=3).run("baseline")
        # at least forward + backward per source
        assert run.meta["kernels"] >= 2 * 2


class TestBFSApp:
    def test_levels_match_serial(self, small_graph):
        run = BFSApp(small_graph, source=0).run("baseline")
        np.testing.assert_array_equal(
            run.result, bfs_serial(small_graph, 0).result
        )

    def test_levels_counted(self, small_graph):
        run = BFSApp(small_graph).run("baseline")
        assert run.meta["levels"] >= 1

    def test_source_validated(self, small_graph):
        for source in (-1, small_graph.n_nodes, True, 1.5, float("nan")):
            with pytest.raises(GraphError):
                BFSApp(small_graph, source=source)
        np.testing.assert_array_equal(
            BFSApp(small_graph, source=np.int64(1)).compute(),
            BFSApp(small_graph, source=1).compute())
