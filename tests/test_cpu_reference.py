"""Correctness tests of the serial CPU references vs scipy/networkx."""

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.cpu.costmodel import XEON_E5_2620, CPUConfig, OpCounts
from repro.cpu.reference import (
    bc_serial,
    bfs_recursive_serial,
    bfs_serial,
    pagerank_serial,
    recursive_bfs_cpu_speedup,
    spmv_serial,
    sssp_serial,
)
from repro.errors import ConfigError, GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import uniform_random_graph, wiki_vote_like


def random_graph(n=200, seed=0, weighted=True):
    g = uniform_random_graph(n, (1, 8), seed=seed)
    if weighted:
        rng = np.random.default_rng(seed + 1)
        g.weights = rng.integers(1, 10, size=g.n_edges).astype(np.float64)
    return g


class TestOpCounts:
    def test_add(self):
        total = OpCounts(alu=1) + OpCounts(alu=2, calls=3)
        assert total.alu == 3
        assert total.calls == 3

    def test_scaled(self):
        assert OpCounts(alu=2).scaled(10).alu == 20

    def test_scaled_rejects_negative(self):
        with pytest.raises(ConfigError):
            OpCounts().scaled(-1)

    def test_time_positive(self):
        assert XEON_E5_2620.time_ms(OpCounts(alu=1e9)) > 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CPUConfig(clock_ghz=0)


class TestSpMV:
    def test_matches_scipy(self):
        g = random_graph(300, seed=2)
        x = np.random.default_rng(3).random(g.n_nodes)
        run = spmv_serial(g, x)
        expected = g.to_scipy() @ x
        np.testing.assert_allclose(run.result, expected, rtol=1e-12)

    def test_unweighted_defaults_to_ones(self):
        g = random_graph(50, seed=4, weighted=False)
        x = np.ones(g.n_nodes)
        run = spmv_serial(g, x)
        np.testing.assert_allclose(run.result, g.out_degrees.astype(float))

    def test_shape_check(self):
        g = random_graph(10)
        with pytest.raises(GraphError):
            spmv_serial(g, np.ones(3))

    def test_op_counts_scale_with_nnz(self):
        small = spmv_serial(random_graph(100, seed=1), np.ones(100))
        big = spmv_serial(random_graph(1000, seed=1), np.ones(1000))
        assert big.ops.total > 5 * small.ops.total


class TestSSSP:
    def test_matches_scipy_dijkstra(self):
        g = random_graph(400, seed=5)
        run = sssp_serial(g, source=0)
        expected = dijkstra(g.to_scipy(), indices=0)
        np.testing.assert_allclose(run.result, expected)

    def test_unreachable_nodes_are_inf(self):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]))
        run = sssp_serial(g, 0)
        assert run.result[2] == np.inf

    def test_source_distance_zero(self):
        g = random_graph(100, seed=6)
        assert sssp_serial(g, 17).result[17] == 0.0

    def test_meta_reports_rounds(self):
        g = random_graph(100, seed=7)
        run = sssp_serial(g)
        assert run.meta["rounds"] >= 1
        assert run.meta["edges_relaxed"] > 0

    def test_rejects_negative_weights(self):
        g = random_graph(10, seed=8)
        g.weights[0] = -1.0
        with pytest.raises(GraphError):
            sssp_serial(g)

    def test_rejects_bad_source(self):
        for source in (100, True, 1.5):
            with pytest.raises(GraphError):
                sssp_serial(random_graph(10), source=source)

    def test_rejects_bad_max_rounds(self):
        for rounds in (0, 2.5):
            with pytest.raises(GraphError):
                sssp_serial(random_graph(10), max_rounds=rounds)


def simple_graph(n=150, n_edges=800, seed=0):
    """Duplicate-free directed graph (networkx collapses parallel edges,
    while our CSR keeps them, so comparisons need simple graphs)."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < n_edges:
        s, t = rng.integers(0, n, size=2)
        if s != t:
            edges.add((int(s), int(t)))
    src, dst = map(np.array, zip(*sorted(edges)))
    return CSRGraph.from_edges(n, src, dst)


class TestPageRank:
    def test_matches_networkx(self):
        g = simple_graph(150, 800, seed=9)
        run = pagerank_serial(g, n_iters=100, tol=1e-12)
        expected = nx.pagerank(g.to_networkx(), alpha=0.85, max_iter=200,
                               tol=1e-12)
        expected_arr = np.array([expected[i] for i in range(g.n_nodes)])
        np.testing.assert_allclose(run.result, expected_arr, atol=1e-8)

    def test_ranks_sum_to_one(self):
        g = wiki_vote_like(seed=1)
        run = pagerank_serial(g, n_iters=30)
        assert run.result.sum() == pytest.approx(1.0, abs=1e-9)

    def test_tolerance_stops_early(self):
        g = random_graph(100, seed=10, weighted=False)
        run = pagerank_serial(g, n_iters=500, tol=1e-10)
        assert run.meta["iterations"] < 500

    def test_validation(self):
        g = random_graph(10)
        with pytest.raises(GraphError):
            pagerank_serial(g, damping=1.5)
        for n_iters in (0, 2.5):
            with pytest.raises(GraphError):
                pagerank_serial(g, n_iters=n_iters)


class TestBC:
    def test_matches_networkx(self):
        # duplicate-free small graph
        rng = np.random.default_rng(11)
        n = 60
        edges = set()
        while len(edges) < 300:
            s, t = rng.integers(0, n, size=2)
            if s != t:
                edges.add((int(s), int(t)))
        src, dst = map(np.array, zip(*sorted(edges)))
        g = CSRGraph.from_edges(n, src, dst)
        run = bc_serial(g)
        expected = nx.betweenness_centrality(g.to_networkx(), normalized=False)
        expected_arr = np.array([expected[i] for i in range(n)])
        np.testing.assert_allclose(run.result, expected_arr, atol=1e-9)

    def test_sampled_sources(self):
        g = random_graph(100, seed=12, weighted=False)
        run = bc_serial(g, sources=np.arange(10))
        assert run.meta["n_sources"] == 10
        assert np.all(run.result >= 0)

    def test_source_range_check(self):
        with pytest.raises(GraphError):
            bc_serial(random_graph(10), sources=np.array([99]))

    def test_star_graph_center(self):
        # star: all paths pass through the hub
        n = 10
        src = np.concatenate([np.zeros(n - 1, dtype=int), np.arange(1, n)])
        dst = np.concatenate([np.arange(1, n), np.zeros(n - 1, dtype=int)])
        g = CSRGraph.from_edges(n, src, dst)
        run = bc_serial(g)
        assert run.result[0] == pytest.approx((n - 1) * (n - 2))
        np.testing.assert_allclose(run.result[1:], 0.0)


class TestBFS:
    def test_matches_networkx_levels(self):
        g = random_graph(200, seed=13, weighted=False)
        run = bfs_serial(g, 0)
        lengths = nx.single_source_shortest_path_length(g.to_networkx(), 0)
        for node in range(g.n_nodes):
            expected = lengths.get(node, -1)
            assert run.result[node] == expected

    def test_rejects_bad_source(self):
        g = random_graph(10, weighted=False)
        for source in (10, True, 1.5):
            with pytest.raises(GraphError):
                bfs_serial(g, source)
            with pytest.raises(GraphError):
                bfs_recursive_serial(g, source)

    def test_recursive_exact_matches_iterative(self):
        g = random_graph(200, seed=14, weighted=False)
        it = bfs_serial(g, 0)
        rec = bfs_recursive_serial(g, 0, exact_limit=100_000)
        assert rec.meta["exact"]
        np.testing.assert_array_equal(rec.result, it.result)
        # unordered DFS is not work-efficient: it revisits nodes
        assert rec.meta["visits"] >= np.count_nonzero(it.result >= 0)

    def test_recursive_modeled_by_default(self):
        g = uniform_random_graph(2000, (8, 16), seed=15)
        rec = bfs_recursive_serial(g, 0)
        assert not rec.meta["exact"]
        assert 1.25 <= rec.meta["modeled_speedup"] <= 3.3
        it = bfs_serial(g, 0)
        # the modeled recursive baseline is FASTER than iterative (paper)
        assert rec.ops.total < it.ops.total

    def test_speedup_interpolation(self):
        assert recursive_bfs_cpu_speedup(1_600_000) == pytest.approx(1.25)
        assert recursive_bfs_cpu_speedup(27_000_000) == pytest.approx(3.3)
        assert recursive_bfs_cpu_speedup(100) == 1.25
        mid = recursive_bfs_cpu_speedup(8_000_000)
        assert 1.25 < mid < 3.3
