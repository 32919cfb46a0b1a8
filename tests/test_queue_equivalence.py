"""Asynchronous execution equivalence: queue results == BSP results.

The paper-level claim behind the queue backend: because distance/level
updates are *monotone* atomicMin relaxations, barrier-free asynchronous
execution converges to exactly the level-synchronous answer — any
schedule, any interleaving.  These tests pin that down bit-exactly:

* async SSSP/BFS fixpoints equal the serial (= BSP level-synchronous)
  references, elementwise identical — not approximately;
* five differently-seeded nondeterministic schedules (per-chunk worker
  interleavings) produce different request logs but the *same* fixpoint;
* the schedule's task graph is internally consistent: spawn edges are
  topological, live+stale partition the requests, and the queue model
  conserves them (``enqueued == executed + cancelled``);
* the tree walk visits every node exactly once at its true depth;
* each model wins its regime: the queue on high-diameter grids and tree
  walks, BSP on a low-diameter power-law graph.
"""

import numpy as np
import pytest

from repro.apps.asyncq import (
    AsyncBFSApp,
    AsyncSSSPApp,
    AsyncTreeWalkApp,
    async_relax_requests,
)
from repro.errors import GraphError, WorkloadError
from repro.gpusim.config import KEPLER_K20
from repro.graphs import citeseer_like
from repro.graphs.generators import grid_graph
from repro.queue import simulate
from repro.trees.generator import generate_tree

SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def grid():
    return grid_graph(16, seed=3)


@pytest.fixture(scope="module")
def citeseer():
    return citeseer_like(scale=0.05)


class TestFixpointEquivalence:
    def test_sssp_matches_serial_bitwise(self, grid):
        app = AsyncSSSPApp(grid, source=0)
        assert np.array_equal(app.distances(), app.compute())

    def test_bfs_matches_serial_bitwise(self, grid):
        app = AsyncBFSApp(grid, source=0)
        assert np.array_equal(app.distances(), app.compute())

    def test_sssp_on_power_law_graph(self, citeseer):
        app = AsyncSSSPApp(citeseer, source=0)
        assert np.array_equal(app.distances(), app.compute())

    def test_bfs_unreached_nodes_marked(self):
        # two disconnected 2-cliques: the far pair stays at -1
        g = grid_graph(2)  # 2x2 grid, fully connected
        app = AsyncBFSApp(g, source=0)
        dist = app.distances()
        assert dist[0] == 0
        assert np.all(dist >= 0)  # grid is connected

    def test_source_validated(self, grid):
        for source in (grid.n_nodes, True, 1.5):
            with pytest.raises(GraphError):
                AsyncSSSPApp(grid, source=source)
        for bad in ({"chunk": 0}, {"chunk": 2.5}, {"seed": -1}):
            with pytest.raises(WorkloadError):
                AsyncBFSApp(grid, **bad)


class TestScheduleNondeterminism:
    def test_five_shuffled_schedules_same_fixpoint(self, grid):
        """Different worker interleavings -> different work, same answer."""
        ref = AsyncSSSPApp(grid, source=0, seed=SEEDS[0]).distances()
        logs = []
        for seed in SEEDS:
            app = AsyncSSSPApp(grid, source=0, seed=seed)
            assert np.array_equal(app.distances(), ref), f"seed {seed}"
            logs.append(app.log)
        # the schedules genuinely differ (request streams are not all equal)
        streams = {tuple(log.node[:64].tolist()) for log in logs}
        assert len(streams) > 1

    def test_five_shuffled_bfs_schedules(self, grid):
        ref = AsyncBFSApp(grid, source=0, seed=SEEDS[0]).distances()
        for seed in SEEDS[1:]:
            app = AsyncBFSApp(grid, source=0, seed=seed)
            assert np.array_equal(app.distances(), ref), f"seed {seed}"

    def test_chunk_size_is_schedule_not_semantics(self, grid):
        ref = AsyncSSSPApp(grid, source=0, chunk=256).distances()
        for chunk in (1, 7, 64, 1024):
            app = AsyncSSSPApp(grid, source=0, chunk=chunk)
            assert np.array_equal(app.distances(), ref), f"chunk {chunk}"


class TestRequestLog:
    def test_spawn_edges_topological(self, grid):
        log = AsyncSSSPApp(grid, source=0, seed=2).log
        ids = np.arange(log.n_requests)
        assert np.all(log.parent < ids)
        assert int(np.count_nonzero(log.parent < 0)) == 1  # the root

    def test_stale_requests_never_spawn(self, grid):
        log = AsyncSSSPApp(grid, source=0, seed=2).log
        spawners = log.parent[log.parent >= 0]
        assert np.all(log.live[spawners])

    def test_queue_model_conserves_requests(self, grid):
        app = AsyncSSSPApp(grid, source=0, seed=1)
        stats = simulate(app.task_graph(), KEPLER_K20)
        assert stats.tasks_enqueued == app.log.n_requests
        assert stats.tasks_executed == app.log.n_live
        assert stats.tasks_cancelled == app.log.n_requests - app.log.n_live

    def test_bfs_inflation_is_work_efficient(self, grid):
        """Unit weights drain in exact level order: every node is
        visited exactly once (inflation 1.0)."""
        app = AsyncBFSApp(grid, source=0)
        reached = int(np.count_nonzero(app.distances() >= 0))
        assert app.log.n_live == reached

    def test_engine_rejects_negative_weights(self, grid):
        with pytest.raises(GraphError):
            async_relax_requests(
                grid, weights=np.full(grid.n_edges, -1.0))


class TestAppRuns:
    def test_queue_run_reports_termination(self, grid):
        run = AsyncBFSApp(grid, source=0).run("queue")
        assert run.meta["termination_overhead"] > 0
        assert run.gpu_time_ms > 0

    def test_bsp_run_pays_a_launch_per_round(self, grid):
        app = AsyncBFSApp(grid, source=0)
        run = app.run("sim")
        serial = app.compute()
        assert run.meta["rounds"] == int(serial.max()) + 1

    def test_queue_beats_bsp_on_high_diameter_bfs(self, grid):
        """The headline effect: tiny frontiers make BSP launch-bound."""
        app = AsyncBFSApp(grid, source=0)
        assert app.run("queue").gpu_time_ms < app.run("sim").gpu_time_ms

    def test_results_identical_across_backends(self, grid):
        app = AsyncSSSPApp(grid, source=0)
        assert np.array_equal(app.run("queue").result,
                              app.run("sim").result)


class TestTreeWalk:
    @pytest.fixture(scope="class")
    def tree(self):
        return generate_tree(depth=7, outdegree=3, sparsity=0.2, seed=11)

    def test_one_task_per_node(self, tree):
        app = AsyncTreeWalkApp(tree)
        tasks = app.task_graph()
        assert tasks.n_tasks == tree.n_nodes
        stats = simulate(tasks, KEPLER_K20)
        assert stats.tasks_executed == tree.n_nodes
        assert stats.tasks_cancelled == 0

    def test_result_is_depths(self, tree):
        assert np.array_equal(AsyncTreeWalkApp(tree).compute(), tree.levels)

    def test_queue_beats_level_synchronous_walk(self, tree):
        app = AsyncTreeWalkApp(tree)
        assert app.run("queue").gpu_time_ms < app.run("sim").gpu_time_ms


class TestQueueVsBSP:
    """Where each execution model wins (the regime table in
    docs/taskqueue.md): BSP pays one host launch per round, the queue one
    launch plus per-task queue traffic.  Speedups are BSP time over queue
    time, on equal results."""

    @staticmethod
    def speedup(app) -> float:
        queue, bsp = app.run("queue"), app.run("sim")
        assert np.array_equal(queue.result, bsp.result)
        return bsp.gpu_time_ms / queue.gpu_time_ms

    @pytest.mark.parametrize("side", [16, 24])
    @pytest.mark.parametrize("app_cls", [AsyncBFSApp, AsyncSSSPApp])
    def test_queue_wins_on_high_diameter_grids(self, app_cls, side):
        """1.5x (SSSP, side 24) to 5.0x (BFS, side 16)."""
        app = app_cls(grid_graph(side, seed=1), source=0)
        assert self.speedup(app) > 1.0

    @pytest.mark.parametrize("depth,outdegree,sparsity",
                             [(7, 3, 0.2), (12, 2, 0.4)])
    def test_queue_wins_on_tree_walks(self, depth, outdegree, sparsity):
        """2.1x bushy, 5.4x deep and sparse: a launch per level is
        overhead when levels are narrow."""
        tree = generate_tree(depth=depth, outdegree=outdegree,
                             sparsity=sparsity, seed=7)
        assert self.speedup(AsyncTreeWalkApp(tree)) > 1.0

    @pytest.mark.parametrize("app_cls", [AsyncBFSApp, AsyncSSSPApp])
    def test_bsp_wins_on_power_law_graph(self, app_cls):
        """0.14x (BFS) and 0.09x (SSSP): few rounds over wide frontiers
        amortize BSP's launches, and queue traffic dominates."""
        app = app_cls(citeseer_like(scale=0.005), source=0)
        assert self.speedup(app) < 1.0
