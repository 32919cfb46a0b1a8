"""Asynchronous (queue-native) graph and tree applications.

The paper's applications are bulk-synchronous: one kernel per BFS level /
relaxation round, a host barrier between rounds.  The applications here
are their *asynchronous* counterparts for the persistent-queue backend
(:mod:`repro.queue`): every improvement pushes relaxation requests for
its neighbors straight onto the work queues — no rounds, no barriers,
one kernel launch for the whole traversal.

Correctness rests on monotonicity: distance/level updates are atomicMin
relaxations, so *any* schedule converges to the same fixpoint — the
serial reference result, bit for bit.  Schedules differ only in how much
work they do: a request may be **stale** by the time a worker pops it (a
better distance already landed), costing a cheap check-and-drop.  The
request log of one seeded schedule therefore maps exactly onto a
:class:`~repro.queue.tasks.TaskGraph`: live requests are executed tasks,
stale requests are cancelled tasks, and the spawn edges are the pushes.

Each app also builds the matching *bulk-synchronous* execution — the same
per-visit costs arranged as one host launch per level-synchronous round —
so queue and BSP runs are apples-to-apples: the difference is purely
launch/barrier overhead vs queue/termination overhead plus the schedule's
work inflation.  On high-diameter graphs (``grid_graph``) the BSP side
pays thousands of launch round-trips for tiny frontiers, which is the
regime ``tests/test_queue_equivalence.py::TestQueueVsBSP`` pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppRun
from repro.backends import backend_for
from repro.cpu.costmodel import XEON_E5_2620, CPUConfig, OpCounts
from repro.cpu.reference import bfs_serial, sssp_serial
from repro.errors import GraphError, WorkloadError
from repro.gpusim.coalesce import MemoryTraffic, contiguous_transactions
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.costmodel import (
    effective_segment_cycles,
    resident_warps_estimate,
)
from repro.gpusim.kernels import (
    KernelCosts,
    Launch,
    LaunchGraph,
    ProfileCounters,
)
from repro.gpusim.profiler import ProfileMetrics, profile
from repro.gpusim.warps import WarpExecStats
from repro.graphs.csr import CSRGraph, concat_ranges
from repro.queue.backend import QueueBackend, QueueExecutionResult
from repro.queue.model import QueueConfig
from repro.queue.tasks import TaskGraph
from repro.trees.structure import Tree

__all__ = [
    "AsyncBFSApp",
    "AsyncSSSPApp",
    "AsyncTreeWalkApp",
    "RequestLog",
    "async_relax_requests",
]

#: threads of the modeled relaxation block (one visit = one small block)
_VISIT_BLOCK = 64


@dataclass
class RequestLog:
    """Every relaxation request of one asynchronous schedule, in pop order.

    Request ``k`` asked to set ``node[k]`` to ``cand[k]``; it was pushed
    by live request ``parent[k]`` (-1 for the initial source request).
    ``live[k]`` says whether the candidate still improved the node when a
    worker popped it — stale requests become cancelled tasks.  Pop order
    is spawn-consistent: a request's parent always appears earlier.
    """

    node: np.ndarray
    cand: np.ndarray
    parent: np.ndarray
    live: np.ndarray

    def __post_init__(self) -> None:
        self.node = np.asarray(self.node, dtype=np.int64)
        self.cand = np.asarray(self.cand, dtype=np.float64)
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.live = np.asarray(self.live, dtype=bool)
        if not (self.node.shape == self.cand.shape == self.parent.shape
                == self.live.shape):
            raise WorkloadError("request arrays must align")
        if self.n_requests == 0:
            raise WorkloadError("a traversal has at least the root request")

    @property
    def n_requests(self) -> int:
        return self.node.size

    @property
    def n_live(self) -> int:
        return int(np.count_nonzero(self.live))

    def inflation(self, n_reached: int) -> float:
        """Live visits per reached node (1.0 = work-efficient)."""
        return self.n_live / max(n_reached, 1)


def async_relax_requests(
    graph: CSRGraph,
    source: int = 0,
    weights: np.ndarray | None = None,
    chunk: int = 256,
    seed: int = 0,
) -> tuple[RequestLog, np.ndarray]:
    """Simulate one asynchronous relaxation schedule; log every request.

    Pending requests live in delta-stepping buckets of width ``max
    weight`` and drain lowest-bucket-first, FIFO within a bucket, in
    chunks of ``chunk`` — the near-priority order Atos-style persistent
    workers achieve with bucketed queues (for unit weights this is exact
    level order); ``seed`` permutes each chunk before processing,
    modeling a different nondeterministic worker interleaving.  Requests
    in a chunk resolve with sequential atomicMin semantics: a request is
    live only if its candidate beats both the global distance and every
    earlier same-chunk request for the node (its atomicMin returned an
    improvement).  Live requests push a request for every neighbor they
    improve; the rest are stale check-and-drops.  Returns the request log
    and the fixpoint distance array — which is schedule-independent
    (``seed`` changes the log, never the distances).
    """
    if chunk < 1:
        raise WorkloadError("chunk must be >= 1")
    if not (0 <= source < graph.n_nodes):
        raise GraphError(f"source {source} out of range")
    g = graph
    if weights is None:
        weights = np.ones(g.n_edges)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (g.n_edges,):
            raise WorkloadError("weights must have one entry per edge")
        if np.any(weights < 0):
            raise GraphError("relaxation requires non-negative weights")
    rng = np.random.default_rng(seed)

    dist = np.full(g.n_nodes, np.inf)
    delta = float(weights.max()) if weights.size else 1.0
    if delta <= 0:
        delta = 1.0
    #: bucket index -> FIFO of (nodes, cands, parents) request batches
    buckets: dict[int, deque] = {}

    def push(n_arr: np.ndarray, c_arr: np.ndarray,
             p_arr: np.ndarray, front: bool = False) -> None:
        bidx = np.floor_divide(c_arr, delta).astype(np.int64)
        for b in np.unique(bidx):
            m = bidx == b
            dq = buckets.setdefault(int(b), deque())
            batch = (n_arr[m], c_arr[m], p_arr[m])
            dq.appendleft(batch) if front else dq.append(batch)

    push(np.array([source], dtype=np.int64), np.array([0.0]),
         np.array([-1], dtype=np.int64))

    log_node: list[np.ndarray] = []
    log_cand: list[np.ndarray] = []
    log_parent: list[np.ndarray] = []
    log_live: list[np.ndarray] = []
    n_requests = 0  # request ids double as task ids (pop order)

    while buckets:
        take_n, take_c, take_p = [], [], []
        taken = 0
        while buckets and taken < chunk:
            b = min(buckets)
            dq = buckets[b]
            n_arr, c_arr, p_arr = dq.popleft()
            if not dq:
                del buckets[b]
            room = chunk - taken
            if n_arr.size > room:
                push(n_arr[room:], c_arr[room:], p_arr[room:], front=True)
                n_arr, c_arr, p_arr = n_arr[:room], c_arr[:room], p_arr[:room]
            take_n.append(n_arr)
            take_c.append(c_arr)
            take_p.append(p_arr)
            taken += n_arr.size
        nodes = np.concatenate(take_n)
        cands = np.concatenate(take_c)
        parents = np.concatenate(take_p)
        if seed:
            # a different seed = a different worker interleaving
            perm = rng.permutation(nodes.size)
            nodes, cands, parents = nodes[perm], cands[perm], parents[perm]
        # sequential atomicMin: a request lands only if it beats the
        # global distance AND every earlier same-chunk write to the node
        live = np.zeros(nodes.size, dtype=bool)
        chunk_best: dict[int, float] = {}
        for k in range(nodes.size):
            nd = int(nodes[k])
            cur = chunk_best.get(nd)
            if cur is None:
                cur = float(dist[nd])
            if cands[k] < cur:
                live[k] = True
                chunk_best[nd] = float(cands[k])
        log_node.append(nodes)
        log_cand.append(cands)
        log_parent.append(parents)
        log_live.append(live)
        req_ids = np.arange(n_requests, n_requests + nodes.size,
                            dtype=np.int64)
        n_requests += nodes.size
        if not np.any(live):
            continue
        v_nodes = nodes[live]
        v_cands = cands[live]
        v_ids = req_ids[live]
        np.minimum.at(dist, v_nodes, v_cands)
        # expand: push a request for every neighbor this visit improves
        degs = g.out_degrees[v_nodes]
        idx = concat_ranges(g.row_offsets[v_nodes], degs)
        if idx.size == 0:
            continue
        nbrs = g.col_indices[idx]
        nbr_cands = np.repeat(v_cands, degs) + weights[idx]
        nbr_parents = np.repeat(v_ids, degs)
        improving = nbr_cands < dist[nbrs]
        if np.any(improving):
            push(nbrs[improving], nbr_cands[improving],
                 nbr_parents[improving])

    log = RequestLog(
        node=np.concatenate(log_node),
        cand=np.concatenate(log_cand),
        parent=np.concatenate(log_parent),
        live=np.concatenate(log_live),
    )
    return log, dist


# ------------------------------------------------------------- cost model
def _visit_cost_cycles(config: DeviceConfig, degs: np.ndarray,
                       weighted: bool) -> np.ndarray:
    """SM-cycles to relax one node's out-edges (one small block per visit).

    Same recipe as the recursive-BFS launch forest: coalesced adjacency
    read, scattered distance gathers, one atomicMin attempt per edge,
    plus the weight stream for weighted relaxations.
    """
    cfg = config
    d = np.maximum(degs, 1)
    resident = resident_warps_estimate(
        cfg, _VISIT_BLOCK, 1, concurrent_grids=cfg.max_concurrent_kernels,
    )
    seg = effective_segment_cycles(cfg, resident)
    col_tx = contiguous_transactions(
        d, element_bytes=4,
        lanes_per_warp=cfg.warp_size,
        segment_bytes=cfg.mem_segment_bytes,
    )
    mem = (col_tx + d) * seg
    if weighted:
        w_tx = contiguous_transactions(
            d, element_bytes=8,
            lanes_per_warp=cfg.warp_size,
            segment_bytes=cfg.mem_segment_bytes,
        )
        mem = mem + w_tx * seg
    wpb = -(-d // cfg.warp_size)
    compute = wpb * 8.0 / cfg.warp_throughput_per_cycle
    atomics = wpb * cfg.atomic_cycles
    return mem + compute + atomics


def _relax_counters(config: DeviceConfig, degs: np.ndarray,
                    weighted: bool) -> ProfileCounters:
    """Aggregated profiler counters of one traversal's live visits."""
    cfg = config
    d = np.maximum(degs, 1)
    wpb = -(-d // cfg.warp_size)
    col_tx = contiguous_transactions(
        d, element_bytes=4,
        lanes_per_warp=cfg.warp_size,
        segment_bytes=cfg.mem_segment_bytes,
    )
    counters = ProfileCounters(warp=WarpExecStats(warp_size=cfg.warp_size))
    counters.warp.add_counts(int(wpb.sum() * 5), int(d.sum() * 5))
    bytes_per_edge = 12 if weighted else 8  # col id + dist (+ weight)
    counters.load_traffic = MemoryTraffic(
        requested_bytes=int(d.sum()) * bytes_per_edge,
        transactions=int(col_tx.sum() + d.sum()),
        segment_bytes=cfg.mem_segment_bytes,
    )
    counters.atomic.n_atomics = int(d.sum())
    counters.atomic.max_address_multiplicity = 1
    counters.host_launches = 1
    return counters


def _metrics_from(counters: ProfileCounters, result,
                  config: DeviceConfig) -> ProfileMetrics:
    """Profiler metrics for a task-graph execution (no LaunchGraph)."""
    warp = counters.warp
    ld = counters.load_traffic
    eff = (warp.active_slots / (warp.issued_steps * warp.warp_size)
           if warp.issued_steps else 1.0)
    gld = (min(1.0, ld.requested_bytes / (ld.transactions * ld.segment_bytes))
           if ld.transactions else 1.0)
    denom = max(result.cycles * config.sm_count, 1e-9)
    util = min(1.0, result.sm_busy_cycles / denom)
    return ProfileMetrics(
        warp_execution_efficiency=eff,
        gld_efficiency=gld,
        gst_efficiency=1.0,
        warp_occupancy=util,
        atomic_ops=counters.atomic.n_atomics,
        kernel_calls=1,
        device_kernel_calls=0,
        time_ms=result.time_ms,
        sm_utilization=util,
    )


# ----------------------------------------------------------- applications
class _AsyncRelaxApp:
    """Shared machinery of the asynchronous SSSP and BFS applications."""

    name = "async-relax"
    weighted = False

    def __init__(self, graph: CSRGraph, source: int = 0,
                 chunk: int = 256, seed: int = 0) -> None:
        if not (0 <= source < graph.n_nodes):
            raise GraphError(f"source {source} out of range")
        self.graph = graph
        self.source = source
        self.chunk = chunk
        self.seed = seed
        self._log, self._dist = async_relax_requests(
            graph, source, self._weights(), chunk, seed
        )

    def _weights(self) -> np.ndarray | None:
        raise NotImplementedError

    def _serial(self):
        raise NotImplementedError

    @property
    def log(self) -> RequestLog:
        """The seeded schedule's request log (drives the task graph)."""
        return self._log

    def distances(self) -> np.ndarray:
        """The asynchronous fixpoint (must equal :meth:`compute`)."""
        return self._result_of(self._dist)

    def compute(self) -> np.ndarray:
        """Serial-reference fixpoint (template/schedule-invariant)."""
        return self._serial().result

    def _result_of(self, dist: np.ndarray) -> np.ndarray:
        return dist

    # -------------------------------------------------------- queue side
    def task_graph(self, config: DeviceConfig = KEPLER_K20) -> TaskGraph:
        """The schedule as a queue task population.

        Live requests are executed tasks costing one visit's relaxation;
        stale requests are cancelled tasks (the model charges only the
        check); spawn edges follow the log's pushes.
        """
        log = self._log
        work = np.zeros(log.n_requests)
        work[log.live] = _visit_cost_cycles(
            config, self.graph.out_degrees[log.node[log.live]], self.weighted
        )
        return TaskGraph(
            name=f"{self.name}({self.graph.name})",
            work_cycles=work,
            spawned_by=log.parent,
            cancelled=~log.live,
            counters=_relax_counters(
                config, self.graph.out_degrees[log.node[log.live]],
                self.weighted,
            ),
        )

    # ---------------------------------------------------------- BSP side
    def _frontiers(self):
        """Level-synchronous rounds: the frontier relaxed per kernel."""
        g = self.graph
        weights = self._weights()
        if weights is None:
            weights = np.ones(g.n_edges)
        dist = np.full(g.n_nodes, np.inf)
        dist[self.source] = 0.0
        frontier = np.array([self.source], dtype=np.int64)
        while frontier.size:
            yield frontier
            degs = g.out_degrees[frontier]
            idx = concat_ranges(g.row_offsets[frontier], degs)
            if idx.size == 0:
                return
            srcs = np.repeat(frontier, degs)
            targets = g.col_indices[idx]
            cand = dist[srcs] + weights[idx]
            improving = cand < dist[targets]
            if not np.any(improving):
                return
            order = np.argsort(targets[improving], kind="stable")
            t_sorted = targets[improving][order]
            c_sorted = cand[improving][order]
            first = np.ones(t_sorted.size, dtype=bool)
            first[1:] = t_sorted[1:] != t_sorted[:-1]
            group_min = np.minimum.reduceat(c_sorted, np.flatnonzero(first))
            uniq = t_sorted[first]
            better = group_min < dist[uniq]
            dist[uniq[better]] = group_min[better]
            frontier = uniq[better]

    def launch_graph(self, config: DeviceConfig = KEPLER_K20) -> LaunchGraph:
        """The BSP comparator: one host launch per round, same visit costs.

        Every round's frontier becomes one kernel whose blocks carry
        exactly the per-visit cycles the queue tasks carry — so a queue
        vs BSP comparison isolates launch/barrier overhead against
        queue/termination overhead plus schedule inflation.
        """
        graph = LaunchGraph()
        first = True
        resident = resident_warps_estimate(
            config, _VISIT_BLOCK, 1,
            concurrent_grids=config.max_concurrent_kernels,
        )
        for frontier in self._frontiers():
            cycles = _visit_cost_cycles(
                config, self.graph.out_degrees[frontier], self.weighted
            )
            counters = ProfileCounters()
            if first:
                counters = _relax_counters(
                    config,
                    self.graph.out_degrees[self._log.node[self._log.live]],
                    self.weighted,
                )
            graph.add(Launch(
                name=f"{self.name}-round",
                block_size=_VISIT_BLOCK,
                costs=KernelCosts(block_cycles=cycles,
                                  block_floor=np.zeros_like(cycles)),
                counters=counters,
                resident_warps_hint=float(resident),
            ))
            first = False
        return graph

    # --------------------------------------------------------------- run
    def run(
        self,
        backend: str = "queue",
        config: DeviceConfig = KEPLER_K20,
        queue_config: QueueConfig | None = None,
        cpu: CPUConfig = XEON_E5_2620,
    ) -> AppRun:
        """Execute the traversal on one execution model.

        ``backend="queue"`` drains the schedule's task graph through the
        persistent workers; ``backend="sim"`` runs the level-synchronous
        launch-per-round comparator on the BSP simulator.
        """
        serial = self._serial()
        meta = {
            "requests": self._log.n_requests,
            "stale": self._log.n_requests - self._log.n_live,
            "inflation": self._log.inflation(
                int(np.count_nonzero(np.isfinite(self._dist)))
            ),
        }
        if backend == "queue":
            qb = QueueBackend(config, queue_config=queue_config)
            tasks = self.task_graph(config)
            result: QueueExecutionResult = qb.submit_tasks(tasks)
            metrics = _metrics_from(tasks.counters, result, config)
            meta.update(
                n_workers=result.n_workers,
                steals=result.steals,
                termination_cycles=result.termination_cycles,
                termination_overhead=result.termination_overhead,
            )
        elif backend == "sim":
            graph = self.launch_graph(config)
            result = backend_for(config).submit(graph)
            metrics = profile(graph, result, config)
            meta.update(rounds=len(graph.launches))
        else:
            raise WorkloadError(
                f"unknown async-app backend {backend!r}; known: queue, sim"
            )
        return AppRun(
            app=self.name,
            template=backend,
            dataset=self.graph.name,
            result=self.compute(),
            gpu_time_ms=result.time_ms,
            cpu_time_ms=cpu.time_ms(serial.ops),
            metrics=metrics,
            meta=meta,
        )


class AsyncSSSPApp(_AsyncRelaxApp):
    """Asynchronous SSSP: barrier-free atomicMin relaxation."""

    name = "sssp-async"
    weighted = True

    def _weights(self) -> np.ndarray:
        g = self.graph
        w = g.weights if g.weights is not None else np.ones(g.n_edges)
        if np.any(w < 0):
            raise GraphError("SSSP requires non-negative weights")
        return np.asarray(w, dtype=np.float64)

    def _serial(self):
        return sssp_serial(self.graph, self.source)


class AsyncBFSApp(_AsyncRelaxApp):
    """Asynchronous BFS: unordered unit-weight relaxation."""

    name = "bfs-async"
    weighted = False

    def _weights(self) -> None:
        return None

    def _serial(self):
        return bfs_serial(self.graph, self.source)

    def _result_of(self, dist: np.ndarray) -> np.ndarray:
        return np.where(np.isfinite(dist), dist, -1).astype(np.int64)


class AsyncTreeWalkApp:
    """Recursive tree walk on the queue: each node's task spawns its
    children — the pure frontier-push recursion the BSP model can only
    approximate with one launch per level."""

    name = "treewalk-async"

    #: issued instructions charged per visited node (payload work)
    NODE_INSTS = 12.0

    def __init__(self, tree: Tree) -> None:
        self.tree = tree

    def compute(self) -> np.ndarray:
        """Per-node depth (the walk's functional result)."""
        return self.tree.levels

    def _node_cost(self, config: DeviceConfig) -> np.ndarray:
        degs = self.tree.out_degrees
        return _visit_cost_cycles(config, degs, weighted=False)

    def task_graph(self, config: DeviceConfig = KEPLER_K20) -> TaskGraph:
        """One task per node; ``spawned_by`` is the parent (level order
        guarantees topological task ids)."""
        return TaskGraph(
            name=f"{self.name}({self.tree.name})",
            work_cycles=self._node_cost(config),
            spawned_by=self.tree.parents,
            counters=_relax_counters(config, self.tree.out_degrees,
                                     weighted=False),
        )

    def launch_graph(self, config: DeviceConfig = KEPLER_K20) -> LaunchGraph:
        """BSP comparator: one host launch per tree level."""
        graph = LaunchGraph()
        cost = self._node_cost(config)
        resident = resident_warps_estimate(
            config, _VISIT_BLOCK, 1,
            concurrent_grids=config.max_concurrent_kernels,
        )
        for level in range(self.tree.depth):
            nodes = self.tree.level_nodes(level)
            cycles = cost[nodes]
            counters = ProfileCounters()
            if level == 0:
                counters = _relax_counters(config, self.tree.out_degrees,
                                           weighted=False)
            graph.add(Launch(
                name=f"{self.name}-level",
                block_size=_VISIT_BLOCK,
                costs=KernelCosts(block_cycles=cycles,
                                  block_floor=np.zeros_like(cycles)),
                counters=counters,
                resident_warps_hint=float(resident),
            ))
        return graph

    def run(
        self,
        backend: str = "queue",
        config: DeviceConfig = KEPLER_K20,
        queue_config: QueueConfig | None = None,
        cpu: CPUConfig = XEON_E5_2620,
    ) -> AppRun:
        """Execute the walk on one execution model (queue or BSP)."""
        n = self.tree.n_nodes
        ops = OpCounts(alu=n * self.NODE_INSTS, rand_loads=float(n),
                       stores=float(n), branches=float(n), calls=float(n))
        meta = {"n_nodes": n, "depth": self.tree.depth}
        if backend == "queue":
            qb = QueueBackend(config, queue_config=queue_config)
            tasks = self.task_graph(config)
            result = qb.submit_tasks(tasks)
            metrics = _metrics_from(tasks.counters, result, config)
            meta.update(
                n_workers=result.n_workers,
                steals=result.steals,
                termination_overhead=result.termination_overhead,
            )
        elif backend == "sim":
            graph = self.launch_graph(config)
            result = backend_for(config).submit(graph)
            metrics = profile(graph, result, config)
            meta.update(rounds=len(graph.launches))
        else:
            raise WorkloadError(
                f"unknown async-app backend {backend!r}; known: queue, sim"
            )
        return AppRun(
            app=self.name,
            template=backend,
            dataset=self.tree.name,
            result=self.compute(),
            gpu_time_ms=result.time_ms,
            cpu_time_ms=cpu.time_ms(ops),
            metrics=metrics,
            meta=meta,
        )
