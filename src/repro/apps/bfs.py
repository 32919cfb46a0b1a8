"""Breadth-first search: flat (level-synchronous) and recursive variants.

The flat code variant is the thread-mapped, work-efficient, level-by-level
traversal of [5]: one kernel per level, no atomics.

The recursive variants are *unordered* ([11] in the paper): traversing a
node recursively traverses every neighbor whose level decreases, so nodes
can be re-visited with successively smaller levels, and level updates need
atomics.  Scheduling is nondeterministic; we model it with a LIFO-chunk
wave simulation (depth-first flavored, like the serialized traversal the
paper describes) that yields the exact *visit forest*: who was visited,
with what level, spawned by whom.  That forest then instantiates the
rec-naive / rec-hier launch skeletons, with or without extra per-block
streams (Fig. 9's four recursive configurations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppRun, combine_rounds
from repro.core.params import TemplateParams
from repro.core.registry import resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.cpu.costmodel import XEON_E5_2620, CPUConfig
from repro.cpu.reference import _check_source, bfs_recursive_serial, bfs_serial
from repro.errors import WorkloadError, check_count
from repro.gpusim.coalesce import MemoryTraffic, contiguous_transactions
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.costmodel import (
    effective_segment_cycles,
    resident_warps_estimate,
)
from repro.backends import backend_for
from repro.gpusim.kernels import KernelCosts, Launch, LaunchGraph, ProfileCounters
from repro.gpusim.profiler import profile
from repro.gpusim.warps import WarpExecStats
from repro.graphs.csr import CSRGraph, concat_ranges

__all__ = ["BFSApp", "RecursiveBFSApp", "VisitForest", "unordered_bfs_visits"]


class BFSApp:
    """Flat, work-efficient, level-synchronous BFS (the paper's baseline)."""

    name = "bfs"

    def __init__(self, graph: CSRGraph, source: int = 0) -> None:
        _check_source(graph, source)
        self.graph = graph
        self.source = source

    def compute(self) -> np.ndarray:
        """Per-node levels (-1 unreachable); template-invariant."""
        return bfs_serial(self.graph, self.source).result

    def _level_frontiers(self):
        g = self.graph
        level = np.full(g.n_nodes, -1, dtype=np.int64)
        level[self.source] = 0
        frontier = np.array([self.source], dtype=np.int64)
        depth = 0
        while frontier.size:
            yield frontier
            degs = g.out_degrees[frontier]
            idx = concat_ranges(g.row_offsets[frontier], degs)
            if idx.size == 0:
                return
            new = np.unique(g.col_indices[idx][level[g.col_indices[idx]] == -1])
            if new.size == 0:
                return
            depth += 1
            level[new] = depth
            frontier = new

    def _level_workload(self, frontier: np.ndarray) -> NestedLoopWorkload:
        g = self.graph
        trips = np.zeros(g.n_nodes, dtype=np.int64)
        trips[frontier] = g.out_degrees[frontier]
        idx = concat_ranges(g.row_offsets[frontier], g.out_degrees[frontier])
        targets = g.col_indices[idx]
        lvl_base = 4 * g.n_edges + 256
        return NestedLoopWorkload(
            name=f"bfs-level({g.name})",
            trip_counts=trips,
            streams=[
                AccessStream("col-index", idx * 4, "load", 4),
                AccessStream("level-gather", lvl_base + targets * 4, "load", 4),
                AccessStream("level-set", lvl_base + targets * 4, "store", 4,
                             staged_in_shared=True),
            ],
            inner_insts=5.0,
            outer_insts=8.0,
            outer_load_bytes=12,
        )

    def run(
        self,
        template: str = "baseline",
        config: DeviceConfig = KEPLER_K20,
        params: TemplateParams | None = None,
        cpu: CPUConfig = XEON_E5_2620,
    ) -> AppRun:
        """Level-synchronous BFS under a nested-loop template."""
        params = params or TemplateParams()
        tmpl = resolve(template, kind="nested-loop")
        executor = backend_for(config)
        runs = [
            tmpl.run(self._level_workload(frontier), config, params, executor)
            for frontier in self._level_frontiers()
        ]
        total_ms, metrics = combine_rounds(runs)
        serial = bfs_serial(self.graph, self.source)
        return AppRun(
            app=self.name,
            template=template,
            dataset=self.graph.name,
            result=serial.result,
            gpu_time_ms=total_ms,
            cpu_time_ms=cpu.time_ms(serial.ops),
            metrics=metrics,
            meta={"levels": len(runs)},
        )


# --------------------------------------------------------------- visit model
@dataclass
class VisitForest:
    """The exact visit forest of one unordered traversal.

    ``node[k]`` was visited with level ``level[k]``, spawned by visit
    ``parent[k]`` (-1 for the root visit).  ``children_count[k]`` is the
    number of visits ``k`` spawned.
    """

    node: np.ndarray
    level: np.ndarray
    parent: np.ndarray

    def __post_init__(self) -> None:
        self.node = np.asarray(self.node, dtype=np.int64)
        self.level = np.asarray(self.level, dtype=np.int64)
        self.parent = np.asarray(self.parent, dtype=np.int64)
        if not (self.node.shape == self.level.shape == self.parent.shape):
            raise WorkloadError("visit arrays must align")
        if self.n_visits == 0:
            raise WorkloadError("a traversal has at least the root visit")
        self.children_count = np.zeros(self.n_visits, dtype=np.int64)
        valid = self.parent >= 0
        np.add.at(self.children_count, self.parent[valid], 1)

    @property
    def n_visits(self) -> int:
        """Total visits (= nested launches of rec-naive, +1 for the host)."""
        return self.node.size

    def inflation(self, n_reached: int) -> float:
        """Visits per reached node (1.0 = work-efficient)."""
        return self.n_visits / max(n_reached, 1)


def unordered_bfs_visits(
    graph: CSRGraph, source: int = 0, chunk: int = 1024
) -> tuple[VisitForest, np.ndarray]:
    """Simulate an unordered (recursive) BFS and record every visit.

    Pending traversal requests are processed LIFO in chunks of ``chunk``
    (the depth-first-flavored order the nondeterministic recursion
    exhibits).  A request is a real visit if its candidate level still
    improves the node when processed; visits push requests for every
    neighbor they improve.  Returns the visit forest and the final level
    array — which must equal the level-synchronous BFS fixpoint.
    """
    check_count("chunk", chunk, 1, error=WorkloadError)
    _check_source(graph, source)
    g = graph
    INF = np.iinfo(np.int64).max
    level = np.full(g.n_nodes, INF, dtype=np.int64)
    # pending stack of (node, candidate level, parent visit id)
    stack_nodes = [np.array([source], dtype=np.int64)]
    stack_cands = [np.array([0], dtype=np.int64)]
    stack_parents = [np.array([-1], dtype=np.int64)]
    pending = 1

    visits_node: list[np.ndarray] = []
    visits_level: list[np.ndarray] = []
    visits_parent: list[np.ndarray] = []
    n_visits = 0

    while pending:
        # pop up to `chunk` items off the tail (LIFO)
        take_nodes, take_cands, take_parents = [], [], []
        taken = 0
        while stack_nodes and taken < chunk:
            n_arr, c_arr, p_arr = stack_nodes.pop(), stack_cands.pop(), stack_parents.pop()
            room = chunk - taken
            if n_arr.size > room:
                stack_nodes.append(n_arr[:-room])
                stack_cands.append(c_arr[:-room])
                stack_parents.append(p_arr[:-room])
                n_arr, c_arr, p_arr = n_arr[-room:], c_arr[-room:], p_arr[-room:]
            take_nodes.append(n_arr)
            take_cands.append(c_arr)
            take_parents.append(p_arr)
            taken += n_arr.size
        pending -= taken
        nodes = np.concatenate(take_nodes)
        cands = np.concatenate(take_cands)
        parents = np.concatenate(take_parents)
        # a request is live if it still improves the node (all requests in
        # the chunk read the same pre-chunk state: they run "in parallel")
        live = cands < level[nodes]
        if not np.any(live):
            continue
        v_nodes = nodes[live]
        v_cands = cands[live]
        v_parents = parents[live]
        visits_node.append(v_nodes)
        visits_level.append(v_cands)
        visits_parent.append(v_parents)
        visit_ids = np.arange(n_visits, n_visits + v_nodes.size, dtype=np.int64)
        n_visits += v_nodes.size
        # commit the minimum level per node
        np.minimum.at(level, v_nodes, v_cands)
        # expand: push requests for neighbors that would improve *now*
        degs = g.out_degrees[v_nodes]
        idx = concat_ranges(g.row_offsets[v_nodes], degs)
        if idx.size == 0:
            continue
        nbrs = g.col_indices[idx]
        nbr_cands = np.repeat(v_cands, degs) + 1
        nbr_parents = np.repeat(visit_ids, degs)
        improving = nbr_cands < level[nbrs]
        if np.any(improving):
            stack_nodes.append(nbrs[improving])
            stack_cands.append(nbr_cands[improving])
            stack_parents.append(nbr_parents[improving])
            pending += int(np.count_nonzero(improving))

    final = np.where(level == INF, -1, level)
    forest = VisitForest(
        node=np.concatenate(visits_node),
        level=np.concatenate(visits_level),
        parent=np.concatenate(visits_parent),
    )
    return forest, final


# --------------------------------------------------------- recursive timing
class RecursiveBFSApp:
    """Unordered recursive BFS on GPU: rec-naive / rec-hier, +- streams."""

    name = "bfs-recursive"

    def __init__(self, graph: CSRGraph, source: int = 0, chunk: int = 1024) -> None:
        self.graph = graph
        self.source = source
        self._forest, self._levels = unordered_bfs_visits(graph, source, chunk)

    @property
    def forest(self) -> VisitForest:
        """The simulated visit forest (shared by both variants)."""
        return self._forest

    def compute(self) -> np.ndarray:
        """Fixpoint levels — must equal the flat traversal's result."""
        return self._levels

    # -------------------------------------------------------- launch forest
    def _build_graph(
        self,
        config: DeviceConfig,
        params: TemplateParams,
        hierarchical: bool,
    ) -> LaunchGraph:
        """One launch per visit, under either recursion shape.

        * naive: the launch is a single block probing the visit's
          neighbors; its threads spawn child launches for every neighbor
          they improved — children share the parent block's NULL stream
          (serialized) unless ``streams_per_block`` > 1.
        * hierarchical: the launch's *blocks* are the visit's neighbors
          and its threads their neighbors (two levels per launch).  Child
          launches are issued one-per-block, so siblings run concurrently
          without extra streams — but probing work is duplicated across
          levels, which is the "less work-efficient" cost the paper
          attributes to this variant.
        """
        g = self.graph
        forest = self._forest
        cfg = config
        launch_index = np.full(forest.n_visits, -1, dtype=np.int64)

        degs = g.out_degrees[forest.node]
        resident = resident_warps_estimate(
            cfg, 64, 1,
            concurrent_grids=cfg.max_concurrent_kernels,
        )
        seg = effective_segment_cycles(cfg, resident)
        # per-visit probe cost: read neighbor list (coalesced) + gather
        # levels (scattered) + one atomicMin attempt per neighbor
        col_tx = contiguous_transactions(
            np.maximum(degs, 1), element_bytes=4,
            lanes_per_warp=cfg.warp_size,
            segment_bytes=cfg.mem_segment_bytes,
        )
        probe_mem = (col_tx + np.maximum(degs, 1)) * seg
        wpb = -(-np.maximum(degs, 1) // cfg.warp_size)
        probe_compute = wpb * 8.0 / cfg.warp_throughput_per_cycle
        probe_atomics = wpb * cfg.atomic_cycles  # atomicMin per probe warp
        visit_cycles = probe_mem + probe_compute + probe_atomics
        issue_cycles = forest.children_count * cfg.device_launch_issue_cycles

        # sibling order for device-stream serialization
        order = np.argsort(forest.parent, kind="stable")
        sibling_rank = np.zeros(forest.n_visits, dtype=np.int64)
        sorted_parents = forest.parent[order]
        new_grp = np.ones(order.size, dtype=bool)
        new_grp[1:] = sorted_parents[1:] != sorted_parents[:-1]
        grp_start = np.maximum.accumulate(
            np.where(new_grp, np.arange(order.size), 0)
        )
        sibling_rank[order] = np.arange(order.size) - grp_start

        graph = LaunchGraph()
        counters = ProfileCounters(warp=WarpExecStats(warp_size=cfg.warp_size))
        counters.warp.add_counts(int(wpb.sum() * 5), int(degs.sum() * 5))
        counters.load_traffic = MemoryTraffic(
            requested_bytes=int(degs.sum()) * 8,
            transactions=int(col_tx.sum() + degs.sum()),
            segment_bytes=cfg.mem_segment_bytes,
        )
        counters.atomic.n_atomics = int(degs.sum())
        counters.atomic.max_address_multiplicity = 1

        children_of: dict[int, list[int]] = {}
        for k, p in enumerate(forest.parent.tolist()):
            if p >= 0:
                children_of.setdefault(p, []).append(k)

        floor_scale = cfg.warp_throughput_per_cycle
        first = True
        for v in range(forest.n_visits):
            kids = children_of.get(v, [])
            if hierarchical:
                # One launch per visit, but organized hierarchically: the
                # first block probes this visit's neighborhood; one cheap
                # block per improved child marshals that child's nested
                # launch.  Probing is charged exactly once per visit (as
                # in naive) — the hierarchical advantage is that nested
                # launches issue from distinct blocks, i.e. distinct NULL
                # streams, so siblings run concurrently without extra
                # streams (the paper's §III.C observation).
                cells = [visit_cycles[v]]
                cells.extend(
                    150.0 + cfg.device_launch_issue_cycles for _ in kids
                )
                block_cycles = np.array(cells)
                bsize = 64
            else:
                block_cycles = np.array([visit_cycles[v] + issue_cycles[v]])
                bsize = min(max(int(degs[v]), 32), 1024)
            wpb_here = -(-bsize // cfg.warp_size)
            costs = KernelCosts(
                block_cycles=np.asarray(block_cycles, dtype=np.float64),
                block_floor=np.asarray(block_cycles, dtype=np.float64)
                * max(floor_scale / wpb_here, 1.0),
            )
            parent_visit = int(forest.parent[v])
            if parent_visit < 0:
                counters.host_launches += 1
                launch = Launch(
                    name="bfs-rec",
                    block_size=bsize,
                    costs=costs,
                    counters=counters if first else ProfileCounters(),
                    resident_warps_hint=float(resident),
                )
            else:
                counters.device_launches += 1
                rank = int(sibling_rank[v])
                if hierarchical:
                    # issued by this child's marshalling block (block 0 is
                    # the parent's probe block): distinct per-block NULL
                    # streams -> siblings run concurrently
                    pblock = 1 + rank
                    stream = 0
                else:
                    pblock = 0
                    stream = rank % params.streams_per_block
                launch = Launch(
                    name="bfs-rec",
                    block_size=bsize,
                    costs=costs,
                    parent=int(launch_index[parent_visit]),
                    parent_block=int(pblock),
                    device_stream=stream,
                    counters=ProfileCounters(),
                    resident_warps_hint=float(resident),
                )
            launch_index[v] = graph.add(launch)
            first = False
        return graph

    def run(
        self,
        variant: str = "rec-hier",
        config: DeviceConfig = KEPLER_K20,
        params: TemplateParams | None = None,
        cpu: CPUConfig = XEON_E5_2620,
    ) -> AppRun:
        """Execute one recursive variant; CPU baseline is *recursive* serial.

        Fig. 9 reports recursive-GPU **slowdowns** over recursive serial
        CPU, i.e. ``1 / AppRun.speedup``.
        """
        if variant not in ("rec-naive", "rec-hier"):
            raise WorkloadError(f"unknown recursive BFS variant {variant!r}")
        params = params or TemplateParams()
        graph = self._build_graph(config, params, variant == "rec-hier")
        result = backend_for(config).submit(graph)
        metrics = profile(graph, result, config)
        serial = bfs_recursive_serial(self.graph, self.source)
        return AppRun(
            app=self.name,
            template=variant + ("-stream" if params.streams_per_block > 1 else ""),
            dataset=self.graph.name,
            result=self._levels,
            gpu_time_ms=result.time_ms,
            cpu_time_ms=cpu.time_ms(serial.ops),
            metrics=metrics,
            meta={
                "visits": self._forest.n_visits,
                "inflation": self._forest.inflation(
                    int(np.count_nonzero(self._levels >= 0))
                ),
            },
        )
