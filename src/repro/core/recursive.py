"""Parallelization templates for recursive tree computations (Fig. 3).

Three GPU variants of a recursive tree traversal (descendants / heights):

* **flat** — the recursion-eliminated kernel: one thread per node walks
  its ancestor chain issuing one atomic RMW per hop.  Perfectly parallel,
  but the atomic count equals the node-ancestor pair count and the root
  is a globally hot address — performance saturates with outdegree.
* **rec-naive** — thread-based recursion: a kernel per internal node (one
  block, a thread per child); every thread whose child is internal spawns
  a nested kernel.  Kernel count = 1 + internal nodes below the root; the
  children of one block serialize in its NULL stream.
* **rec-hier** — hierarchical recursion: a kernel per node with
  grandchildren (children as blocks, grandchildren as threads); each
  *block* spawns at most one nested kernel.  Far fewer, far larger grids.

All three produce identical functional results (``subtree_sizes`` /
``node_heights``); only the hardware mapping differs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core.analysis import TreeAnalysis, get_tree_analysis
from repro.core.base import _TemplateBase
from repro.core.params import TemplateParams
from repro.errors import WorkloadError
from repro.gpusim.atomics import AtomicStats
from repro.gpusim.coalesce import MemoryTraffic, contiguous_transactions, transaction_counts
from repro.gpusim.config import DeviceConfig
from repro.gpusim.costmodel import (
    KernelCostBuilder,
    effective_segment_cycles,
    resident_warps_estimate,
)
from repro.gpusim.dynpar import add_one_block_children, require_device_support
from repro.gpusim.kernels import KernelCosts, Launch, LaunchGraph, ProfileCounters
from repro.gpusim.warps import WarpExecStats
from repro.trees.metrics import node_heights, subtree_sizes
from repro.trees.structure import Tree

__all__ = [
    "RecursiveTreeWorkload",
    "FlatTreeTemplate",
    "RecNaiveTreeTemplate",
    "RecHierTreeTemplate",
    "TREE_TEMPLATES",
]


@dataclass
class RecursiveTreeWorkload:
    """A tree plus the per-node work of the recursive computation."""

    tree: Tree
    kind: Literal["descendants", "heights"] = "descendants"
    #: issued instructions per processed child/hop
    inner_insts: float = 6.0

    def __post_init__(self) -> None:
        if self.kind not in ("descendants", "heights"):
            raise WorkloadError(f"unknown tree computation {self.kind!r}")
        if not (math.isfinite(self.inner_insts) and self.inner_insts >= 0):
            raise WorkloadError("inner_insts must be finite and non-negative, "
                                f"got {self.inner_insts!r}")

    @property
    def name(self) -> str:
        """Workload label."""
        return f"tree-{self.kind}({self.tree.name})"

    def reference_result(self) -> np.ndarray:
        """The functional result every template must reproduce."""
        if self.kind == "descendants":
            return subtree_sizes(self.tree)
        return node_heights(self.tree)

    def fingerprint(self) -> str:
        """Content hash of the tree structure + computation (plan cache key).

        Memoized; trees are treated as immutable after construction.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        tree = self.tree
        h = hashlib.blake2b(digest_size=16)
        h.update(tree.parents.tobytes())
        h.update(b"|")
        h.update(tree.level_offsets.tobytes())
        h.update(f"|{self.kind}|{self.inner_insts}".encode())
        digest = h.hexdigest()
        self._fingerprint = digest
        return digest

    def invalidate_fingerprint(self) -> None:
        """Drop the memoized fingerprint after mutating the tree in place
        (see ``NestedLoopWorkload.invalidate_fingerprint``)."""
        self._fingerprint = None


class _TreeTemplateBase(_TemplateBase):
    """What the tree templates share: the plan is the bare launch graph,
    and the schedule reports every node (the functional result is checked
    against ``RecursiveTreeWorkload.reference_result``)."""

    def build(self, workload: RecursiveTreeWorkload, config: DeviceConfig,
              params: TemplateParams) -> LaunchGraph:
        """Two-stage pipeline: cached tree analysis, then specialize."""
        return self.specialize(workload, get_tree_analysis(workload),
                               config, params)

    def specialize(self, workload: RecursiveTreeWorkload,
                   analysis: TreeAnalysis, config: DeviceConfig,
                   params: TemplateParams) -> LaunchGraph:
        """Assemble the launch graph for one concrete parameter point."""
        raise NotImplementedError

    def _build_plan(self, workload, config, params):
        return self.build(workload, config, params)

    def _split_plan(self, plan, workload):
        return plan, {"nodes": np.arange(workload.tree.n_nodes)}


class FlatTreeTemplate(_TreeTemplateBase):
    """Fig. 3(c): thread-mapped iterative kernel with ancestor-walk atomics."""

    name = "flat"
    PLAN_RELEVANT_PARAMS = ("thread_block", "registers_per_thread")

    def specialize(self, workload, analysis, config, params):
        """One thread-mapped kernel; each thread walks its ancestor chain."""
        tree = workload.tree
        n = tree.n_nodes
        blocks = max(1, -(-n // params.thread_block))
        builder = KernelCostBuilder(
            config, f"{workload.name}/flat",
            block_size=params.thread_block, n_blocks=blocks,
            registers_per_thread=params.registers_per_thread,
        )
        levels = tree.levels
        builder.add_uniform(n, insts=8.0)
        builder.add_loop(levels, insts_per_iter=workload.inner_insts)

        # ancestor-chain walk (precomputed): hop k of node v touches its
        # k-th ancestor
        nodes = analysis.hop_nodes
        ancestors = analysis.hop_ancestors
        hops = analysis.hop_ids
        if nodes.size:
            warp = builder.warp_of_thread(nodes)
            max_hop = int(hops.max()) + 1
            group = warp * max_hop + hops
            # parent-pointer loads (scattered within the chain)
            tx = transaction_counts(warp, group, None, builder.n_warps,
                                    agg_divisor=max_hop,
                                    segments=analysis.hop_segments)
            builder.add_traffic(tx, int(nodes.size) * 8, "load")
            # one atomic RMW per (node, ancestor) pair
            from repro.gpusim.atomics import flat_atomic_cycles

            cycles, stats = flat_atomic_cycles(
                warp, group, ancestors, builder.n_warps, config
            )
            builder.add_atomic_cycles(cycles, stats)
            # hot addresses: RMW multiplicity per ancestor
            builder.add_hot_address_tail(analysis.ancestor_counts)
        graph = LaunchGraph()
        graph.add(builder.build())
        return graph


def _child_list_tx(config: DeviceConfig, degrees: np.ndarray) -> np.ndarray:
    """Transactions to read each node's (contiguous) child-id list."""
    return contiguous_transactions(
        degrees, element_bytes=8,
        lanes_per_warp=config.warp_size,
        segment_bytes=config.mem_segment_bytes,
    )


def _atomic_reduction_cycles(config: DeviceConfig, degrees: np.ndarray) -> np.ndarray:
    """Cycles for `degree` threads RMW-ing one shared counter *naively*.

    Every warp of the group conflicts fully on the single address:
    warps x (atomic + (lanes-1) x conflict).  This is the rec-naive
    kernel's reduction (Fig. 3(d): every thread atomicAdds).
    """
    d = np.asarray(degrees, dtype=np.int64)
    full_warps = d // config.warp_size
    rem = d % config.warp_size
    per_full = config.atomic_cycles + (config.warp_size - 1) * config.atomic_conflict_cycles
    per_rem = np.where(
        rem > 0,
        config.atomic_cycles + (rem - 1).clip(min=0) * config.atomic_conflict_cycles,
        0,
    )
    return full_warps * per_full + per_rem


def _block_reduction_cycles(config: DeviceConfig, degrees: np.ndarray) -> np.ndarray:
    """Cycles for a proper in-block tree reduction of `degree` values.

    The hierarchical template reduces grandchild contributions with warp
    shuffles + one shared-memory combine, then issues a *single* atomic
    per block — the paper's "significant reduction in the number of
    atomic operations compared to the flat code".
    """
    d = np.asarray(degrees, dtype=np.int64)
    wpb = -(-np.maximum(d, 1) // config.warp_size)
    shuffle_steps = 5  # log2(32) butterfly
    per_block = (
        wpb * shuffle_steps / config.warp_throughput_per_cycle
        + wpb * config.shared_mem_cycles
        + config.atomic_cycles
    )
    return np.where(d > 0, per_block, 0.0)


class RecNaiveTreeTemplate(_TreeTemplateBase):
    """Fig. 3(d): a single-block kernel per internal node, spawned per thread."""

    name = "rec-naive"
    uses_dynamic_parallelism = True

    def specialize(self, workload, analysis, config, params):
        """One single-block launch per internal node, spawned per thread."""
        require_device_support(config, self.name)
        tree = workload.tree
        cfg = config
        degrees = analysis.degrees
        internal = analysis.internal
        graph = LaunchGraph()
        if internal.size == 0:
            # single trivial root kernel
            builder = KernelCostBuilder(
                cfg, f"{workload.name}/rec-naive-root",
                block_size=cfg.warp_size, n_blocks=1,
            )
            builder.add_uniform(1, insts=8.0)
            graph.add(builder.build())
            return graph

        d = degrees[internal]
        wpb_of = -(-d // cfg.warp_size)
        spawns = analysis.spawns

        # per-launch cost, vectorized over internal nodes
        resident = resident_warps_estimate(
            cfg, params.lb_block, 1,
            concurrent_grids=min(int(internal.size), cfg.max_concurrent_kernels),
        )
        seg = effective_segment_cycles(cfg, resident)
        compute = (wpb_of * workload.inner_insts * 2 + 8.0) / cfg.warp_throughput_per_cycle
        mem = (_child_list_tx(cfg, d) + 1) * seg
        atom = _atomic_reduction_cycles(cfg, d)
        issue = spawns * cfg.device_launch_issue_cycles
        block_cycles = compute + mem + atom + issue
        # a one-block grid issues at its own width
        floor_scale = np.maximum(cfg.warp_throughput_per_cycle / wpb_of, 1.0)

        # aggregate counters attached to the root launch
        counters = ProfileCounters(warp=WarpExecStats(warp_size=cfg.warp_size))
        counters.warp.add_scaled(wpb_of.sum(), d.sum(), workload.inner_insts)
        counters.load_traffic = MemoryTraffic(
            requested_bytes=int(d.sum()) * 8,
            transactions=int(_child_list_tx(cfg, d).sum()),
            segment_bytes=cfg.mem_segment_bytes,
        )
        counters.atomic = AtomicStats(
            n_atomics=int(d.sum()),
            max_address_multiplicity=int(d.max()),
        )
        counters.device_launches = int(internal.size) - 1
        counters.host_launches = 1

        # internal node k is row k: the root (node 0) is a host launch
        # carrying the counters, every other internal node a child of its
        # parent's row (BFS order puts parents first)
        name = f"{workload.name}/rec-naive"
        block_floor = block_cycles * floor_scale
        block_size = np.minimum(d, 1024)
        graph.add(Launch(
            name=name,
            block_size=int(block_size[0]),
            costs=KernelCosts(block_cycles=block_cycles[:1].copy(),
                              block_floor=block_floor[:1].copy()),
            counters=counters,
            resident_warps_hint=float(resident),
        ))
        if internal.size > 1:
            row_of_node = np.zeros(tree.n_nodes, dtype=np.int64)
            row_of_node[internal] = np.arange(internal.size)
            nodes = internal[1:]
            add_one_block_children(
                graph, name, block_cycles[1:], block_floor[1:], block_size[1:],
                parents=row_of_node[tree.parents[nodes]],
                parent_blocks=0,
                device_streams=analysis.sibling_rank[nodes] % params.streams_per_block,
                resident_warps_hint=float(resident),
            )
        return graph


class RecHierTreeTemplate(_TreeTemplateBase):
    """Fig. 3(e): children as blocks, grandchildren as threads."""

    name = "rec-hier"
    uses_dynamic_parallelism = True

    def specialize(self, workload, analysis, config, params):
        """Two-level launches: children as blocks, grandchildren as threads."""
        require_device_support(config, self.name)
        tree = workload.tree
        cfg = config
        degrees = analysis.degrees
        # a node needs a launch iff it has grandchildren (covers 2 levels),
        # plus the root launch which always exists
        child_deg_sum = analysis.child_deg_sum
        needs_launch = analysis.needs_launch
        graph = LaunchGraph()

        sibling_index = analysis.sibling_rank

        resident = resident_warps_estimate(
            cfg, params.lb_block, 4,
            concurrent_grids=min(int(needs_launch.size) + 1,
                                 cfg.max_concurrent_kernels),
        )
        seg = effective_segment_cycles(cfg, resident)

        launch_of_node: dict[int, int] = {}
        total_counters = ProfileCounters(warp=WarpExecStats(warp_size=cfg.warp_size))
        first = True
        for node in needs_launch.tolist():
            children = tree.children_of(node)
            if children.size == 0:
                children = np.zeros(0, dtype=np.int64)
            gdeg = degrees[children] if children.size else np.zeros(0, dtype=np.int64)
            n_blocks = max(int(children.size), 1)
            # per-block work: process grandchildren as threads
            wpb = -(-np.maximum(gdeg, 1) // cfg.warp_size)
            compute = (wpb * workload.inner_insts * 2 + 8.0) / cfg.warp_throughput_per_cycle
            mem = (_child_list_tx(cfg, np.maximum(gdeg, 1)) + 1) * seg
            atom = _block_reduction_cycles(cfg, gdeg) + cfg.atomic_cycles
            # blocks with grand-grandchildren spawn one nested launch each
            spawns_mask = child_deg_sum[children] > 0 if children.size else np.zeros(0, bool)
            issue = np.where(spawns_mask, cfg.device_launch_issue_cycles, 0) \
                if children.size else np.zeros(1)
            block_cycles = compute + mem + atom
            if children.size:
                block_cycles = block_cycles + issue
            else:
                block_cycles = np.array([100.0])
            # cross-block reduction into this node's counter: hot address
            serial_tail = children.size * cfg.atomic_same_address_cycles
            block_size = min(max(int(gdeg.max()) if gdeg.size else 1, cfg.warp_size), 1024)
            floor_scale = max(cfg.warp_throughput_per_cycle
                              / max(-(-block_size // cfg.warp_size), 1), 1.0)
            costs = KernelCosts(
                block_cycles=np.asarray(block_cycles, dtype=np.float64),
                block_floor=np.asarray(block_cycles, dtype=np.float64) * floor_scale,
                serial_tail=serial_tail,
            )
            # divergence stats: grandchildren fill warps of width gdeg
            if gdeg.size:
                total_counters.warp.add_scaled(
                    (-(-np.maximum(gdeg, 1) // cfg.warp_size)).sum(),
                    gdeg.sum(), workload.inner_insts)
                total_counters.load_traffic = total_counters.load_traffic.merge(
                    MemoryTraffic(
                        requested_bytes=int(gdeg.sum()) * 8,
                        transactions=int(_child_list_tx(cfg, gdeg).sum()),
                        segment_bytes=cfg.mem_segment_bytes,
                    )
                )
                total_counters.atomic.merge(AtomicStats(
                    n_atomics=int(gdeg.sum() + children.size),
                    max_address_multiplicity=int(max(gdeg.max(), children.size)),
                ))
            parent_node = int(tree.parents[node])
            if parent_node < 0:
                total_counters.host_launches += 1
                launch = Launch(
                    name=f"{workload.name}/rec-hier",
                    block_size=block_size,
                    costs=costs,
                    counters=total_counters if first else ProfileCounters(),
                    resident_warps_hint=float(resident),
                )
            else:
                total_counters.device_launches += 1
                launch = Launch(
                    name=f"{workload.name}/rec-hier",
                    block_size=block_size,
                    costs=costs,
                    parent=launch_of_node[parent_node],
                    parent_block=int(sibling_index[node]),
                    counters=ProfileCounters(),
                    resident_warps_hint=float(resident),
                )
            launch_of_node[node] = graph.add(launch)
            first = False
        return graph


#: registry of tree templates by paper name
TREE_TEMPLATES = {
    "flat": FlatTreeTemplate,
    "rec-naive": RecNaiveTreeTemplate,
    "rec-hier": RecHierTreeTemplate,
}
