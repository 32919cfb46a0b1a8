"""Dual-queue template (Fig. 1(b)).

Outer iterations are split into two queues by ``lbTHRES``: the small-work
queue is processed thread-mapped (little divergence left, since every
surviving inner loop is short) and the large-work queue block-mapped.  The
split itself costs a queue-construction kernel whose counter atomics grow
with the dataset — the overhead that makes dual-queue lose to the delayed
buffers on large inputs (paper §III.B, "Results on BC, PageRank and
SpMV").
"""

from __future__ import annotations

import numpy as np

from repro.core.base import NestedLoopTemplate
from repro.core.mapping import (
    add_block_mapped_inner,
    add_outer_setup,
    add_thread_mapped_inner,
)
from repro.core.params import TemplateParams
from repro.core.workload import NestedLoopWorkload
from repro.gpusim.coalesce import contiguous_transactions
from repro.gpusim.config import DeviceConfig
from repro.gpusim.costmodel import KernelCostBuilder
from repro.gpusim.kernels import LaunchGraph

__all__ = ["DualQueueTemplate", "split_by_threshold"]


def split_by_threshold(
    trip_counts: np.ndarray, threshold: int
) -> tuple[np.ndarray, np.ndarray]:
    """(small, large) outer ids: large iff f(i) > threshold."""
    trip_counts = np.asarray(trip_counts)
    large = np.flatnonzero(trip_counts > threshold)
    small = np.flatnonzero(trip_counts <= threshold)
    return small, large


class DualQueueTemplate(NestedLoopTemplate):
    """Two queues, two kernels, plus the queue-construction cost."""

    name = "dual-queue"
    PLAN_RELEVANT_PARAMS = ("lb_threshold", "thread_block", "lb_block",
                            "registers_per_thread", "max_grid_blocks")

    def specialize(self, workload: NestedLoopWorkload, analysis,
                   config: DeviceConfig, params: TemplateParams):
        n = workload.outer_size
        small, large = analysis.partition(params.lb_threshold)
        graph = LaunchGraph()

        # --- queue construction kernel (thread-mapped over all iterations)
        blocks = self._grid_for(n, params.thread_block, params.max_grid_blocks)
        qb = KernelCostBuilder(
            config, f"{workload.name}/dq-build",
            block_size=params.thread_block, n_blocks=blocks,
            registers_per_thread=params.registers_per_thread,
        )
        qb.add_uniform(n, insts=6.0)  # read f(i), compare, pick queue
        # queue entry stores are coalesced-ish per queue
        store_tx = int(contiguous_transactions(n).sum())
        per_warp = np.zeros(qb.n_warps)
        used = min(qb.n_warps, max(1, -(-n // config.warp_size)))
        per_warp[:used] = store_tx / used
        qb.add_traffic(per_warp, n * 4, "store")
        # two global tail counters, hit once per iteration: hot addresses
        qb.add_hot_address_tail(np.array([small.size, large.size]))
        graph.add(qb.build())

        # --- small queue: thread-mapped
        schedule: dict[str, np.ndarray] = {}
        if small.size:
            sb_blocks = self._grid_for(small.size, params.thread_block,
                                       params.max_grid_blocks)
            sb = KernelCostBuilder(
                config, f"{workload.name}/dq-small",
                block_size=params.thread_block, n_blocks=sb_blocks,
                registers_per_thread=params.registers_per_thread,
            )
            add_outer_setup(sb, workload, small.size, indirect=True)
            add_thread_mapped_inner(
                sb, workload, small,
                np.arange(small.size, dtype=np.int64),
                analysis=analysis,
            )
            graph.add(sb.build())
        schedule["small-queue"] = small

        # --- large queue: block-mapped
        if large.size:
            lb = KernelCostBuilder(
                config, f"{workload.name}/dq-large",
                block_size=params.lb_block, n_blocks=large.size,
                registers_per_thread=params.registers_per_thread,
            )
            add_outer_setup(lb, workload, large.size, indirect=True)
            add_block_mapped_inner(
                lb, workload, large,
                np.arange(large.size, dtype=np.int64),
                analysis=analysis,
            )
            graph.add(lb.build())
        schedule["large-queue"] = large
        return graph, schedule
