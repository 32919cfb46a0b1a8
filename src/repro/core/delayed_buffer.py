"""Delayed-buffer templates (Fig. 1(c)): dbuf-global and dbuf-shared.

Both run a thread-mapped first phase in which every thread either executes
its (small) inner loop or *delays* it by appending the iteration id to a
buffer.  They differ in where the buffer lives:

* **dbuf-global** — the buffer is in global memory; a second kernel
  processes it block-mapped with the work *redistributed fairly across
  blocks* (no intra-grid imbalance), at the price of an extra kernel
  launch and global buffer traffic;
* **dbuf-shared** — the buffer is per-block in shared memory; the same
  kernel processes it in an in-block second phase.  No second launch and
  better store coalescing through shared-memory staging, but blocks that
  happened to own many large iterations finish late (work imbalance
  across blocks, worst at low ``lbTHRES``).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import NestedLoopTemplate
from repro.core.mapping import (
    add_block_mapped_inner,
    add_outer_setup,
    add_partitioned_pairs,
    add_thread_mapped_inner,
)
from repro.core.params import TemplateParams
from repro.core.workload import NestedLoopWorkload
from repro.gpusim.config import DeviceConfig
from repro.gpusim.costmodel import KernelCostBuilder
from repro.gpusim.kernels import LaunchGraph

__all__ = ["DelayedBufferGlobalTemplate", "DelayedBufferSharedTemplate"]

#: instructions spent appending one iteration to a delayed buffer
_APPEND_INSTS = 4.0


def _phase_one(
    workload: NestedLoopWorkload,
    config: DeviceConfig,
    params: TemplateParams,
    small: np.ndarray,
    large: np.ndarray,
    buffer_in_shared: bool,
    analysis=None,
) -> KernelCostBuilder:
    """Thread-mapped phase: process small iterations, delay large ones."""
    n = workload.outer_size
    blocks = NestedLoopTemplate._grid_for(n, params.thread_block,
                                          params.max_grid_blocks)
    smem = params.thread_block * 4 if buffer_in_shared else 0
    builder = KernelCostBuilder(
        config,
        f"{workload.name}/dbuf-phase1",
        block_size=params.thread_block,
        n_blocks=blocks,
        registers_per_thread=params.registers_per_thread,
        shared_mem_per_block=smem,
    )
    add_outer_setup(builder, workload, n)
    if small.size:
        add_thread_mapped_inner(builder, workload, small, small,
                                analysis=analysis)
    if large.size:
        # append cost: compare + buffer write per delayed iteration
        flags = np.zeros(n, dtype=np.int64)
        flags[large] = 1
        builder.add_loop(flags, insts_per_iter=_APPEND_INSTS)
        if buffer_in_shared:
            builder.add_shared_accesses(int(large.size))
        else:
            per_warp = np.zeros(builder.n_warps)
            warp_of_large = builder.warp_of_thread(large)
            np.add.at(per_warp, warp_of_large, 1.0)
            builder.add_traffic(per_warp, int(large.size) * 4, "store")
            # global buffer tail counter
            builder.add_hot_address_tail(int(large.size))
    return builder


class DelayedBufferGlobalTemplate(NestedLoopTemplate):
    """dbuf-global: global-memory buffer + fair cross-block second kernel."""

    name = "dbuf-global"
    PLAN_RELEVANT_PARAMS = ("lb_threshold", "thread_block", "lb_block",
                            "registers_per_thread", "max_grid_blocks")

    def specialize(self, workload: NestedLoopWorkload, analysis,
                   config: DeviceConfig, params: TemplateParams):
        small, large = analysis.partition(params.lb_threshold)
        graph = LaunchGraph()
        graph.add(_phase_one(workload, config, params, small, large,
                             buffer_in_shared=False, analysis=analysis).build())
        if large.size:
            # grid sized to saturate the device; work split evenly
            occ_blocks = config.sm_count * config.max_blocks_per_sm
            pair_total = int(workload.subset_trips(large).sum())
            grid = min(
                max(1, int(large.size)),
                max(occ_blocks, 1),
                max(1, -(-pair_total // params.lb_block)),
            )
            builder = KernelCostBuilder(
                config, f"{workload.name}/dbuf-phase2",
                block_size=params.lb_block, n_blocks=grid,
                registers_per_thread=params.registers_per_thread,
            )
            add_outer_setup(builder, workload, large.size, indirect=True)
            add_partitioned_pairs(builder, workload, large, analysis=analysis)
            graph.add(builder.build())
        return graph, {"inline": small, "buffered": large}


class DelayedBufferSharedTemplate(NestedLoopTemplate):
    """dbuf-shared: per-block shared-memory buffer, single kernel."""

    name = "dbuf-shared"
    #: the in-block phase reuses the thread-mapped blocks: no lb_block
    PLAN_RELEVANT_PARAMS = ("lb_threshold", "thread_block",
                            "registers_per_thread", "max_grid_blocks")
    #: the in-kernel two-phase handoff (fill shared buffer, then drain it
    #: block-wide) assumes every thread of the bulk launch reaches the
    #: phase boundary together — persistent workers pulling tasks give no
    #: such launch-wide barrier, so queue backends fall back to BSP
    queue_compatible = False

    def specialize(self, workload: NestedLoopWorkload, analysis,
                   config: DeviceConfig, params: TemplateParams):
        small, large = analysis.partition(params.lb_threshold)
        n = workload.outer_size
        builder = _phase_one(workload, config, params, small, large,
                             buffer_in_shared=True, analysis=analysis)
        if large.size:
            # The in-block phase keeps each delayed iteration in the block
            # that owns it (thread id -> block id): no redistribution, so
            # hub-heavy blocks run long.  Stores are staged through shared
            # memory and flushed coalesced.
            owner_block = large // params.thread_block
            # phase 2 uses the same (192-thread) blocks
            add_block_mapped_inner(
                builder, workload, large, owner_block, coalesce_stores=True,
                analysis=analysis,
            )
        graph = LaunchGraph()
        graph.add(builder.build())
        return graph, {"inline": small, "buffered": large}
