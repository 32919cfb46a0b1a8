"""Dynamic-parallelism templates (Fig. 1(d)-(e)): dpar-naive and dpar-opt.

dpar-naive launches one nested (single-block) grid per large iteration,
straight from the owning *thread*; the flood of small grids pays grid-
management service + launch latency per child, children of one block
serialize in the block's NULL stream, and tiny grids cannot hide memory
latency — the three mechanisms behind its consistent losses in the paper.

dpar-opt delays large iterations into a per-block buffer and launches a
*single*, larger child grid per block (one block per buffered iteration):
far fewer, far bigger children, matching dbuf-shared's performance while
still using nested parallelism.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import NestedLoopTemplate
from repro.core.mapping import (
    _sequence_within,
    _window_atomic_cycles,
    add_block_mapped_inner,
    add_outer_setup,
    add_thread_mapped_inner,
)
from repro.core.params import TemplateParams
from repro.core.workload import NestedLoopWorkload
from repro.gpusim.atomics import AtomicStats, flat_atomic_cycles
from repro.gpusim.coalesce import MemoryTraffic, transaction_counts
from repro.gpusim.config import DeviceConfig
from repro.gpusim.costmodel import (
    KernelCostBuilder,
    effective_segment_cycles,
    resident_warps_estimate,
)
from repro.gpusim.dynpar import require_device_support
from repro.gpusim.kernels import KernelCosts, Launch, LaunchGraph
from repro.gpusim.warps import WarpExecStats

__all__ = ["DparNaiveTemplate", "DparOptTemplate"]


def _parent_phase(
    workload: NestedLoopWorkload,
    config: DeviceConfig,
    params: TemplateParams,
    small: np.ndarray,
    large: np.ndarray,
    launches_per_large: bool,
    analysis=None,
) -> KernelCostBuilder:
    """Thread-mapped parent kernel: small inline, large spawn/buffer."""
    n = workload.outer_size
    blocks = NestedLoopTemplate._grid_for(n, params.thread_block,
                                          params.max_grid_blocks)
    builder = KernelCostBuilder(
        config, f"{workload.name}/dpar-parent",
        block_size=params.thread_block, n_blocks=blocks,
        registers_per_thread=params.registers_per_thread,
        shared_mem_per_block=0 if launches_per_large else params.thread_block * 4,
    )
    add_outer_setup(builder, workload, n)
    if small.size:
        add_thread_mapped_inner(builder, workload, small, small,
                                analysis=analysis)
    if large.size:
        if launches_per_large:
            # each large lane marshals and enqueues one child grid
            spawn = np.zeros(n, dtype=np.int64)
            spawn[large] = 1
            builder.add_loop(
                spawn, insts_per_iter=config.device_launch_issue_cycles
            )
        else:
            flags = np.zeros(n, dtype=np.int64)
            flags[large] = 1
            builder.add_loop(flags, insts_per_iter=4.0)
            builder.add_shared_accesses(int(large.size))
    return builder


def _bulk_single_block_children(
    workload: NestedLoopWorkload,
    large: np.ndarray,
    config: DeviceConfig,
    params: TemplateParams,
    analysis=None,
) -> tuple[np.ndarray, WarpExecStats, list[MemoryTraffic], "object"]:
    """Vectorized per-child costs for one-iteration single-block grids.

    Computes, for every large iteration, the SM-cycles of the child grid
    that block-maps it (64-thread block striding over its inner loop) —
    all children at once, without instantiating per-child builders.  With
    a warp-multiple block size, memory and atomics come from the
    analysis's warp-window table (one window per issue slot), else from a
    per-pair pass.
    Returns (block_cycles, warp stats, [load traffic, store traffic],
    atomic stats).
    """
    B = params.lb_block
    ws = config.warp_size
    wpb = -(-B // ws)
    n_children = large.size
    trips = workload.subset_trips(large)
    n_pairs = int(trips.sum())

    # divergence: lane L runs ceil(max(f - L, 0) / B) strided iterations,
    # non-increasing in L, so each warp issues its first lane's count; and
    # every inner iteration lands on one lane, so the lane-steps sum to
    # the pair count
    first_lane = (np.arange(wpb, dtype=np.int64) * ws)[None, :]
    issued = np.clip((trips[:, None] - first_lane + B - 1) // B, 0, None)
    stats = WarpExecStats(warp_size=ws)
    stats.add_scaled(issued.sum(), n_pairs, workload.inner_insts)
    compute_slots = issued.sum(axis=1) * workload.inner_insts + workload.outer_insts

    # memory: exact coalescing per (child, chunk, warp) issue slot
    atomics = None
    table = (analysis.warp_windows(workload, B, ws)
             if analysis is not None else None)
    if table is not None:
        # each issue slot is one window of the child's row
        windows, _, counts = table.windows_of(large)
        child = np.repeat(np.arange(n_children, dtype=np.int64), counts)
        stream_tx = [
            np.bincount(child, weights=segments[windows], minlength=n_children)
            for segments in table.segments
        ]
        atomics = _window_atomic_cycles(
            table, windows, child, n_children, config,
            hot=lambda: table.hot_degree(large),
        )
    else:
        pair_idx, steps = workload.pairs_of(large)
        child = np.repeat(np.arange(n_children, dtype=np.int64), trips)
        chunk = steps // B
        warp_in_child = (steps % B) // ws
        max_chunk = int(chunk.max()) + 1 if chunk.size else 1
        group = (child * max_chunk + chunk) * wpb + warp_in_child
        group_span = n_children * max_chunk * wpb
        stream_tx = []
        for si, stream in enumerate(workload.streams):
            if analysis is not None:
                addr, segments = None, analysis.stream_segments(si)[pair_idx]
                spans = (group_span, analysis.stream_seg_span(si))
            else:
                addr, segments, spans = stream.addresses[pair_idx], None, None
            stream_tx.append(transaction_counts(
                child, group, addr, n_children, agg_divisor=max_chunk * wpb,
                segments=segments, spans=spans,
            ))
        if workload.atomic_targets is not None:
            targets = workload.atomic_targets[pair_idx]
            live = targets >= 0
            if np.any(live):
                atomics = flat_atomic_cycles(
                    child[live], group[live], targets[live], n_children,
                    config,
                )
    tx_per_child = np.zeros(n_children, dtype=np.float64)
    load_traffic = MemoryTraffic(segment_bytes=config.mem_segment_bytes)
    store_traffic = MemoryTraffic(segment_bytes=config.mem_segment_bytes)
    for stream, tx in zip(workload.streams, stream_tx):
        tx_per_child += tx
        record = MemoryTraffic(
            requested_bytes=n_pairs * stream.element_bytes,
            transactions=int(tx.sum()),
            segment_bytes=config.mem_segment_bytes,
        )
        if stream.kind == "load":
            load_traffic = load_traffic.merge(record)
        else:
            store_traffic = store_traffic.merge(record)
    atomic_cycles, atomic_stats = (
        atomics if atomics is not None
        else (np.zeros(n_children), AtomicStats())
    )

    # tiny grids: latency hiding only from concurrently resident siblings
    resident = resident_warps_estimate(
        config, B, 1,
        registers_per_thread=params.registers_per_thread,
        concurrent_grids=min(n_children, config.max_concurrent_kernels),
    )
    seg_cycles = effective_segment_cycles(config, resident)
    block_cycles = (
        compute_slots / config.warp_throughput_per_cycle
        + tx_per_child * seg_cycles
        + atomic_cycles
    )
    return block_cycles, stats, [load_traffic, store_traffic], atomic_stats


def _bulk_opt_children(
    workload: NestedLoopWorkload,
    large: np.ndarray,
    spawning_blocks: np.ndarray,
    buffered_counts: np.ndarray,
    config: DeviceConfig,
    params: TemplateParams,
    parent: int,
    graph: LaunchGraph,
    analysis=None,
) -> None:
    """Build every dpar-opt child launch from one vectorized pass.

    Each child grid block-maps exactly one buffered large iteration (block
    ids are ``arange`` within the child), so the per-block divergence and
    coalescing math is identical for every row regardless of which child
    owns it.  This costs all rows at once — one ``bincount`` per stream
    over the rows' warp windows (one ``pairs_of`` walk and one
    ``transaction_counts`` call per stream when the block size is not a
    warp multiple) — and assembles each child's builder from slices,
    bit-identical to per-child
    :func:`~repro.core.mapping.add_block_mapped_inner` builds: transaction
    counts are integers, each per-warp array receives the same
    single-expression adds, and every counter reproduces the per-call
    int/round semantics of the serial path.

    ``large`` must be ascending (it is: partitions sort their ids), which
    makes the concatenation of the children's member lists equal ``large``
    itself — owner blocks ``large // thread_block`` are monotone.
    """
    B = params.lb_block
    ws = config.warp_size
    wpb = -(-B // ws)
    n_rows = large.size
    n_children = int(spawning_blocks.size)
    cg = min(n_children, config.max_concurrent_kernels)
    trips = workload.subset_trips(large)

    # per-(row, warp) divergence in closed form: lane L strides
    # ceil(max(f - L, 0) / B) iterations, non-increasing in L, so the warp
    # max is the first lane's value (lane w*ws, always < B for w < wpb);
    # and summed over all lanes each inner iteration lands on exactly one
    # lane, so the active-slot total per row is just its trip count
    first_lane = (np.arange(wpb, dtype=np.int64) * ws)[None, :]
    issued = np.clip((trips[:, None] - first_lane + B - 1) // B, 0, None)
    issued_flat = issued.reshape(n_rows * wpb)
    row_active = trips
    compute_flat = issued_flat * workload.inner_insts

    # exact coalescing for all rows at once; groups are the serial path's
    # (block, chunk, warp) issue slots under a globally injective packing
    mem_flat = np.zeros(n_rows * wpb, dtype=np.float64)
    stream_tx: list[np.ndarray] = []
    table = (analysis.warp_windows(workload, B, ws)
             if analysis is not None else None)
    if table is not None:
        # window k of a row is one issue slot of the row's warp k % wpb
        windows, rank, counts = table.windows_of(large)
        agg = (np.repeat(np.arange(n_rows, dtype=np.int64) * wpb, counts)
               + rank % wpb)
        for segments in table.segments:
            tx = np.bincount(agg, weights=segments[windows],
                             minlength=n_rows * wpb).astype(np.int64)
            stream_tx.append(tx)
            mem_flat += tx
    else:
        pair_idx, steps = workload.pairs_of(large)
        row = np.repeat(np.arange(n_rows, dtype=np.int64), trips)
        chunk = steps // B
        warp_in_row = (steps % B) // ws
        max_chunk = int(chunk.max()) + 1 if chunk.size else 1
        agg = row * wpb + warp_in_row
        group = agg * max_chunk + chunk
        group_span = n_rows * wpb * max_chunk
        for si, stream in enumerate(workload.streams):
            if analysis is not None:
                addr, segments = None, analysis.stream_segments(si)[pair_idx]
                spans = (group_span, analysis.stream_seg_span(si))
            else:
                addr, segments, spans = stream.addresses[pair_idx], None, None
            tx = transaction_counts(agg, group, addr, n_rows * wpb,
                                    agg_divisor=max_chunk,
                                    segments=segments, spans=spans)
            stream_tx.append(tx)
            mem_flat += tx

    # per-child boundaries (rows, warps, pairs) and exact integer sums
    starts = np.zeros(n_children + 1, dtype=np.int64)
    np.cumsum(buffered_counts, out=starts[1:])
    warp_starts = starts * wpb
    trips_cum = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(trips, out=trips_cum[1:])
    issued_cum = np.zeros(n_rows * wpb + 1, dtype=np.int64)
    np.cumsum(issued_flat, out=issued_cum[1:])
    active_cum = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(row_active, out=active_cum[1:])
    tx_cums = []
    for tx in stream_tx:
        c = np.zeros(n_rows * wpb + 1, dtype=np.int64)
        np.cumsum(tx, out=c[1:])
        tx_cums.append(c)

    # the outer-setup effect depends only on the child's block count; the
    # few distinct counts are costed once through the real code path
    setup_cache: dict[int, tuple] = {}

    def setup_for(count: int):
        eff = setup_cache.get(count)
        if eff is None:
            probe = KernelCostBuilder(
                config, "setup", block_size=B, n_blocks=count,
                registers_per_thread=params.registers_per_thread,
                concurrent_grids=cg,
            )
            add_outer_setup(probe, workload, count, indirect=True)
            eff = (
                probe._arrays.compute_slots,
                probe._arrays.mem_transactions,
                probe.counters.warp.issued_steps,
                probe.counters.warp.active_slots,
                probe.counters.load_traffic,
                probe.counters.store_traffic,
            )
            setup_cache[count] = eff
        return eff

    insts = workload.inner_insts
    seg_bytes = config.mem_segment_bytes
    for ci, (b, count) in enumerate(
        zip(spawning_blocks.tolist(), buffered_counts.tolist())
    ):
        child = KernelCostBuilder(
            config,
            f"{workload.name}/dpar-opt-child",
            block_size=B,
            n_blocks=int(count),
            registers_per_thread=params.registers_per_thread,
            concurrent_grids=cg,
        )
        s_comp, s_mem, s_iss, s_act, s_load, s_store = setup_for(count)
        w0, w1 = int(warp_starts[ci]), int(warp_starts[ci + 1])
        r0, r1 = int(starts[ci]), int(starts[ci + 1])
        arrays = child._arrays
        arrays.compute_slots += s_comp
        arrays.mem_transactions += s_mem
        arrays.compute_slots += compute_flat[w0:w1]
        arrays.mem_transactions += mem_flat[w0:w1]
        counters = child.counters
        counters.warp.add_counts(s_iss, s_act)
        iss_c = int(issued_cum[w1] - issued_cum[w0])
        act_c = int(active_cum[r1] - active_cum[r0])
        counters.warp.add_scaled(iss_c, act_c, insts)
        load_req, load_tx = s_load.requested_bytes, s_load.transactions
        store_req, store_tx = s_store.requested_bytes, s_store.transactions
        pairs_c = int(trips_cum[r1] - trips_cum[r0])
        for si, stream in enumerate(workload.streams):
            tx_c = int(tx_cums[si][w1] - tx_cums[si][w0])
            req_c = pairs_c * stream.element_bytes
            if stream.kind == "load":
                load_req += req_c
                load_tx += tx_c
            else:
                store_req += req_c
                store_tx += tx_c
        if load_req or load_tx:
            counters.load_traffic = MemoryTraffic(load_req, load_tx, seg_bytes)
        if store_req or store_tx:
            counters.store_traffic = MemoryTraffic(store_req, store_tx,
                                                   seg_bytes)
        graph.add(child.build(parent=parent, parent_block=int(b)))


class DparNaiveTemplate(NestedLoopTemplate):
    """One single-block child grid per large iteration, per thread."""

    name = "dpar-naive"
    uses_dynamic_parallelism = True
    #: the only template whose children spread over device streams
    PLAN_RELEVANT_PARAMS = ("lb_threshold", "thread_block", "lb_block",
                            "registers_per_thread", "streams_per_block",
                            "max_grid_blocks")

    def specialize(self, workload: NestedLoopWorkload, analysis,
                   config: DeviceConfig, params: TemplateParams):
        require_device_support(config, self.name)
        small, large = analysis.partition(params.lb_threshold)
        graph = LaunchGraph()
        parent_builder = _parent_phase(
            workload, config, params, small, large, launches_per_large=True,
            analysis=analysis,
        )
        if large.size:
            block_cycles, child_stats, traffic, atomic_stats = (
                _bulk_single_block_children(workload, large, config, params,
                                            analysis=analysis)
            )
            # children's counters are absorbed into the parent record so
            # the per-child Launch objects stay lightweight
            parent_builder.counters.warp.merge(child_stats)
            parent_builder.counters.load_traffic = (
                parent_builder.counters.load_traffic.merge(traffic[0])
            )
            parent_builder.counters.store_traffic = (
                parent_builder.counters.store_traffic.merge(traffic[1])
            )
            parent_builder.counters.atomic.merge(atomic_stats)
            parent_builder.counters.device_launches += int(large.size)
        parent = graph.add(parent_builder.build())
        if large.size:
            owner_block = (large // params.thread_block).astype(np.int64)
            rank_in_block = _sequence_within(owner_block)
            wpb = -(-params.lb_block // config.warp_size)
            resident_hint = resident_warps_estimate(
                config, params.lb_block, 1,
                registers_per_thread=params.registers_per_thread,
                concurrent_grids=min(int(large.size),
                                     config.max_concurrent_kernels),
            )
            # A lone 2-warp block issues at wpb warps/cycle, not the SM's
            # full width: its standalone duration exceeds its SM-cycle work.
            floor_scale = config.warp_throughput_per_cycle / wpb
            for k in range(large.size):
                costs = KernelCosts(
                    block_cycles=np.array([block_cycles[k]]),
                    block_floor=np.array([block_cycles[k] * floor_scale]),
                )
                graph.add(Launch(
                    name=f"{workload.name}/dpar-child",
                    block_size=params.lb_block,
                    costs=costs,
                    registers_per_thread=params.registers_per_thread,
                    parent=parent,
                    parent_block=int(owner_block[k]),
                    device_stream=int(rank_in_block[k]) % params.streams_per_block,
                    resident_warps_hint=resident_hint,
                ))
        return graph, {"inline": small, "nested": large}


class DparOptTemplate(NestedLoopTemplate):
    """One aggregated child grid per parent block (Fig. 1(e))."""

    name = "dpar-opt"
    uses_dynamic_parallelism = True
    PLAN_RELEVANT_PARAMS = ("lb_threshold", "thread_block", "lb_block",
                            "registers_per_thread", "max_grid_blocks")

    def specialize(self, workload: NestedLoopWorkload, analysis,
                   config: DeviceConfig, params: TemplateParams):
        require_device_support(config, self.name)
        small, large = analysis.partition(params.lb_threshold)
        graph = LaunchGraph()
        parent_builder = _parent_phase(
            workload, config, params, small, large, launches_per_large=False,
            analysis=analysis,
        )
        spawning_blocks = np.zeros(0, dtype=np.int64)
        buffered_counts = np.zeros(0, dtype=np.int64)
        owner_block = np.zeros(0, dtype=np.int64)
        if large.size:
            owner_block = (large // params.thread_block).astype(np.int64)
            spawning_blocks, buffered_counts = np.unique(
                owner_block, return_counts=True
            )
            # one launch per spawning block, charged to its lead thread
            spawn = np.zeros(workload.outer_size, dtype=np.int64)
            lead_threads = spawning_blocks * params.thread_block
            lead_threads = lead_threads[lead_threads < workload.outer_size]
            spawn[lead_threads] = 1
            parent_builder.add_loop(
                spawn, insts_per_iter=config.device_launch_issue_cycles
            )
        parent = graph.add(parent_builder.build())
        if spawning_blocks.size and workload.atomic_targets is None:
            # fast path: every child's rows costed in one vectorized pass
            _bulk_opt_children(
                workload, large, spawning_blocks, buffered_counts,
                config, params, parent, graph, analysis=analysis,
            )
        else:
            for b, count in zip(spawning_blocks.tolist(),
                                buffered_counts.tolist()):
                members = large[owner_block == b]
                child = KernelCostBuilder(
                    config,
                    f"{workload.name}/dpar-opt-child",
                    block_size=params.lb_block,
                    n_blocks=int(count),
                    registers_per_thread=params.registers_per_thread,
                    concurrent_grids=min(int(spawning_blocks.size),
                                         config.max_concurrent_kernels),
                )
                add_outer_setup(child, workload, int(count), indirect=True)
                add_block_mapped_inner(
                    child, workload, members,
                    np.arange(members.size, dtype=np.int64),
                    analysis=analysis,
                )
                graph.add(child.build(parent=parent, parent_block=int(b)))
        return graph, {"inline": small, "nested": large}
