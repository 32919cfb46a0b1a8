"""Shared mapping machinery: from (outer -> hardware) assignments to costs.

Every nested-loop template is a composition of three mapping moves:

* **thread-mapped inner loops** — outer iteration ``i`` runs entirely on
  one thread; the thread loops ``f(i)`` times (warp divergence!);
* **block-mapped inner loops** — outer iteration ``i`` owns a block whose
  threads stride over the inner iterations (``lane, lane+B, ...``);
* **evenly-partitioned pair streams** — a concatenated stream of inner
  iterations split fairly across blocks (dbuf-global's second phase).

The functions here translate each move into the cost builder's language:
per-thread trip counts (divergence), exact (warp, step)-grouped
transactions (coalescing) and grouped atomic conflicts.  They are the only
place where the pair-trace encoding is interpreted, so every template
shares one implementation of the memory model.

When the block size is a multiple of the warp size, every issue slot of
the block-mapped and partitioned moves is one warp-aligned 32-step window
of the pair stream, so those moves cost a phase from the analysis
artifact's window facts (:class:`~repro.core.analysis.WarpWindows`,
:class:`~repro.core.analysis.BufferWindows`): per-warp divergence in
closed form plus one ``bincount`` per stream over the selected windows,
with no per-pair expansion or sort.  The per-pair path remains for other
block sizes and for callers without an analysis; both give bit-identical
builders.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import PlanError, WorkloadError
from repro.core.workload import NestedLoopWorkload
from repro.gpusim.atomics import AtomicStats, flat_atomic_cycles
from repro.gpusim.coalesce import (
    MemoryTraffic,
    contiguous_transactions,
    transaction_counts,
)
from repro.gpusim.config import DeviceConfig
from repro.gpusim.costmodel import KernelCostBuilder

__all__ = [
    "add_outer_setup",
    "add_thread_mapped_inner",
    "add_block_mapped_inner",
    "add_partitioned_pairs",
    "phase_memo_stats",
    "clear_phase_memo",
]


# --------------------------------------------------------------- phase memo
#
# A parameter sweep re-costs the *same* (phase subset, grid) pair over and
# over: every template's small-row phase at lbTHRES=t with block size B
# issues exactly the same trace regardless of which template owns the large
# rows.  At bench scale half the mapping wall time is such exact repeats,
# so the three mapping moves below run through a content-keyed memo: the
# phase is costed once into a private builder and its accumulated effect —
# per-warp cost arrays plus the profiler-counter deltas — is replayed onto
# every later builder that asks for the same phase.
#
# Replay must be bit-identical across processes (a phase can be a memo hit
# in one worker and a miss in another), so the private-builder pass is the
# canonical path for hits *and* misses: each target array receives exactly
# one aggregated add either way, and every counter delta is an integer or
# a max, which merge associatively.

_PHASE_MEMO: dict = {}
_PHASE_MEMO_MAX = 256
_phase_memo_stats = {"hits": 0, "misses": 0}


@dataclass
class _PhaseEffect:
    """One mapping move's accumulated builder mutations, replayable."""

    compute: np.ndarray  # per-warp compute slots
    mem: np.ndarray  # per-warp transactions
    atomic: np.ndarray  # per-warp atomic cycles
    issued: int
    active: int
    load_bytes: int
    load_tx: int
    store_bytes: int
    store_tx: int
    shared: int
    atomic_stats: AtomicStats | None


def _phase_key(tag, builder, workload, analysis, arrays, flags) -> tuple | None:
    """Content key of one mapping move; None when the workload has no
    memoized fingerprint path (never the case for repo workloads)."""
    fingerprint = getattr(workload, "fingerprint", None)
    if fingerprint is None:
        return None
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        if arr is None:
            h.update(b"|None")
        else:
            h.update(np.ascontiguousarray(np.asarray(arr, dtype=np.int64)).tobytes())
        h.update(b"|")
    return (
        tag,
        fingerprint(),
        builder.config.fingerprint(),
        builder.block_size,
        builder.n_blocks,
        flags,
        h.hexdigest(),
    )


def _run_phase(builder: KernelCostBuilder, key, body) -> None:
    """Cost one phase through the memo: ``body(b)`` runs the mapping move
    against a builder ``b``; its effect lands on ``builder``."""
    effect = _PHASE_MEMO.get(key) if key is not None else None
    if effect is None:
        _phase_memo_stats["misses"] += 1
        private = KernelCostBuilder(
            builder.config, "phase", builder.block_size, builder.n_blocks
        )
        body(private)
        counters = private.counters
        stats = counters.atomic
        effect = _PhaseEffect(
            compute=private._arrays.compute_slots,
            mem=private._arrays.mem_transactions,
            atomic=private._arrays.atomic_cycles,
            issued=counters.warp.issued_steps,
            active=counters.warp.active_slots,
            load_bytes=counters.load_traffic.requested_bytes,
            load_tx=counters.load_traffic.transactions,
            store_bytes=counters.store_traffic.requested_bytes,
            store_tx=counters.store_traffic.transactions,
            shared=counters.shared_accesses,
            atomic_stats=(
                AtomicStats(
                    stats.n_atomics,
                    stats.max_address_multiplicity,
                    stats.hot_serialization_cycles,
                )
                if stats.n_atomics
                or stats.max_address_multiplicity
                or stats.hot_serialization_cycles
                else None
            ),
        )
        for arr in (effect.compute, effect.mem, effect.atomic):
            arr.setflags(write=False)
        if key is not None:
            if len(_PHASE_MEMO) >= _PHASE_MEMO_MAX:
                _PHASE_MEMO.pop(next(iter(_PHASE_MEMO)))
            _PHASE_MEMO[key] = effect
    else:
        _phase_memo_stats["hits"] += 1
        if obs.enabled():
            obs.add_counter("plan.phase_memo_hits")
    arrays = builder._arrays
    arrays.compute_slots += effect.compute
    arrays.mem_transactions += effect.mem
    arrays.atomic_cycles += effect.atomic
    counters = builder.counters
    if effect.issued:
        counters.warp.add_counts(effect.issued, effect.active)
    segment_bytes = builder.config.mem_segment_bytes
    if effect.load_bytes or effect.load_tx:
        counters.load_traffic = counters.load_traffic.merge(
            MemoryTraffic(effect.load_bytes, effect.load_tx, segment_bytes)
        )
    if effect.store_bytes or effect.store_tx:
        counters.store_traffic = counters.store_traffic.merge(
            MemoryTraffic(effect.store_bytes, effect.store_tx, segment_bytes)
        )
    if effect.shared:
        counters.shared_accesses += effect.shared
    if effect.atomic_stats is not None:
        counters.atomic.merge(effect.atomic_stats)


def phase_memo_stats() -> dict[str, int]:
    """Copy of the phase-memo hit/miss counters."""
    return dict(_phase_memo_stats)


def clear_phase_memo(reset_stats: bool = False) -> None:
    """Drop memoized phase effects (optionally also the counters)."""
    _PHASE_MEMO.clear()
    if reset_stats:
        for k in _phase_memo_stats:
            _phase_memo_stats[k] = 0


def _apply_streams(
    builder: KernelCostBuilder,
    workload: NestedLoopWorkload,
    pair_idx: np.ndarray,
    warp_ids: np.ndarray,
    group_ids: np.ndarray,
    coalesce_stores: bool = False,
    group_divisor: int | None = None,
    analysis=None,
) -> None:
    """Cost every access stream + atomics of the selected pairs.

    ``group_divisor`` is the per-warp slot count when groups are encoded as
    ``warp * n_slots + slot``; it unlocks the value-sort fast path of
    :func:`transaction_counts`.  When a
    :class:`~repro.core.analysis.WorkloadAnalysis` is supplied, the
    per-stream memory-segment ids come precomputed from it instead of
    being re-derived from raw addresses on every parameter point.
    """
    n = pair_idx.size
    if n == 0:
        return
    #: trusted group-id bound: groups are ``warp * n_slots + slot``
    group_span = (
        builder.n_warps * group_divisor if group_divisor is not None else None
    )
    for si, stream in enumerate(workload.streams):
        segments = None
        spans = None
        if coalesce_stores and stream.kind == "store" and stream.staged_in_shared:
            # Staged through shared memory and written back coalesced: the
            # global traffic becomes contiguous in pair order.
            addr = pair_idx * stream.element_bytes
            builder.add_shared_accesses(2 * n)  # stage in + flush out
        elif analysis is not None:
            addr = None
            segments = analysis.stream_segments(si)[pair_idx]
            if group_span is not None:
                spans = (group_span, analysis.stream_seg_span(si))
        else:
            addr = stream.addresses[pair_idx]
        tx = transaction_counts(warp_ids, group_ids, addr, builder.n_warps,
                                agg_divisor=group_divisor, segments=segments,
                                spans=spans)
        builder.add_traffic(tx, n * stream.element_bytes, stream.kind)
    if workload.atomic_targets is not None:
        targets = workload.atomic_targets[pair_idx]
        live = targets >= 0
        if np.any(live):
            cycles, stats = flat_atomic_cycles(
                warp_ids[live], group_ids[live], targets[live],
                builder.n_warps, builder.config,
            )
            builder.add_atomic_cycles(cycles, stats)


def _window_atomic_cycles(
    facts,
    windows: np.ndarray | None,
    agg: np.ndarray,
    n_agg: int,
    config: DeviceConfig,
    hot,
) -> tuple[np.ndarray, AtomicStats] | None:
    """:func:`flat_atomic_cycles` from window facts.

    Window ``windows[k]`` (all of ``facts``' windows when None) issues
    into bucket ``agg[k]``; each window with live atomics costs
    ``atomic_cycles + (mult - 1) * atomic_conflict_cycles``.  ``hot()``
    returns the phase-wide hottest-target count and is called only when
    some window has a live atomic.  Returns None when none does.  Windows
    arrive in issue-slot order within each bucket, so the per-bucket float
    sums match the per-pair path bit for bit.
    """
    if facts.live is None:
        return None
    live = facts.live if windows is None else facts.live[windows]
    has = live > 0
    if not has.any():
        return None
    mult = facts.mult if windows is None else facts.mult[windows]
    mult = mult[has].astype(np.int64)
    cost = (config.atomic_cycles
            + (mult - 1).clip(min=0) * config.atomic_conflict_cycles)
    cycles = np.bincount(agg[has], weights=cost, minlength=n_agg)
    stats = AtomicStats(n_atomics=int(live.sum(dtype=np.int64)),
                        max_address_multiplicity=hot())
    return cycles, stats


def _apply_windows(
    builder: KernelCostBuilder,
    workload: NestedLoopWorkload,
    facts,
    windows: np.ndarray | None,
    warps: np.ndarray,
    n_pairs: int,
    coalesce_stores: bool,
    hot,
) -> None:
    """The window twin of :func:`_apply_streams`: window ``windows[k]``
    (all of ``facts``' windows when None) is one issue slot of warp
    ``warps[k]``, so a warp's transactions are the sum of its windows'
    distinct segments."""
    for si, stream in enumerate(workload.streams):
        counts = facts.segments[si]
        if coalesce_stores and facts.staged[si] is not None:
            counts = facts.staged[si]
            builder.add_shared_accesses(2 * n_pairs)  # stage in + flush out
        if windows is not None:
            counts = counts[windows]
        tx = np.bincount(warps, weights=counts, minlength=builder.n_warps)
        builder.add_traffic(tx, n_pairs * stream.element_bytes, stream.kind)
    atomics = _window_atomic_cycles(facts, windows, warps, builder.n_warps,
                                   builder.config, hot)
    if atomics is not None:
        builder.add_atomic_cycles(*atomics)


def add_outer_setup(
    builder: KernelCostBuilder,
    workload: NestedLoopWorkload,
    n_outer: int,
    indirect: bool = False,
) -> None:
    """Per-outer-iteration setup: instructions + coalesced offset loads.

    ``indirect`` adds one extra scattered load per iteration (queue- or
    buffer-driven phases first fetch the iteration id they own).
    """
    if n_outer <= 0:
        return
    insts = workload.outer_insts + (2.0 if indirect else 0.0)
    builder.add_uniform(min(n_outer, builder.n_threads), insts=insts)
    tx = int(
        contiguous_transactions(
            n_outer,
            element_bytes=workload.outer_load_bytes,
            lanes_per_warp=builder.config.warp_size,
            segment_bytes=builder.config.mem_segment_bytes,
        ).sum()
    )
    per_warp = np.zeros(builder.n_warps)
    used_warps = max(1, -(-n_outer // builder.config.warp_size))
    used_warps = min(used_warps, builder.n_warps)
    per_warp[:used_warps] = tx / used_warps
    extra = n_outer if indirect else 0
    if extra:
        # scattered 4-byte id fetches: approximately one segment each
        per_warp[:used_warps] += extra / used_warps
    builder.add_traffic(
        per_warp, n_outer * workload.outer_load_bytes + extra * 4, "load"
    )
    if workload.outer_store_bytes:
        store_tx = int(
            contiguous_transactions(
                n_outer,
                element_bytes=workload.outer_store_bytes,
                lanes_per_warp=builder.config.warp_size,
                segment_bytes=builder.config.mem_segment_bytes,
            ).sum()
        )
        store_per_warp = np.zeros(builder.n_warps)
        store_per_warp[:used_warps] = store_tx / used_warps
        builder.add_traffic(
            store_per_warp, n_outer * workload.outer_store_bytes, "store"
        )


def add_thread_mapped_inner(
    builder: KernelCostBuilder,
    workload: NestedLoopWorkload,
    outer_ids: np.ndarray,
    thread_ids: np.ndarray,
    trips: np.ndarray | None = None,
    analysis=None,
) -> None:
    """Inner loops run one-outer-per-thread (Fig. 1(a) baseline mapping).

    ``outer_ids[k]`` is executed by linear thread ``thread_ids[k]`` of the
    builder's grid; ``trips`` optionally caps the iterations executed in
    this phase.
    """
    outer_ids = np.asarray(outer_ids, dtype=np.int64)
    thread_ids = np.asarray(thread_ids, dtype=np.int64)
    if outer_ids.shape != thread_ids.shape:
        raise PlanError("outer_ids and thread_ids must align")
    if outer_ids.size == 0:
        return
    sorted_threads = np.sort(thread_ids)
    if np.any(sorted_threads[1:] == sorted_threads[:-1]):
        raise PlanError("a thread cannot own two outer iterations in one phase")
    eff_trips = workload.subset_trips(outer_ids) if trips is None else np.asarray(trips, np.int64)

    def body(b: KernelCostBuilder) -> None:
        per_thread = np.zeros(b.n_threads, dtype=np.int64)
        per_thread[thread_ids] = eff_trips
        b.add_loop(per_thread, insts_per_iter=workload.inner_insts)

        pair_idx, steps = workload.pairs_of(outer_ids, eff_trips)
        if pair_idx.size == 0:
            return
        pair_threads = np.repeat(thread_ids, eff_trips)
        warp_ids = b.warp_of_thread(pair_threads)
        max_step = int(steps.max()) + 1
        group_ids = warp_ids * max_step + steps
        _apply_streams(b, workload, pair_idx, warp_ids, group_ids,
                       group_divisor=max_step, analysis=analysis)

    key = _phase_key("thread", builder, workload, analysis,
                     (outer_ids, thread_ids, eff_trips), ())
    _run_phase(builder, key, body)


def add_block_mapped_inner(
    builder: KernelCostBuilder,
    workload: NestedLoopWorkload,
    outer_ids: np.ndarray,
    block_ids: np.ndarray,
    coalesce_stores: bool = False,
    analysis=None,
) -> None:
    """Inner loops run one-outer-per-block: threads stride over f(i).

    ``outer_ids[k]`` is executed by block ``block_ids[k]``; inner iteration
    ``j`` lands on thread ``j % B`` at loop step ``j // B``.  Multiple
    outer iterations may share a block (dbuf-shared's per-block buffer) —
    they are then processed sequentially by that block.
    """
    outer_ids = np.asarray(outer_ids, dtype=np.int64)
    block_ids = np.asarray(block_ids, dtype=np.int64)
    if outer_ids.shape != block_ids.shape:
        raise PlanError("outer_ids and block_ids must align")
    if outer_ids.size == 0:
        return
    if block_ids.size and (block_ids.min() < 0 or block_ids.max() >= builder.n_blocks):
        raise PlanError("block_ids out of range for the builder's grid")
    if outer_ids.min() < 0 or outer_ids.max() >= workload.outer_size:
        raise WorkloadError("outer_ids out of range")

    def body(b: KernelCostBuilder) -> None:
        B = b.block_size
        trips = workload.subset_trips(outer_ids)
        table = (analysis.warp_windows(workload, B, b.config.warp_size)
                 if analysis is not None else None)
        if table is not None:
            # Window k of a row hosted by block blk is one issue slot of
            # warp blk * wpb + k % wpb, so a warp issues one loop step per
            # window (its first lane's trip count) and the lane-steps sum
            # to the pair count.
            windows, rank, counts = table.windows_of(outer_ids)
            wpb = b.warps_per_block
            warps = np.repeat(block_ids * wpb, counts) + rank % wpb
            n_pairs = int(trips.sum())
            b.add_warp_steps(np.bincount(warps, minlength=b.n_warps),
                             n_pairs, workload.inner_insts)
            if n_pairs:
                _apply_windows(b, workload, table, windows, warps, n_pairs,
                               coalesce_stores,
                               hot=lambda: table.hot_degree(outer_ids))
            return

        # Per-thread divergence: lane L of block blk runs ceil((f - L) / B)
        # iterations of each outer it hosts; accumulate over hosted outers.
        lanes = np.arange(B, dtype=np.int64)[None, :]
        lane_trips = np.clip((trips[:, None] - lanes + B - 1) // B, 0, None)
        flat_threads = (block_ids[:, None] * B + lanes).ravel()
        per_thread = np.bincount(
            flat_threads, weights=lane_trips.ravel(), minlength=b.n_threads
        ).astype(np.int64)
        b.add_loop(per_thread, insts_per_iter=workload.inner_insts)

        pair_idx, steps = workload.pairs_of(outer_ids)
        if pair_idx.size == 0:
            return
        pair_block = np.repeat(block_ids, trips)
        lane = steps % B
        chunk = steps // B
        pair_threads = pair_block * B + lane
        warp_ids = b.warp_of_thread(pair_threads)
        # Sequential outers within a block get distinct issue slots: include
        # the position of the outer in its block's list.
        outer_seq_in_block = _sequence_within(block_ids)
        pair_seq = np.repeat(outer_seq_in_block, trips)
        max_chunk = int(chunk.max()) + 1
        max_seq = int(pair_seq.max()) + 1
        group_ids = (warp_ids * max_seq + pair_seq) * max_chunk + chunk
        _apply_streams(b, workload, pair_idx, warp_ids, group_ids,
                       coalesce_stores=coalesce_stores,
                       group_divisor=max_seq * max_chunk, analysis=analysis)

    key = _phase_key("block", builder, workload, analysis,
                     (outer_ids, block_ids), (bool(coalesce_stores),))
    _run_phase(builder, key, body)


def add_partitioned_pairs(
    builder: KernelCostBuilder,
    workload: NestedLoopWorkload,
    outer_ids: np.ndarray,
    coalesce_stores: bool = False,
    analysis=None,
) -> None:
    """The buffered pair stream split evenly across the builder's blocks.

    dbuf-global's second phase: the delayed buffer lives in global memory,
    so its total inner work can be repartitioned fairly — each block takes
    a contiguous chunk of the concatenated pair stream regardless of which
    outer iteration the pairs belong to.
    """
    outer_ids = np.asarray(outer_ids, dtype=np.int64)
    if outer_ids.size == 0:
        return

    def body(b: KernelCostBuilder) -> None:
        buffer = (analysis.buffer_windows(workload, outer_ids, b.n_blocks,
                                          b.block_size, b.config.warp_size)
                  if analysis is not None else None)
        if buffer is not None:
            if buffer.n_pairs == 0:
                return
            # window (block, rank) issues on warp rank % wpb of its block
            wpb = b.warps_per_block
            warps = buffer.block * wpb + buffer.rank % wpb
            b.add_warp_steps(np.bincount(warps, minlength=b.n_warps),
                             buffer.n_pairs, workload.inner_insts + 1.0)
            _apply_windows(b, workload, buffer, None, warps, buffer.n_pairs,
                           coalesce_stores, hot=lambda: buffer.hot)
            return

        pair_idx, _ = workload.pairs_of(outer_ids)
        P = pair_idx.size
        if P == 0:
            return
        G = b.n_blocks
        B = b.block_size
        chunk_size = -(-P // G)
        pos = np.arange(P, dtype=np.int64)
        block = pos // chunk_size
        within = pos % chunk_size
        lane = within % B
        step = within // B
        per_thread = np.bincount(block * B + lane, minlength=b.n_threads)
        b.add_loop(per_thread, insts_per_iter=workload.inner_insts + 1.0)

        pair_threads = block * B + lane
        warp_ids = b.warp_of_thread(pair_threads)
        max_step = int(step.max()) + 1
        group_ids = warp_ids * max_step + step
        _apply_streams(b, workload, pair_idx, warp_ids, group_ids,
                       coalesce_stores=coalesce_stores,
                       group_divisor=max_step, analysis=analysis)

    key = _phase_key("pairs", builder, workload, analysis,
                     (outer_ids,), (bool(coalesce_stores),))
    _run_phase(builder, key, body)


def _sequence_within(ids: np.ndarray) -> np.ndarray:
    """Occurrence index of each element within its id group.

    ``_sequence_within([5, 5, 2, 5, 2]) == [0, 1, 0, 2, 1]``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    new_group = np.ones(ids.size, dtype=bool)
    new_group[1:] = sorted_ids[1:] != sorted_ids[:-1]
    group_start = np.maximum.accumulate(
        np.where(new_group, np.arange(ids.size), 0)
    )
    seq_sorted = np.arange(ids.size) - group_start
    out = np.empty(ids.size, dtype=np.int64)
    out[order] = seq_sorted
    return out
