"""Cycle cost model: from traces to per-block SM-cycles.

:class:`KernelCostBuilder` is the single entry point templates use to cost
a kernel.  They feed it the *mechanistic* ingredients — per-lane trip
counts (divergence), exact transaction counts (coalescing), atomic target
addresses (contention) — and it produces a :class:`~repro.gpusim.kernels.Launch`
whose per-block work is expressed in SM-cycles:

* compute: issued warp-steps x instructions / (SM warp throughput);
* memory: transactions x effective segment cycles, where the effective
  cost rises above the bandwidth floor when too few warps are resident to
  hide DRAM latency (this is what makes tiny dynamic-parallelism child
  grids expensive per unit of work);
* atomics: per-warp conflict serialization, plus a kernel-wide serial tail
  for the hottest address (same-address RMW throughput).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from repro.errors import WorkloadError
from repro.gpusim.atomics import AtomicStats, warp_atomic_cycles
from repro.gpusim.coalesce import MemoryTraffic
from repro.gpusim.config import DeviceConfig
from repro.gpusim.kernels import HOST, KernelCosts, Launch, ProfileCounters
from repro.gpusim.occupancy import occupancy
from repro.gpusim.warps import WarpExecStats, WarpShape, divergence_steps, form_warps

__all__ = ["effective_segment_cycles", "resident_warps_estimate", "KernelCostBuilder"]


def resident_warps_estimate(
    config: DeviceConfig,
    block_size: int,
    n_blocks: int,
    registers_per_thread: int = 24,
    shared_mem_per_block: int = 0,
    concurrent_grids: int = 1,
) -> float:
    """Expected warps resident per SM while the kernel runs.

    Bounded above by the occupancy limit and below by one warp; scaled by
    how many blocks the grid (times any concurrently executing sibling
    grids, e.g. dynamic-parallelism children) can actually spread over the
    SMs.  Small grids under-fill the device and expose memory latency.
    """
    occ = occupancy(config, block_size, registers_per_thread, shared_mem_per_block)
    siblings = max(1, min(concurrent_grids, config.max_concurrent_kernels))
    blocks_available = n_blocks * siblings
    blocks_per_sm = min(occ.blocks_per_sm, math.ceil(blocks_available / config.sm_count))
    return max(1.0, blocks_per_sm * occ.warps_per_block)


def effective_segment_cycles(config: DeviceConfig, resident_warps: float) -> float:
    """SM-cycles per 128B segment given the resident-warp count.

    ``max(bandwidth floor, latency / outstanding requests)``: with enough
    warps in flight the memory system is bandwidth-bound; a lone warp pays
    (most of) the raw DRAM latency per dependent access.
    """
    if resident_warps <= 0:
        raise WorkloadError("resident_warps must be positive")
    outstanding = resident_warps * config.memory_parallelism_per_warp
    return max(config.cycles_per_segment, config.dram_latency_cycles / outstanding)


@dataclass
class _WarpArrays:
    compute_slots: np.ndarray  # issued warp-steps x insts, per warp
    mem_transactions: np.ndarray
    atomic_cycles: np.ndarray


class KernelCostBuilder:
    """Accumulates the cost of one kernel and emits a :class:`Launch`.

    Threads are identified by their *linear id* (block-major); the builder
    handles warp formation, padding at block boundaries, and per-warp /
    per-block aggregation.  All ``add_*`` methods are vectorized over the
    whole grid.
    """

    def __init__(
        self,
        config: DeviceConfig,
        name: str,
        block_size: int,
        n_blocks: int,
        registers_per_thread: int = 24,
        shared_mem_per_block: int = 0,
        concurrent_grids: int = 1,
    ) -> None:
        if n_blocks <= 0:
            raise WorkloadError(f"kernel {name!r} needs at least one block")
        self.config = config
        self.name = name
        self.block_size = block_size
        self.n_blocks = n_blocks
        self.registers_per_thread = registers_per_thread
        self.shared_mem_per_block = shared_mem_per_block
        self.concurrent_grids = concurrent_grids

        self.warps_per_block = -(-block_size // config.warp_size)
        self.n_warps = n_blocks * self.warps_per_block
        self._arrays = _WarpArrays(
            compute_slots=np.zeros(self.n_warps, dtype=np.float64),
            mem_transactions=np.zeros(self.n_warps, dtype=np.float64),
            atomic_cycles=np.zeros(self.n_warps, dtype=np.float64),
        )
        self.counters = ProfileCounters(
            warp=WarpExecStats(warp_size=config.warp_size)
        )
        self.counters.load_traffic.segment_bytes = config.mem_segment_bytes
        self.counters.store_traffic.segment_bytes = config.mem_segment_bytes
        self._serial_tail = 0.0
        self._resident_warps = resident_warps_estimate(
            config, block_size, n_blocks, registers_per_thread,
            shared_mem_per_block, concurrent_grids,
        )
        self._segment_cycles = effective_segment_cycles(config, self._resident_warps)

    # ------------------------------------------------------------------ utils
    @property
    def n_threads(self) -> int:
        """Linear threads in the grid (block_size x n_blocks)."""
        return self.block_size * self.n_blocks

    @property
    def resident_warps(self) -> float:
        """Resident-warp estimate used for the latency model."""
        return self._resident_warps

    def warp_of_thread(self, thread_ids: np.ndarray) -> np.ndarray:
        """Map linear thread ids to global warp ids (block-boundary aware)."""
        thread_ids = np.asarray(thread_ids, dtype=np.int64)
        if thread_ids.size and (
            thread_ids.min() < 0 or thread_ids.max() >= self.n_threads
        ):
            raise WorkloadError("thread ids out of range for this grid")
        warp_size = self.config.warp_size
        if self.block_size % warp_size == 0:
            # Blocks are whole warps, so block boundaries coincide with warp
            # boundaries and the mapping collapses to one division.
            return thread_ids // warp_size
        block = thread_ids // self.block_size
        lane = thread_ids % self.block_size
        return block * self.warps_per_block + lane // warp_size

    def _form(self, per_thread: np.ndarray) -> WarpShape:
        """Warp-shape a per-linear-thread array, respecting block padding."""
        per_thread = np.asarray(per_thread)
        if per_thread.shape[0] > self.n_threads:
            raise WorkloadError(
                f"{per_thread.shape[0]} per-thread values exceed grid size "
                f"{self.n_threads}"
            )
        if per_thread.shape[0] < self.n_threads:
            padded = np.zeros(self.n_threads, dtype=per_thread.dtype)
            padded[: per_thread.shape[0]] = per_thread
            per_thread = padded
        return form_warps(per_thread, self.config.warp_size, self.block_size)

    # ---------------------------------------------------------------- compute
    def add_uniform(self, n_threads: int | None = None, insts: float = 1.0) -> None:
        """Non-divergent straight-line work by the first ``n_threads``."""
        if n_threads is None:
            n_threads = self.n_threads
        if n_threads < 0 or n_threads > self.n_threads:
            raise WorkloadError("n_threads out of range for this grid")
        if n_threads == 0 or insts <= 0:
            return
        # closed form of warp formation over a thread prefix: warp w of
        # block b holds lanes [b*B + w*ws, +min(ws, B - w*ws)), of which
        # those below n_threads are active; it issues once if any is
        warp_size = self.config.warp_size
        starts = np.arange(self.warps_per_block, dtype=np.int64) * warp_size
        lanes = np.minimum(warp_size, self.block_size - starts)
        first = (np.arange(self.n_blocks, dtype=np.int64)[:, None]
                 * self.block_size + starts).ravel()
        active = np.clip(n_threads - first, 0, np.tile(lanes, self.n_blocks))
        issued = (active > 0).astype(np.int64)
        self._arrays.compute_slots += issued * insts
        self.counters.warp.add_scaled(issued.sum(), active.sum(), insts)

    def add_loop(self, trip_counts: np.ndarray, insts_per_iter: float | None = None) -> None:
        """A divergent inner loop: ``trip_counts[t]`` iterations by linear
        thread ``t``; each iteration costs ``insts_per_iter`` issued
        instructions (default: ``config.loop_overhead_insts``)."""
        if insts_per_iter is None:
            insts_per_iter = self.config.loop_overhead_insts
        if insts_per_iter < 0:
            raise WorkloadError("insts_per_iter cannot be negative")
        shape = self._form(np.asarray(trip_counts, dtype=np.int64))
        issued, active = divergence_steps(shape)
        self.add_warp_steps(issued, active.sum(), insts_per_iter)

    def add_warp_steps(self, issued: np.ndarray, active_slots: int,
                       insts_per_iter: float) -> None:
        """A divergent loop given in closed form: ``issued[w]`` loop steps
        issued by warp ``w`` and ``active_slots`` lane-steps in total —
        what :meth:`add_loop` derives from per-thread trip counts."""
        self._arrays.compute_slots += issued * insts_per_iter
        self.counters.warp.add_scaled(issued.sum(), active_slots,
                                      insts_per_iter)

    # ----------------------------------------------------------------- memory
    def add_traffic(
        self,
        tx_per_warp: np.ndarray,
        requested_bytes: int,
        kind: str = "load",
    ) -> None:
        """Account global-memory transactions (from the coalescing model).

        ``tx_per_warp`` is ``(n_warps,)``; ``requested_bytes`` the bytes the
        active lanes asked for across the whole access stream.
        """
        tx_per_warp = np.asarray(tx_per_warp, dtype=np.float64)
        if tx_per_warp.shape != (self.n_warps,):
            raise WorkloadError(
                f"tx_per_warp must have shape ({self.n_warps},), "
                f"got {tx_per_warp.shape}"
            )
        if requested_bytes < 0:
            raise WorkloadError("requested_bytes cannot be negative")
        self._arrays.mem_transactions += tx_per_warp
        traffic = MemoryTraffic(
            requested_bytes=int(requested_bytes),
            transactions=int(round(tx_per_warp.sum())),
            segment_bytes=self.config.mem_segment_bytes,
        )
        if kind == "load":
            self.counters.load_traffic = self.counters.load_traffic.merge(traffic)
        elif kind == "store":
            self.counters.store_traffic = self.counters.store_traffic.merge(traffic)
        else:
            raise WorkloadError(f"unknown traffic kind {kind!r}")

    # ---------------------------------------------------------------- atomics
    def add_atomics(self, per_thread_addresses: np.ndarray, repeats: np.ndarray | None = None) -> None:
        """One warp-wide atomic access per thread (optionally repeated).

        ``per_thread_addresses[t]`` is the element address thread ``t``
        RMWs (< 0 means the thread issues no atomic).  ``repeats`` scales
        the access per thread (same address each time).
        """
        addresses = np.asarray(per_thread_addresses, dtype=np.int64)
        shape = self._form(addresses + 1)  # shift so sentinel -1 -> 0 inactive-safe
        active = shape.active & (shape.values > 0)
        shape = WarpShape(values=shape.values, active=active)
        cycles, stats = warp_atomic_cycles(shape, self.config)
        if repeats is not None:
            repeats = np.asarray(repeats, dtype=np.int64)
            if repeats.shape != addresses.shape:
                raise WorkloadError("repeats must match per_thread_addresses shape")
            if np.any(repeats < 0):
                raise WorkloadError("repeats cannot be negative")
            rep_shape = self._form(repeats)
            rep_vals = np.where(active, rep_shape.values, 0)
            warp_rep = rep_vals.max(axis=1)  # warp pays for its slowest lane
            cycles = cycles * np.maximum(warp_rep, 0)
            stats.n_atomics = int(rep_vals.sum())
        self._arrays.atomic_cycles += cycles
        self.counters.atomic.merge(stats)

    def add_atomic_cycles(self, cycles_per_warp: np.ndarray, stats: AtomicStats) -> None:
        """Account precomputed atomic serialization (flat-trace path).

        Used by the template mapping machinery together with
        :func:`repro.gpusim.atomics.flat_atomic_cycles`, which costs whole
        loop-nest atomic streams in one vectorized pass.
        """
        cycles_per_warp = np.asarray(cycles_per_warp, dtype=np.float64)
        if cycles_per_warp.shape != (self.n_warps,):
            raise WorkloadError(
                f"cycles_per_warp must have shape ({self.n_warps},), "
                f"got {cycles_per_warp.shape}"
            )
        if np.any(cycles_per_warp < 0):
            raise WorkloadError("atomic cycles cannot be negative")
        self._arrays.atomic_cycles += cycles_per_warp
        self.counters.atomic.merge(stats)

    def add_hot_address_tail(self, multiplicities: np.ndarray | int) -> None:
        """Kernel-wide serial tail for hot atomic addresses.

        ``multiplicities``: RMW count(s) aimed at the hottest address(es);
        the tail is the *maximum* single-address stream, drained at the
        same-address RMW throughput.
        """
        mult = np.atleast_1d(np.asarray(multiplicities, dtype=np.int64))
        if mult.size == 0:
            return
        if np.any(mult < 0):
            raise WorkloadError("multiplicities cannot be negative")
        hottest = int(mult.max())
        self.counters.atomic.max_address_multiplicity = max(
            self.counters.atomic.max_address_multiplicity, hottest
        )
        tail = hottest * self.config.atomic_same_address_cycles
        self.counters.atomic.hot_serialization_cycles += tail
        self._serial_tail += tail

    # ----------------------------------------------------------------- shared
    def add_shared_accesses(self, n_accesses: int, conflict_degree: float = 1.0) -> None:
        """Shared-memory traffic (dbuf-shared staging): cheap, on-chip."""
        if n_accesses < 0 or conflict_degree < 1.0:
            raise WorkloadError("invalid shared-memory access description")
        self.counters.shared_accesses += n_accesses
        per_warp = (
            n_accesses
            / max(self.n_warps, 1)
            * self.config.shared_mem_cycles
            * conflict_degree
            / self.config.warp_size
        )
        self._arrays.compute_slots += per_warp

    # ------------------------------------------------------------------ build
    def build(
        self,
        stream: int = 0,
        parent: int = HOST,
        parent_block: int = 0,
        issue_point: float = 1.0,
        device_stream: int = 0,
        count: int = 1,
    ) -> Launch:
        """Assemble the :class:`Launch` with per-block SM-cycle costs."""
        cfg = self.config
        warp_cycles = (
            self._arrays.compute_slots / cfg.warp_throughput_per_cycle
            + self._arrays.mem_transactions * self._segment_cycles
            + self._arrays.atomic_cycles
        )
        per_block = warp_cycles.reshape(self.n_blocks, self.warps_per_block)
        block_cycles = per_block.sum(axis=1)
        # A block cannot retire before its critical warp: that warp issues
        # alone at 1 warp-inst/cycle and pays its own memory/atomic time.
        critical = (
            self._arrays.compute_slots
            + self._arrays.mem_transactions * self._segment_cycles
            + self._arrays.atomic_cycles
        ).reshape(self.n_blocks, self.warps_per_block)
        block_floor = critical.max(axis=1)
        if parent == HOST:
            self.counters.host_launches += 1
        else:
            self.counters.device_launches += 1
        return Launch(
            name=self.name,
            block_size=self.block_size,
            costs=KernelCosts(
                block_cycles=block_cycles,
                block_floor=block_floor,
                serial_tail=self._serial_tail,
            ),
            registers_per_thread=self.registers_per_thread,
            shared_mem_per_block=self.shared_mem_per_block,
            stream=stream,
            parent=parent,
            parent_block=parent_block,
            issue_point=issue_point,
            device_stream=device_stream,
            counters=self.counters,
            count=count,
            resident_warps_hint=self._resident_warps,
        )
