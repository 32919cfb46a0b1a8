"""CUDA-occupancy-calculator equivalent.

The paper selects kernel configurations with the CUDA occupancy calculator
("we use 192 threads per block, equaling the number of cores per streaming
multiprocessor on Kepler GPUs").  This module reproduces that calculation:
given a block size, per-thread register use and per-block shared memory, it
reports how many blocks of the kernel can be resident on one SM, and the
resulting occupancy (resident warps / max warps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigError
from repro.gpusim.config import DeviceConfig

__all__ = ["OccupancyResult", "occupancy", "best_block_size"]


def _round_up(value: int, granularity: int) -> int:
    """Round ``value`` up to a multiple of ``granularity``."""
    return ((value + granularity - 1) // granularity) * granularity


@dataclass(frozen=True)
class OccupancyResult:
    """Residency of one kernel configuration on one SM."""

    block_size: int
    warps_per_block: int
    blocks_per_sm: int
    #: which resource bounds ``blocks_per_sm`` ("blocks", "warps",
    #: "registers", "shared_mem")
    limiter: str
    registers_per_thread: int
    shared_mem_per_block: int

    @property
    def warps_per_sm(self) -> int:
        """Resident warps on one SM."""
        return self.blocks_per_sm * self.warps_per_block

    def occupancy(self, config: DeviceConfig) -> float:
        """Fraction of the SM's warp slots occupied (0.0 - 1.0)."""
        return self.warps_per_sm / config.max_warps_per_sm


def occupancy(
    config: DeviceConfig,
    block_size: int,
    registers_per_thread: int = 24,
    shared_mem_per_block: int = 0,
) -> OccupancyResult:
    """Compute SM residency for a kernel configuration.

    Parameters mirror the CUDA occupancy calculator inputs.  The paper's
    applications "have a low register and shared memory utilization", so the
    default of 24 registers/thread and no shared memory reproduces its
    finding that large blocks (192 threads) are optimal for thread-mapped
    kernels.

    Results are memoized per ``(device, block size, registers, shared mem)``
    key: launch graphs re-query the same few footprints millions of times
    over a sweep, and both :class:`OccupancyResult` and
    :class:`~repro.gpusim.config.DeviceConfig` are immutable, so sharing the
    result objects is safe.

    Raises :class:`ConfigError` if the configuration can never be resident
    (block too large, too much shared memory, too many registers).
    """
    return _occupancy_impl(
        config, block_size, registers_per_thread, shared_mem_per_block
    )


@lru_cache(maxsize=4096)
def _occupancy_impl(
    config: DeviceConfig,
    block_size: int,
    registers_per_thread: int,
    shared_mem_per_block: int,
) -> OccupancyResult:
    if block_size <= 0:
        raise ConfigError(f"block_size must be positive, got {block_size}")
    if block_size > config.max_threads_per_block:
        raise ConfigError(
            f"block_size {block_size} exceeds device limit "
            f"{config.max_threads_per_block}"
        )
    if registers_per_thread < 0 or registers_per_thread > config.max_registers_per_thread:
        raise ConfigError(
            f"registers_per_thread {registers_per_thread} out of range "
            f"[0, {config.max_registers_per_thread}]"
        )
    if shared_mem_per_block < 0:
        raise ConfigError("shared_mem_per_block cannot be negative")
    if shared_mem_per_block > config.shared_mem_per_block:
        raise ConfigError(
            f"shared_mem_per_block {shared_mem_per_block} exceeds device limit "
            f"{config.shared_mem_per_block}"
        )

    warps_per_block = math.ceil(block_size / config.warp_size)

    limits: dict[str, int] = {}
    limits["blocks"] = config.max_blocks_per_sm
    limits["warps"] = min(
        config.max_warps_per_sm // warps_per_block,
        config.max_threads_per_sm // block_size,
    )
    if registers_per_thread > 0:
        regs_per_block = _round_up(
            registers_per_thread * warps_per_block * config.warp_size,
            config.register_alloc_granularity,
        )
        limits["registers"] = config.registers_per_sm // regs_per_block
    if shared_mem_per_block > 0:
        smem_per_block = _round_up(
            shared_mem_per_block, config.shared_mem_alloc_granularity
        )
        limits["shared_mem"] = config.shared_mem_per_sm // smem_per_block

    limiter, blocks_per_sm = min(limits.items(), key=lambda item: item[1])
    if blocks_per_sm == 0:
        raise ConfigError(
            f"kernel configuration (block={block_size}, regs={registers_per_thread}, "
            f"smem={shared_mem_per_block}) cannot be resident on {config.name}: "
            f"limited by {limiter}"
        )
    return OccupancyResult(
        block_size=block_size,
        warps_per_block=warps_per_block,
        blocks_per_sm=blocks_per_sm,
        limiter=limiter,
        registers_per_thread=registers_per_thread,
        shared_mem_per_block=shared_mem_per_block,
    )


def best_block_size(
    config: DeviceConfig,
    registers_per_thread: int = 24,
    shared_mem_per_block: int = 0,
    candidates: tuple[int, ...] = (32, 64, 96, 128, 192, 256, 384, 512, 768, 1024),
) -> int:
    """Pick the smallest candidate block size that maximizes occupancy.

    Mirrors the CUDA occupancy calculator's recommendation.  Note the paper
    ultimately fixes 192 threads/block for thread-mapped kernels (the core
    count of a Kepler SM); templates apply that choice through
    ``repro.core.plan.DEFAULT_THREAD_BLOCK``.
    """
    best: int | None = None
    best_occ = -1.0
    for size in sorted(set(candidates)):
        if size > config.max_threads_per_block:
            continue
        try:
            result = occupancy(config, size, registers_per_thread, shared_mem_per_block)
        except ConfigError:
            continue
        occ = result.occupancy(config)
        if occ > best_occ + 1e-12:
            best, best_occ = size, occ
    if best is None:
        raise ConfigError("no candidate block size is resident on this device")
    return best
