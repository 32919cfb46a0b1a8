"""Warp formation and SIMT divergence accounting.

A warp executes its lanes in lockstep: if lane ``j`` must run ``t[j]``
iterations of an inner loop, the warp issues ``max(t)`` iteration steps and
during step ``k`` only lanes with ``t[j] > k`` are active.  *Warp execution
efficiency* — the headline metric in the paper's Tables I and II — is the
ratio of active lane-slots to issued lane-slots (32 x issued steps).

This module turns linear lane-assignment arrays into padded
``(n_warps, warp_size)`` matrices and computes divergence statistics over
them, fully vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

__all__ = ["form_warps", "WarpShape", "divergence_steps", "WarpExecStats"]


@dataclass
class WarpShape:
    """A linear lane array reshaped into warps.

    ``values`` is ``(n_warps, warp_size)`` with padding lanes zeroed;
    ``active`` marks real lanes.
    """

    values: np.ndarray
    active: np.ndarray

    @property
    def n_warps(self) -> int:
        """Number of warps formed."""
        return self.values.shape[0]

    @property
    def warp_size(self) -> int:
        """Lanes per warp."""
        return self.values.shape[1]


def form_warps(
    lane_values: np.ndarray,
    warp_size: int = 32,
    block_size: int | None = None,
) -> WarpShape:
    """Chunk a linear per-lane array into warps.

    ``lane_values[k]`` is the value (e.g. inner-loop trip count) assigned to
    linear thread ``k``.  When ``block_size`` is given, threads are first
    grouped into blocks and each block is padded to a whole number of warps,
    mirroring how the hardware never forms warps across block boundaries.
    """
    lane_values = np.asarray(lane_values)
    if lane_values.ndim != 1:
        raise WorkloadError(f"lane_values must be 1-D, got shape {lane_values.shape}")
    if warp_size <= 0:
        raise WorkloadError(f"warp_size must be positive, got {warp_size}")
    if block_size is not None:
        if block_size <= 0:
            raise WorkloadError(f"block_size must be positive, got {block_size}")
        if block_size % warp_size:
            # Hardware pads the last warp of the block; rounding the block
            # up to whole warps models exactly that.
            padded_block = -(-block_size // warp_size) * warp_size
        else:
            padded_block = block_size
        n = lane_values.shape[0]
        n_blocks = -(-n // block_size) if n else 0
        total = n_blocks * padded_block
        values = np.zeros(total, dtype=lane_values.dtype)
        active = np.zeros(total, dtype=bool)
        if n:
            src = np.arange(n)
            dst = (src // block_size) * padded_block + (src % block_size)
            values[dst] = lane_values
            active[dst] = True
        return WarpShape(
            values.reshape(-1, warp_size), active.reshape(-1, warp_size)
        )

    n = lane_values.shape[0]
    n_warps = -(-n // warp_size) if n else 0
    values = np.zeros(n_warps * warp_size, dtype=lane_values.dtype)
    active = np.zeros(n_warps * warp_size, dtype=bool)
    values[:n] = lane_values
    active[:n] = True
    return WarpShape(values.reshape(-1, warp_size), active.reshape(-1, warp_size))


def divergence_steps(shape: WarpShape) -> tuple[np.ndarray, np.ndarray]:
    """Issued steps and active lane-slots per warp for an inner loop.

    Interpreting ``shape.values`` as per-lane trip counts, returns
    ``(issued_steps, active_slots)`` — both ``(n_warps,)`` int64 — where
    ``issued_steps[w] = max over active lanes of trips`` and
    ``active_slots[w] = sum over active lanes of trips``.
    """
    trips = np.where(shape.active, shape.values, 0).astype(np.int64, copy=False)
    if np.any(trips < 0):
        raise WorkloadError("trip counts cannot be negative")
    issued = trips.max(axis=1) if trips.size else np.zeros(0, dtype=np.int64)
    active = trips.sum(axis=1, dtype=np.int64) if trips.size else np.zeros(0, dtype=np.int64)
    return issued, active


@dataclass
class WarpExecStats:
    """Running divergence statistics across kernel phases.

    ``issued_slots`` counts ``warp_size`` lane-slots per issued warp step;
    ``active_slots`` counts the lanes that actually did work.  Their ratio
    is the profiler's *warp execution efficiency*.
    """

    warp_size: int = 32
    issued_steps: int = 0
    active_slots: int = 0
    warps_launched: int = 0

    def add_loop(self, shape: WarpShape) -> None:
        """Account one divergent inner loop executed by ``shape``."""
        issued, active = divergence_steps(shape)
        self.issued_steps += int(issued.sum())
        self.active_slots += int(active.sum())
        self.warps_launched += shape.n_warps

    def add_uniform(self, n_threads: int, steps: int = 1) -> None:
        """Account a non-divergent phase of ``steps`` issued steps run by
        ``n_threads`` linear threads (e.g. index setup code)."""
        if n_threads < 0 or steps < 0:
            raise WorkloadError("thread and step counts cannot be negative")
        if n_threads == 0 or steps == 0:
            return
        n_warps = -(-n_threads // self.warp_size)
        self.issued_steps += n_warps * steps
        self.active_slots += n_threads * steps
        self.warps_launched += n_warps

    def add_counts(self, issued_steps: int, active_slots: int) -> None:
        """Account pre-aggregated (issued, active) slot counts."""
        if issued_steps < 0 or active_slots < 0:
            raise WorkloadError("slot counts cannot be negative")
        if active_slots > issued_steps * self.warp_size:
            raise WorkloadError(
                "active slots exceed issued capacity "
                f"({active_slots} > {issued_steps} * {self.warp_size})"
            )
        self.issued_steps += issued_steps
        self.active_slots += active_slots

    def add_scaled(self, issued_steps, active_slots, insts: float) -> None:
        """Account a phase whose every issued step costs ``insts``
        instructions, given its unscaled (issued, active) slot counts.

        A fractional instruction still takes an issue slot, so scaled
        issued steps round up and scaled active slots round down: any
        non-negative ``insts`` keeps ``active <= issued * warp_size``
        (given it held unscaled), and integral counts stay exact.
        """
        self.add_counts(math.ceil(issued_steps * insts),
                        math.floor(active_slots * insts))

    def merge(self, other: "WarpExecStats") -> None:
        """Fold another statistics record into this one."""
        if other.warp_size != self.warp_size:
            raise WorkloadError("cannot merge stats with different warp sizes")
        self.issued_steps += other.issued_steps
        self.active_slots += other.active_slots
        self.warps_launched += other.warps_launched

    @property
    def warp_execution_efficiency(self) -> float:
        """Active lane-slots / issued lane-slots (profiler metric)."""
        if self.issued_steps == 0:
            return 1.0
        return self.active_slots / (self.issued_steps * self.warp_size)
