"""Dynamic-parallelism helpers for template authors.

The executor implements the mechanics of nested launches (GMU queue,
latency, pool, per-stream serialization); this module provides what the
*parent* kernel must account for — the cycles its threads spend issuing
nested launches — plus validation, the bulk entry for fine-grained
one-block children, and aggregate overhead estimation used by the
analysis in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LaunchError
from repro.gpusim.config import DeviceConfig, supports_dynamic_parallelism
from repro.gpusim.kernels import KernelCosts, LaunchClass, LaunchGraph

__all__ = [
    "require_device_support",
    "issue_cost_cycles",
    "add_one_block_children",
    "DynParOverheadEstimate",
    "estimate_bulk_overhead",
]


def require_device_support(config: DeviceConfig, template_name: str) -> None:
    """Raise if the device cannot perform nested kernel launches.

    Mirrors the paper's motivation for the dbuf templates: they provide
    the same load balancing "also for devices that do not support nested
    kernel invocations".
    """
    if not supports_dynamic_parallelism(config):
        raise LaunchError(
            f"template {template_name!r} requires dynamic parallelism, but "
            f"{config.name} (cc {config.compute_capability[0]}."
            f"{config.compute_capability[1]}) does not support nested launches; "
            "use a delayed-buffer template instead"
        )


def issue_cost_cycles(config: DeviceConfig, n_launches: int) -> float:
    """Cycles a parent thread/block spends issuing ``n_launches`` children.

    Parameter marshalling, stream selection and enqueueing into the
    pending-launch pool all happen on the *parent's* clock — a first-order
    reason dpar-naive underperforms when every thread launches.
    """
    if n_launches < 0:
        raise LaunchError("n_launches cannot be negative")
    return n_launches * config.device_launch_issue_cycles


def add_one_block_children(
    graph: LaunchGraph,
    name: str,
    work: np.ndarray,
    floor: np.ndarray,
    block_size,
    parents,
    parent_blocks,
    device_streams,
    *,
    registers_per_thread: int = 24,
    resident_warps_hint: float = 0.0,
) -> range:
    """Add one single-block child grid per entry of the per-child vectors.

    ``work``/``floor`` are each child's block cycles and floor,
    ``block_size`` its block width (an array, or one value for all); the
    linkage arguments are per-child rows as in :meth:`LaunchGraph.add_rows`.
    Children with equal (work, floor, block size) share one interned
    :class:`LaunchClass` with empty counters — the template folds its
    children's counters into a parent record — and every child becomes a
    row of one ``add_rows`` call, in the given order.  Returns the rows.
    """
    work = np.asarray(work, dtype=np.float64)
    widths = np.broadcast_to(np.asarray(block_size, dtype=np.float64), work.shape)
    triples, class_of = np.unique(
        np.stack((work, np.asarray(floor, dtype=np.float64), widths), axis=1),
        axis=0, return_inverse=True,
    )
    classes = [
        LaunchClass(
            name=name,
            block_size=int(width),
            costs=KernelCosts(np.array([cycles]), np.array([critical])),
            registers_per_thread=registers_per_thread,
            resident_warps_hint=resident_warps_hint,
        )
        for cycles, critical, width in triples.tolist()
    ]
    return graph.add_rows(classes, class_of.reshape(-1), parents, parent_blocks,
                          device_streams=device_streams)


@dataclass(frozen=True)
class DynParOverheadEstimate:
    """Closed-form overhead of a bulk nested-launch wave."""

    n_launches: int
    issue_cycles: float
    gmu_drain_us: float
    latency_us: float
    pool_overflow: bool

    @property
    def total_us_lower_bound(self) -> float:
        """Launch-machinery time even if children did zero work."""
        return self.gmu_drain_us + self.latency_us


def estimate_bulk_overhead(
    config: DeviceConfig, n_launches: int
) -> DynParOverheadEstimate:
    """Estimate the launch-machinery cost of ``n_launches`` nested grids.

    Used by the EXPERIMENTS analysis to sanity-check executor output: a
    quarter-million nested launches (the paper's rec-naive at outdegree
    512) cost seconds in GMU drain alone regardless of the work inside.
    """
    if n_launches < 0:
        raise LaunchError("n_launches cannot be negative")
    drain_us = n_launches / config.device_launch_throughput_per_us
    return DynParOverheadEstimate(
        n_launches=n_launches,
        issue_cycles=issue_cost_cycles(config, n_launches),
        gmu_drain_us=drain_us,
        latency_us=config.device_launch_latency_us,
        pool_overflow=n_launches > config.pending_launch_limit,
    )
