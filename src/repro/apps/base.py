"""Common application scaffolding.

Every application exposes the same surface: a functional (vectorized)
computation whose result is verified against scipy/networkx/serial
references, a :class:`~repro.core.workload.NestedLoopWorkload` trace per
round for the template machinery, and a serial CPU baseline for speedups.
:class:`AppRun` bundles one (application, template) execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.base import TemplateRun
from repro.core.params import TemplateParams, check_params
from repro.gpusim.config import DeviceConfig, check_device
from repro.gpusim.profiler import ProfileMetrics

__all__ = ["AppRun", "checked_params", "combine_rounds"]


def checked_params(config: DeviceConfig,
                   params: TemplateParams | None) -> TemplateParams:
    """An app run's params, after checking its ``config`` and ``params``
    arguments; only None selects the defaults."""
    check_device(config)
    check_params(params)
    return TemplateParams() if params is None else params


@dataclass
class AppRun:
    """Result of running one application under one template."""

    app: str
    template: str
    dataset: str
    result: np.ndarray
    gpu_time_ms: float
    cpu_time_ms: float
    metrics: ProfileMetrics
    meta: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Serial-CPU time over simulated GPU time."""
        if self.gpu_time_ms <= 0:
            return float("inf")
        return self.cpu_time_ms / self.gpu_time_ms


def combine_rounds(rounds: list[TemplateRun]) -> tuple[float, ProfileMetrics]:
    """Total time + work-weighted metrics over a multi-round execution.

    Iterative applications (SSSP rounds, PageRank iterations, BC sources)
    launch the template once per round; the end-to-end time is the sum and
    the profiler metrics are aggregated the way the Visual Profiler would
    (ratios re-derived from summed raw counters).
    """
    if not rounds:
        raise ValueError("combine_rounds needs at least one round")
    total_ms = sum(r.result.time_ms for r in rounds)
    counters = [r.graph.aggregate_counters() for r in rounds]
    issued = sum(c.warp.issued_steps for c in counters)
    active = sum(c.warp.active_slots for c in counters)
    ld_req = sum(c.load_traffic.requested_bytes for c in counters)
    ld_tx = sum(c.load_traffic.transactions for c in counters)
    st_req = sum(c.store_traffic.requested_bytes for c in counters)
    st_tx = sum(c.store_traffic.transactions for c in counters)
    seg = counters[0].load_traffic.segment_bytes
    atomics = sum(r.metrics.atomic_ops for r in rounds)
    kcalls = sum(r.metrics.kernel_calls for r in rounds)
    dcalls = sum(r.metrics.device_kernel_calls for r in rounds)
    warp_size = counters[0].warp.warp_size
    weight = sum(max(r.result.cycles, 1e-9) for r in rounds)
    occupancy = sum(
        r.metrics.warp_occupancy * max(r.result.cycles, 1e-9) for r in rounds
    ) / weight
    util = sum(
        r.result.sm_utilization * max(r.result.cycles, 1e-9) for r in rounds
    ) / weight
    metrics = ProfileMetrics(
        warp_execution_efficiency=(
            active / (issued * warp_size) if issued else 1.0
        ),
        gld_efficiency=min(1.0, ld_req / (ld_tx * seg)) if ld_tx else 1.0,
        gst_efficiency=min(1.0, st_req / (st_tx * seg)) if st_tx else 1.0,
        warp_occupancy=occupancy,
        atomic_ops=atomics,
        kernel_calls=kcalls,
        device_kernel_calls=dcalls,
        time_ms=total_ms,
        sm_utilization=util,
    )
    return total_ms, metrics
