"""Visual-Profiler-style metric extraction and reporting.

The paper backs its analysis with Nvidia Visual Profiler metrics: *warp
execution efficiency* (Tables I, II), *gld/gst efficiency* (Table I),
*warp occupancy* (dbuf-shared vs dbuf-global discussion) and counts of
atomic operations and kernel calls (Figs. 5, 7(c), 8(c)).  This module
computes the same metrics from a launch graph and its execution result and
renders them as a report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.gpusim.config import DeviceConfig
from repro.gpusim.executor import ExecutionResult
from repro.gpusim.kernels import LaunchGraph, ProfileCounters

__all__ = ["ProfileMetrics", "profile", "format_metrics_table"]


@dataclass(frozen=True)
class ProfileMetrics:
    """The profiler metrics the paper reports, for one run."""

    #: ratio of average active threads per warp to the warp width
    warp_execution_efficiency: float
    #: requested over transferred global-load bytes
    gld_efficiency: float
    #: requested over transferred global-store bytes
    gst_efficiency: float
    #: average resident warps per active cycle over the warp capacity
    warp_occupancy: float
    #: number of global atomic operations performed
    atomic_ops: int
    #: kernel invocations (host + device)
    kernel_calls: int
    #: nested (dynamic parallelism) kernel invocations
    device_kernel_calls: int
    #: end-to-end execution time (milliseconds)
    time_ms: float
    #: fraction of SM-cycles the device was busy
    sm_utilization: float

    def as_dict(self) -> dict[str, float]:
        """Metrics as a plain dict (for tables/serialization)."""
        return {
            "warp_execution_efficiency": self.warp_execution_efficiency,
            "gld_efficiency": self.gld_efficiency,
            "gst_efficiency": self.gst_efficiency,
            "warp_occupancy": self.warp_occupancy,
            "atomic_ops": self.atomic_ops,
            "kernel_calls": self.kernel_calls,
            "device_kernel_calls": self.device_kernel_calls,
            "time_ms": self.time_ms,
            "sm_utilization": self.sm_utilization,
        }


def _weighted_occupancy(graph: LaunchGraph, config: DeviceConfig) -> float:
    """Work-weighted achieved occupancy across all launches.

    Each launch contributes its cost-model resident-warp estimate weighted
    by the SM-cycles it executes; this mirrors the profiler's "average
    active warps per active cycle / maximum warps" definition.  The sums
    run row by row, in launch order (a pairwise sum would round
    differently).
    """
    works = [cls.costs.total_cycles for cls in graph.classes]
    hints = [cls.resident_warps_hint for cls in graph.classes]
    weighted = 0.0
    weight = 0.0
    for cid, count in zip(graph.class_ids, graph.counts):
        work = works[cid] * count
        hint = hints[cid]
        if work <= 0 or hint <= 0:
            continue
        weighted += hint * work
        weight += work
    if weight == 0:
        return 0.0
    return (weighted / weight) / config.max_warps_per_sm


def profile(
    graph: LaunchGraph,
    result: ExecutionResult,
    config: DeviceConfig,
) -> ProfileMetrics:
    """Extract paper-grade metrics from an executed launch graph."""
    with obs.span("gpusim.profile", launches=len(graph)):
        return _profile(graph, result, config)


def _profile(
    graph: LaunchGraph,
    result: ExecutionResult,
    config: DeviceConfig,
) -> ProfileMetrics:
    counters: ProfileCounters = result.counters
    return ProfileMetrics(
        warp_execution_efficiency=counters.warp.warp_execution_efficiency,
        gld_efficiency=min(1.0, counters.load_traffic.efficiency),
        gst_efficiency=min(1.0, counters.store_traffic.efficiency),
        warp_occupancy=_weighted_occupancy(graph, config),
        atomic_ops=counters.atomic.n_atomics,
        kernel_calls=result.n_launches,
        device_kernel_calls=result.n_device_launches,
        time_ms=result.time_ms,
        sm_utilization=result.sm_utilization,
    )


def format_metrics_table(rows: dict[str, ProfileMetrics]) -> str:
    """Render named metric rows as an ASCII table (Table-I style)."""
    headers = [
        "variant", "warp eff", "gld eff", "gst eff",
        "occupancy", "atomics", "kcalls",
    ]
    lines = []
    body = []
    for name, m in rows.items():
        body.append([
            name,
            f"{m.warp_execution_efficiency * 100:5.1f}%",
            f"{m.gld_efficiency * 100:5.1f}%",
            f"{m.gst_efficiency * 100:5.1f}%",
            f"{m.warp_occupancy * 100:5.1f}%",
            _si(m.atomic_ops),
            _si(m.kernel_calls),
        ])
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(headers)]
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in body:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _si(value: int) -> str:
    """Compact count formatting like the paper's tables (1.0k, 0.26m)."""
    if value >= 1_000_000:
        return f"{value / 1e6:.2f}m"
    if value >= 1_000:
        return f"{value / 1e3:.1f}k"
    return str(value)
