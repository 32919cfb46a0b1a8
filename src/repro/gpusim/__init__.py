"""``repro.gpusim`` — trace-driven SIMT GPU timing simulator.

This package substitutes for the Nvidia K20 + CUDA 6 + Visual Profiler
stack used by the paper (see DESIGN.md §2).  It models the mechanisms the
paper's experiments exercise — SIMT divergence, memory coalescing, atomics,
occupancy-bounded block scheduling, CUDA streams and dynamic parallelism —
and reports both wall-clock estimates and profiler metrics.

Typical use::

    from repro.gpusim import KEPLER_K20, KernelCostBuilder, LaunchGraph, GpuExecutor

    builder = KernelCostBuilder(KEPLER_K20, "my_kernel", block_size=192, n_blocks=64)
    builder.add_loop(trip_counts)
    graph = LaunchGraph()
    graph.add(builder.build())
    result = GpuExecutor(KEPLER_K20).run(graph)
    print(result.time_ms)
"""

from repro.gpusim.atomics import (
    AtomicStats,
    flat_atomic_cycles,
    grouped_conflict_degree,
    hot_address_degree,
    warp_atomic_cycles,
)
from repro.gpusim.coalesce import (
    MemoryTraffic,
    contiguous_transactions,
    segment_transactions,
    transaction_counts,
    transactions_for_flat,
)
from repro.gpusim.config import (
    FERMI_C2050,
    KEPLER_K20,
    KEPLER_K40,
    PRESETS,
    DeviceConfig,
    preset,
    supports_dynamic_parallelism,
)
from repro.gpusim.costmodel import (
    KernelCostBuilder,
    effective_segment_cycles,
    resident_warps_estimate,
)
from repro.gpusim.dynpar import (
    DynParOverheadEstimate,
    estimate_bulk_overhead,
    issue_cost_cycles,
    require_device_support,
)
from repro.gpusim.executor import ExecutionResult, GpuExecutor, LaunchRecord
from repro.gpusim.kernels import (
    HOST,
    KernelCosts,
    Launch,
    LaunchGraph,
    ProfileCounters,
)
from repro.gpusim.occupancy import OccupancyResult, best_block_size, occupancy
from repro.gpusim.profiler import ProfileMetrics, format_metrics_table, profile
from repro.gpusim.sharedmem import bank_conflict_degree, shared_access_cycles
from repro.gpusim.timeline import Timeline, build_timeline
from repro.gpusim.warps import (
    WarpExecStats,
    WarpShape,
    divergence_steps,
    form_warps,
)

__all__ = [
    # config
    "DeviceConfig", "KEPLER_K20", "KEPLER_K40", "FERMI_C2050", "PRESETS",
    "preset", "supports_dynamic_parallelism",
    # occupancy
    "OccupancyResult", "occupancy", "best_block_size",
    # memory
    "MemoryTraffic", "segment_transactions", "transactions_for_flat",
    "contiguous_transactions", "transaction_counts",
    # warps
    "WarpShape", "WarpExecStats", "form_warps", "divergence_steps",
    # atomics / shared
    "AtomicStats", "warp_atomic_cycles", "grouped_conflict_degree",
    "hot_address_degree", "flat_atomic_cycles",
    "bank_conflict_degree", "shared_access_cycles",
    # cost model
    "KernelCostBuilder", "effective_segment_cycles", "resident_warps_estimate",
    # kernels / execution
    "HOST", "KernelCosts", "Launch", "LaunchGraph", "ProfileCounters",
    "GpuExecutor", "ExecutionResult", "LaunchRecord",
    # dynamic parallelism
    "require_device_support", "issue_cost_cycles", "estimate_bulk_overhead",
    "DynParOverheadEstimate",
    # profiler
    "ProfileMetrics", "profile", "format_metrics_table",
    # timeline
    "Timeline", "build_timeline",
]
