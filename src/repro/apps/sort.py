"""The sort case study (paper Fig. 2).

The paper motivates its skepticism about naive dynamic parallelism with
the CUDA SDK's sorting samples: *Simple QuickSort* and *Advanced
QuickSort* (both recursive, built on nested launches) against a flat,
non-recursive *MergeSort* — and the flat kernel wins at every size.

We implement all three:

* functional results are produced by real algorithms (vectorized pairwise
  run-merging for mergesort; explicit-stack pivot partitioning for the
  quicksorts, with selection/bitonic leaf sorts);
* timing comes from the recursion/pass structure the functional run
  actually produced: one kernel per merge pass vs. one nested launch per
  partition call (depth-limited, leaf kernels included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.gpusim.config import DeviceConfig, KEPLER_K20, check_device
from repro.gpusim.dynpar import require_device_support
from repro.gpusim.executor import GpuExecutor
from repro.gpusim.kernels import KernelCosts, Launch, LaunchGraph
from repro.gpusim.profiler import ProfileMetrics, profile

__all__ = [
    "merge_sort",
    "quicksort",
    "PartitionRecord",
    "SortApp",
    "SORT_VARIANTS",
]

SORT_VARIANTS = ("mergesort", "quicksort-simple", "quicksort-advanced")

#: value span assumed by the per-row searchsorted trick (int32 inputs)
_ROW_SPAN = np.int64(1) << 33


def _merge_pass(values: np.ndarray, width: int) -> np.ndarray:
    """Merge adjacent sorted runs of ``width`` into runs of ``2*width``.

    Fully vectorized across run pairs: rows are lifted into disjoint key
    ranges (row_id * SPAN + value) so one global ``searchsorted`` computes
    every row's merge positions at once.
    """
    n = values.size
    if width >= n:
        return values
    pair = 2 * width
    n_pairs = -(-n // pair)
    padded = np.full(n_pairs * pair, np.iinfo(np.int64).max // 2, dtype=np.int64)
    padded[:n] = values
    rows = padded.reshape(n_pairs, pair)
    a = rows[:, :width]
    b = rows[:, width:]
    row_ids = np.arange(n_pairs, dtype=np.int64)[:, None]
    a_keys = (row_ids * _ROW_SPAN + a).ravel()
    b_keys = (row_ids * _ROW_SPAN + b).ravel()
    # position of each A element among B (and vice versa) per row
    a_rank_in_b = np.searchsorted(b_keys, a_keys, side="left") - row_ids.ravel().repeat(width) * width
    b_rank_in_a = np.searchsorted(a_keys, b_keys, side="right") - row_ids.ravel().repeat(width) * width
    out = np.empty_like(rows)
    col = np.tile(np.arange(width, dtype=np.int64), n_pairs).reshape(n_pairs, width)
    a_pos = col + a_rank_in_b.reshape(n_pairs, width)
    b_pos = col + b_rank_in_a.reshape(n_pairs, width)
    np.put_along_axis(out, a_pos, a, axis=1)
    np.put_along_axis(out, b_pos, b, axis=1)
    return out.ravel()[:n]


def merge_sort(values: np.ndarray, base_width: int = 32) -> tuple[np.ndarray, list[int]]:
    """Bottom-up mergesort; returns (sorted array, pass widths).

    The base case sorts ``base_width`` runs in registers/shared memory
    (one thread-block each); subsequent passes double the run width.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise WorkloadError("merge_sort expects a 1-D array")
    if values.size == 0:
        return values.astype(np.int64), []
    v = values.astype(np.int64, copy=True)
    n = v.size
    base = min(base_width, n)
    n_runs = -(-n // base)
    padded = np.full(n_runs * base, np.iinfo(np.int64).max // 2, dtype=np.int64)
    padded[:n] = v
    padded = np.sort(padded.reshape(n_runs, base), axis=1).ravel()
    v = padded[:n]
    widths = [base]
    width = base
    while width < n:
        v = _merge_pass(v, width)
        width *= 2
        widths.append(width)
    return v, widths


@dataclass
class PartitionRecord:
    """One partition call in a quicksort recursion."""

    offset: int
    size: int
    depth: int
    parent: int            # index of the parent record, -1 for the root
    is_leaf: bool = False  # handled by the flat leaf sort instead


def quicksort(
    values: np.ndarray,
    max_depth: int = 16,
    leaf_size: int = 64,
    median_of_three: bool = False,
    seed: int = 0,
) -> tuple[np.ndarray, list[PartitionRecord]]:
    """Depth-limited quicksort; returns (sorted array, recursion records).

    Mirrors the CUDA SDK samples: each partition call would be a nested
    kernel; once ``max_depth`` is hit or a segment is below ``leaf_size``,
    a flat leaf kernel (Selection or Bitonic sort) finishes the segment.
    ``median_of_three`` selects the Advanced variant's pivot strategy.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise WorkloadError("quicksort expects a 1-D array")
    v = values.astype(np.int64, copy=True)
    records: list[PartitionRecord] = []
    if v.size == 0:
        return v, records
    stack: list[tuple[int, int, int, int]] = [(0, v.size, 0, -1)]
    while stack:
        lo, hi, depth, parent = stack.pop()
        size = hi - lo
        me = len(records)
        if size <= leaf_size or depth >= max_depth:
            records.append(PartitionRecord(lo, size, depth, parent, is_leaf=True))
            v[lo:hi] = np.sort(v[lo:hi])
            continue
        records.append(PartitionRecord(lo, size, depth, parent))
        seg = v[lo:hi]
        if median_of_three:
            cand = np.array([seg[0], seg[size // 2], seg[-1]])
            pivot = int(np.sort(cand)[1])
        else:
            pivot = int(seg[size // 2])
        less = seg[seg < pivot]
        equal = seg[seg == pivot]
        greater = seg[seg > pivot]
        v[lo: lo + less.size] = less
        v[lo + less.size: lo + less.size + equal.size] = equal
        v[lo + less.size + equal.size: hi] = greater
        left = (lo, lo + less.size, depth + 1, me)
        right = (lo + less.size + equal.size, hi, depth + 1, me)
        if left[1] - left[0] > 1:
            stack.append(left)
        elif left[1] - left[0] >= 0:
            pass
        if right[1] - right[0] > 1:
            stack.append(right)
    return v, records


@dataclass
class SortRun:
    """Timing + structure of one simulated sort execution."""

    variant: str
    n: int
    time_ms: float
    kernel_calls: int
    device_kernel_calls: int
    metrics: ProfileMetrics
    result: np.ndarray = field(repr=False, default=None)


class SortApp:
    """The Fig. 2 sort comparison on the simulated device."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.ndim != 1 or values.size == 0:
            raise WorkloadError("SortApp expects a non-empty 1-D array")
        self.values = values.astype(np.int64)

    # ------------------------------------------------------------ mergesort
    def _mergesort_graph(self, config: DeviceConfig) -> tuple[LaunchGraph, np.ndarray]:
        result, widths = merge_sort(self.values)
        n = self.values.size
        graph = LaunchGraph()
        block = 256
        for i, width in enumerate(widths):
            # each pass streams the whole array in and out, coalesced
            grid = max(1, min(-(-n // (block * 4)), 65_535))
            tx = 2.0 * n * 4 / config.mem_segment_bytes
            compute = n * 8.0 / config.warp_throughput_per_cycle
            total = tx * config.cycles_per_segment + compute
            per_block = np.full(grid, total / grid)
            graph.add(Launch(
                name=f"merge-pass-{i}",
                block_size=block,
                costs=KernelCosts(block_cycles=per_block),
                resident_warps_hint=64.0,
            ))
        return graph, result

    # ----------------------------------------------------------- quicksorts
    def _quicksort_graph(
        self, config: DeviceConfig, advanced: bool
    ) -> tuple[LaunchGraph, np.ndarray]:
        require_device_support(
            config, "quicksort-advanced" if advanced else "quicksort-simple"
        )
        result, records = quicksort(
            self.values,
            max_depth=16 if advanced else 12,
            leaf_size=1024 if advanced else 64,
            median_of_three=advanced,
        )
        graph = LaunchGraph()
        launch_of: dict[int, int] = {}
        seg_cycles = config.cycles_per_segment
        for k, rec in enumerate(records):
            if rec.is_leaf:
                if advanced:
                    # bitonic sort leaf: k log^2 k compares, one block
                    logk = max(1, int(np.ceil(np.log2(max(rec.size, 2)))))
                    work = rec.size * logk * logk * 2.0
                else:
                    # selection sort leaf: quadratic single-thread-block
                    work = rec.size * rec.size / 2.0
                mem = 2.0 * rec.size * 4 / config.mem_segment_bytes * seg_cycles * 4
                cycles = work / config.warp_throughput_per_cycle + mem
                bsize = 64
            else:
                # partition pass: stream the segment, scatter halves
                mem = 3.0 * rec.size * 4 / config.mem_segment_bytes * seg_cycles * 2
                cycles = rec.size * 4.0 / config.warp_throughput_per_cycle + mem
                bsize = 128
            costs = KernelCosts(
                block_cycles=np.array([max(cycles, 50.0)]),
                block_floor=np.array([max(cycles, 50.0)]),
            )
            if rec.parent < 0:
                launch = Launch(
                    name="qsort-root", block_size=bsize, costs=costs,
                )
            else:
                launch = Launch(
                    name="qsort-part" if not rec.is_leaf else "qsort-leaf",
                    block_size=bsize,
                    costs=costs,
                    parent=launch_of[rec.parent],
                    parent_block=0,
                    # SDK samples put left/right children in separate
                    # device streams so siblings overlap
                    device_stream=k % 2,
                )
            launch_of[k] = graph.add(launch)
        return graph, result

    # ------------------------------------------------------------------ run
    def run(self, variant: str, config: DeviceConfig = KEPLER_K20) -> SortRun:
        """Sort under one of the three Fig. 2 implementations."""
        check_device(config)
        if variant not in SORT_VARIANTS:
            raise WorkloadError(
                f"unknown sort variant {variant!r}; known: {SORT_VARIANTS}"
            )
        if variant == "mergesort":
            graph, result = self._mergesort_graph(config)
        else:
            graph, result = self._quicksort_graph(
                config, advanced=(variant == "quicksort-advanced")
            )
        exec_result = GpuExecutor(config).run(graph)
        metrics = profile(graph, exec_result, config)
        expected = np.sort(self.values)
        if not np.array_equal(result, expected):
            raise WorkloadError(f"{variant} produced an unsorted result")
        return SortRun(
            variant=variant,
            n=self.values.size,
            time_ms=exec_result.time_ms,
            kernel_calls=exec_result.n_launches,
            device_kernel_calls=exec_result.n_device_launches,
            metrics=metrics,
            result=result,
        )
