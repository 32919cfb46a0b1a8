"""Kernel, launch and profiling descriptors consumed by the executor.

A *kernel launch* is described by its grid shape, its resource footprint
(which bounds SM residency via :mod:`repro.gpusim.occupancy`), a per-block
work array in **SM-cycles** produced by :mod:`repro.gpusim.costmodel`, and
profiler counters.  Launch graphs — host launches ordered by stream plus
device-side (dynamic parallelism) launches hanging off parent launches —
are what templates hand to :class:`repro.gpusim.executor.GpuExecutor`.

A :class:`LaunchGraph` stores each launch as one row of columns over a
small table of :class:`LaunchClass` entries: what launches share (kernel
name, block size, footprint, costs, counters) is held, validated and
costed once per class, and a row holds only its own linkage.  Templates
that spawn thousands of identical one-block grids (rec-naive,
dpar-naive) thus describe them with a handful of classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import LaunchError, WorkloadError, check_count
from repro.gpusim.atomics import AtomicStats
from repro.gpusim.coalesce import MemoryTraffic
from repro.gpusim.config import DeviceConfig
from repro.gpusim.warps import WarpExecStats

__all__ = [
    "ProfileCounters",
    "KernelCosts",
    "LaunchClass",
    "Launch",
    "LaunchGraph",
    "HOST",
]

#: sentinel parent id for host-side launches
HOST = -1


@dataclass
class ProfileCounters:
    """Visual-Profiler-style counters for one launch (or aggregated).

    The three Table-I metrics come straight out of here:
    ``warp.warp_execution_efficiency``, ``load_traffic.efficiency`` (gld)
    and ``store_traffic.efficiency`` (gst).
    """

    warp: WarpExecStats = field(default_factory=WarpExecStats)
    load_traffic: MemoryTraffic = field(default_factory=MemoryTraffic)
    store_traffic: MemoryTraffic = field(default_factory=MemoryTraffic)
    atomic: AtomicStats = field(default_factory=AtomicStats)
    shared_accesses: int = 0
    host_launches: int = 0
    device_launches: int = 0

    def merge(self, other: "ProfileCounters") -> None:
        """Fold another counter record into this one."""
        self.warp.merge(other.warp)
        self.load_traffic = self.load_traffic.merge(other.load_traffic)
        self.store_traffic = self.store_traffic.merge(other.store_traffic)
        self.atomic.merge(other.atomic)
        self.shared_accesses += other.shared_accesses
        self.host_launches += other.host_launches
        self.device_launches += other.device_launches


@dataclass
class KernelCosts:
    """Per-block work of one kernel, in SM-cycles.

    ``block_cycles[b]`` is the total work block ``b`` contributes to
    whichever SM it lands on; ``block_floor[b]`` is the duration the block
    cannot beat even on an idle SM (its critical warp).  ``serial_tail``
    models kernel-wide serialization (e.g. a globally hot atomic address)
    appended after the last block retires.  Every entry must be finite and
    non-negative: a NaN or infinite cost has no simulated meaning.
    """

    block_cycles: np.ndarray
    block_floor: np.ndarray | None = None
    serial_tail: float = 0.0

    def __post_init__(self) -> None:
        self.block_cycles = np.asarray(self.block_cycles, dtype=np.float64)
        if self.block_cycles.ndim != 1:
            raise WorkloadError("block_cycles must be a 1-D array")
        if not np.isfinite(self.block_cycles).all():
            raise WorkloadError("block cycles must be finite")
        if np.any(self.block_cycles < 0):
            raise WorkloadError("block cycles cannot be negative")
        if self.block_floor is None:
            self.block_floor = np.zeros_like(self.block_cycles)
        else:
            self.block_floor = np.asarray(self.block_floor, dtype=np.float64)
            if self.block_floor.shape != self.block_cycles.shape:
                raise WorkloadError("block_floor must match block_cycles shape")
            if not np.isfinite(self.block_floor).all():
                raise WorkloadError("block floors must be finite")
            if np.any(self.block_floor < 0):
                raise WorkloadError("block floors cannot be negative")
        if not math.isfinite(self.serial_tail):
            raise WorkloadError("serial_tail must be finite")
        if self.serial_tail < 0:
            raise WorkloadError("serial_tail cannot be negative")

    @property
    def n_blocks(self) -> int:
        """Grid size in blocks."""
        return int(self.block_cycles.shape[0])

    @property
    def total_cycles(self) -> float:
        """Total SM-cycles of work in the grid."""
        return float(self.block_cycles.sum())

    def block_runs(self) -> tuple[list[int], list[float], list[float]]:
        """Run-length encoding of ``(work, floor)`` over the block array.

        Returns ``(ends, works, floors)`` where blocks ``[ends[i-1],
        ends[i])`` (0 for the first run) all share ``works[i]`` /
        ``floors[i]``.  Template grids are dominated by long runs of
        identical blocks (uniform phases, bulk children), which is what
        lets the fast engine place whole runs per SM scan instead of one
        block at a time.  Cached; treat the lists as read-only.
        """
        cached = getattr(self, "_block_runs", None)
        if cached is None:
            w, f = self.block_cycles, self.block_floor
            n = w.shape[0]
            if n == 0:
                cached = ([], [], [])
                object.__setattr__(self, "_block_runs", cached)
                return cached
            change = np.empty(n, dtype=bool)
            change[0] = True
            np.not_equal(w[1:], w[:-1], out=change[1:])
            change[1:] |= f[1:] != f[:-1]
            starts = np.flatnonzero(change)
            ends = np.empty(starts.shape[0], dtype=np.int64)
            ends[:-1] = starts[1:]
            ends[-1] = n
            cached = (ends.tolist(), w[starts].tolist(), f[starts].tolist())
            object.__setattr__(self, "_block_runs", cached)
        return cached


@dataclass(frozen=True, eq=False)
class LaunchClass:
    """What the launches of one kind share; validated once, when made.

    Every row of a :class:`LaunchGraph` names one class.  Rows of one class
    run the same grid (``costs``) with the same footprint, and their
    ``counters`` record is merged once per row (scaled by the row's
    count).  ``resident_warps_hint`` is the cost model's estimate of warps
    resident per SM while the kernel runs; it feeds the profiler's
    achieved-occupancy metric.
    """

    name: str
    block_size: int
    costs: KernelCosts
    registers_per_thread: int = 24
    shared_mem_per_block: int = 0
    counters: ProfileCounters = field(default_factory=ProfileCounters)
    resident_warps_hint: float = 0.0

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise LaunchError(f"block_size must be positive, got {self.block_size}")
        check_count(f"launch {self.name!r}: registers_per_thread",
                    self.registers_per_thread, 1, error=LaunchError)
        check_count(f"launch {self.name!r}: shared_mem_per_block",
                    self.shared_mem_per_block, 0, error=LaunchError)
        if self.costs.n_blocks == 0:
            raise LaunchError(f"launch {self.name!r} has an empty grid")
        hint = self.resident_warps_hint
        if not (math.isfinite(hint) and hint >= 0):
            raise LaunchError(
                f"launch {self.name!r}: resident_warps_hint must be finite "
                f"and non-negative, got {hint!r}"
            )


@dataclass
class Launch:
    """One kernel launch: a :class:`LaunchClass`'s fields plus one row's.

    The record :meth:`LaunchGraph.add` takes and :attr:`LaunchGraph.launches`
    returns.  Host launches (``parent == HOST``) execute in stream order;
    device launches become pending when their issuing parent block
    completes, then pass through the grid-management queue.  Launches
    sharing a ``device_stream`` key (the same parent block and CUDA stream)
    serialize with each other in issue order — the semantics the paper's
    "multiple streams per thread-block" experiments toggle.  The class
    fields are validated when the launch joins a graph.
    """

    name: str
    block_size: int
    costs: KernelCosts
    registers_per_thread: int = 24
    shared_mem_per_block: int = 0
    stream: int = 0
    parent: int = HOST
    parent_block: int = 0
    issue_point: float = 1.0
    device_stream: int = 0
    counters: ProfileCounters = field(default_factory=ProfileCounters)
    #: replicate this launch N times (bulk dynamic-parallelism fan-out);
    #: replicas share the cost/counters description
    count: int = 1
    #: cost-model estimate of warps resident per SM while this kernel runs
    resident_warps_hint: float = 0.0

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise LaunchError(f"launch count must be positive, got {self.count}")
        if not (0.0 <= self.issue_point <= 1.0):
            raise LaunchError("issue_point must lie in [0, 1]")

    @property
    def is_device(self) -> bool:
        """Whether this is a nested (dynamic-parallelism) launch."""
        return self.parent != HOST


class LaunchGraph:
    """A complete program: host launches plus nested device launches.

    One row per launch, in launch order, over the interned :attr:`classes`:
    ``class_ids[i]`` names row ``i``'s class and ``parents[i]`` its parent
    row (``HOST`` for host launches); parents precede their children.  The
    remaining columns are ``parent_blocks``, ``streams``,
    ``device_streams``, ``issue_points`` and ``counts``.  Columns are plain
    lists; treat them as read-only and append through :meth:`add` (one
    launch) or :meth:`add_rows` (many rows over shared classes).
    """

    def __init__(self) -> None:
        self.classes: list[LaunchClass] = []
        self.class_ids: list[int] = []
        self.parents: list[int] = []
        self.parent_blocks: list[int] = []
        self.streams: list[int] = []
        self.device_streams: list[int] = []
        self.issue_points: list[float] = []
        self.counts: list[int] = []

    def __len__(self) -> int:
        return len(self.class_ids)

    def add(self, launch: Launch) -> int:
        """Append one launch as a row of its own class; returns its row id."""
        if launch.parent != HOST:
            if not (0 <= launch.parent < len(self)):
                raise LaunchError(
                    f"launch {launch.name!r} references unknown parent {launch.parent}"
                )
            parent_class = self.classes[self.class_ids[launch.parent]]
            n_parent_blocks = parent_class.costs.n_blocks
            if not (0 <= launch.parent_block < n_parent_blocks):
                raise LaunchError(
                    f"launch {launch.name!r} issued from block {launch.parent_block} "
                    f"but parent grid has {n_parent_blocks} blocks"
                )
        self.classes.append(LaunchClass(
            name=launch.name,
            block_size=launch.block_size,
            costs=launch.costs,
            registers_per_thread=launch.registers_per_thread,
            shared_mem_per_block=launch.shared_mem_per_block,
            counters=launch.counters,
            resident_warps_hint=launch.resident_warps_hint,
        ))
        self.class_ids.append(len(self.classes) - 1)
        self.parents.append(launch.parent)
        self.parent_blocks.append(launch.parent_block)
        self.streams.append(launch.stream)
        self.device_streams.append(launch.device_stream)
        self.issue_points.append(launch.issue_point)
        self.counts.append(launch.count)
        return len(self) - 1

    def add_rows(self, classes, class_ids, parents, parent_blocks, *,
                 streams=0, device_streams=0, issue_points=1.0,
                 counts=1) -> range:
        """Append many rows over new classes; returns their row ids.

        ``classes`` join the class table and ``class_ids`` index into that
        list, one entry per row.  The other arguments are per-row arrays
        (or scalars for every row) with :class:`Launch`'s meanings; a
        parent may be any earlier row, including one added by this call.
        Parent ids and parent blocks are checked in one vector test and
        raise :class:`LaunchError` as :meth:`add` does.
        """
        classes = list(classes)
        ids = np.asarray(class_ids, dtype=np.int64).reshape(-1)
        n = ids.shape[0]

        def column(values, dtype):
            return np.broadcast_to(np.asarray(values, dtype=dtype), (n,))

        parent = column(parents, np.int64)
        parent_block = column(parent_blocks, np.int64)
        count = column(counts, np.int64)
        issue_point = column(issue_points, np.float64)
        if n and (ids.min() < 0 or ids.max() >= len(classes)):
            raise LaunchError("class id out of range of the given classes")
        if np.any(count <= 0):
            raise LaunchError(f"launch count must be positive, got {count.min()}")
        if not np.all((issue_point >= 0.0) & (issue_point <= 1.0)):
            raise LaunchError("issue_point must lie in [0, 1]")
        first = len(self)
        base = len(self.classes)
        device = parent != HOST
        bad = device & ((parent < 0) | (parent >= first + np.arange(n)))
        if bad.any():
            k = int(np.argmax(bad))
            raise LaunchError(
                f"launch {classes[ids[k]].name!r} references unknown parent "
                f"{int(parent[k])}"
            )
        if device.any():
            row_class = np.concatenate(
                [np.asarray(self.class_ids, dtype=np.int64), ids + base])
            grid = np.array([c.costs.n_blocks for c in self.classes + classes],
                            dtype=np.int64)
            limit = grid[row_class[parent[device]]]
            block = parent_block[device]
            bad = (block < 0) | (block >= limit)
            if bad.any():
                k = int(np.argmax(bad))
                row = int(np.flatnonzero(device)[k])
                raise LaunchError(
                    f"launch {classes[ids[row]].name!r} issued from block "
                    f"{int(block[k])} but parent grid has {int(limit[k])} blocks"
                )
        self.classes.extend(classes)
        self.class_ids.extend((ids + base).tolist())
        self.parents.extend(parent.tolist())
        self.parent_blocks.extend(parent_block.tolist())
        self.streams.extend(column(streams, np.int64).tolist())
        self.device_streams.extend(column(device_streams, np.int64).tolist())
        self.issue_points.extend(issue_point.tolist())
        self.counts.extend(count.tolist())
        return range(first, first + n)

    @property
    def launches(self) -> tuple[Launch, ...]:
        """Every row as a :class:`Launch` record, built on each access.

        For tests and other cold readers; the executor and the profiler
        read the columns.
        """
        records = []
        for i, cid in enumerate(self.class_ids):
            cls = self.classes[cid]
            records.append(Launch(
                name=cls.name,
                block_size=cls.block_size,
                costs=cls.costs,
                registers_per_thread=cls.registers_per_thread,
                shared_mem_per_block=cls.shared_mem_per_block,
                stream=self.streams[i],
                parent=self.parents[i],
                parent_block=self.parent_blocks[i],
                issue_point=self.issue_points[i],
                device_stream=self.device_streams[i],
                counters=cls.counters,
                count=self.counts[i],
                resident_warps_hint=cls.resident_warps_hint,
            ))
        return tuple(records)

    def validate(self, config: DeviceConfig) -> None:
        """Check device limits: grid sizes per class, nesting depth per row."""
        for cls in self.classes:
            if cls.costs.n_blocks > config.max_grid_dim_x:
                raise LaunchError(f"launch {cls.name!r} grid exceeds device limit")
        limit = config.max_launch_depth
        parents = np.asarray(self.parents, dtype=np.int64)
        # walk every device row up its parent chain at once; a row still
        # below a device parent after ``limit`` hops nests too deep
        live = np.flatnonzero(parents != HOST)
        hop = parents[live]
        for _ in range(limit):
            if not live.size:
                return
            keep = parents[hop] != HOST
            live, hop = live[keep], parents[hop[keep]]
        if live.size:
            name = self.classes[self.class_ids[int(live.min())]].name
            raise LaunchError(
                f"launch {name!r} exceeds max nesting depth {limit}"
            )

    def aggregate_counters(self) -> ProfileCounters:
        """Merge every row's counters, in row order (scaled by count).

        Merging an empty record twice in a row changes nothing the first
        merge did not (an empty running traffic record adopts the empty
        one's segment size either way), so a run of rows whose classes
        carry empty counters merges once.
        """
        empty = ProfileCounters()
        is_empty = [cls.counters == empty for cls in self.classes]
        total = ProfileCounters()
        last_empty = False
        for cid, count in zip(self.class_ids, self.counts):
            if is_empty[cid]:
                if last_empty:
                    continue
                last_empty = True
            else:
                last_empty = False
            counters = self.classes[cid].counters
            if count == 1:
                total.merge(counters)
            else:
                total.merge(_scale_counters(counters, count))
        return total


def _scale_counters(counters: ProfileCounters, factor: int) -> ProfileCounters:
    """Scale a counter record by an integer replica count."""
    scaled = ProfileCounters()
    scaled.warp = WarpExecStats(
        warp_size=counters.warp.warp_size,
        issued_steps=counters.warp.issued_steps * factor,
        active_slots=counters.warp.active_slots * factor,
        warps_launched=counters.warp.warps_launched * factor,
    )
    scaled.load_traffic = MemoryTraffic(
        requested_bytes=counters.load_traffic.requested_bytes * factor,
        transactions=counters.load_traffic.transactions * factor,
        segment_bytes=counters.load_traffic.segment_bytes,
    )
    scaled.store_traffic = MemoryTraffic(
        requested_bytes=counters.store_traffic.requested_bytes * factor,
        transactions=counters.store_traffic.transactions * factor,
        segment_bytes=counters.store_traffic.segment_bytes,
    )
    scaled.atomic = AtomicStats(
        n_atomics=counters.atomic.n_atomics * factor,
        max_address_multiplicity=counters.atomic.max_address_multiplicity,
        hot_serialization_cycles=counters.atomic.hot_serialization_cycles * factor,
    )
    scaled.shared_accesses = counters.shared_accesses * factor
    scaled.host_launches = counters.host_launches * factor
    scaled.device_launches = counters.device_launches * factor
    return scaled
