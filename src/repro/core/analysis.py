"""Workload-invariant analysis, computed once per workload fingerprint.

Every nested-loop template schedules the *same* iteration-space facts —
trip-count statistics, the sorted-degree order behind every ``lbTHRES``
partition, per-stream memory-segment ids — and the tree templates read
the same per-node facts (degrees, sibling ranks, child-degree sums).
This module hoists those facts out of the per-``(template, params)`` build
path into a :class:`WorkloadAnalysis` / :class:`TreeAnalysis` artifact
keyed on the workload fingerprint alone, so a parameter sweep over N
points computes them once and the cheap ``specialize`` stage assembles the
remaining launch graph N times.  The warp-window table
(:class:`WarpWindows`) carries the same idea into the cost model: the
per-issue-slot memory and atomic facts of block-mapped phases are computed
once per workload, and each schedule only relabels them onto warps.  The
unit-stride record (:attr:`WorkloadAnalysis.unit_stride`) marks the
streams whose addresses are affine in the pair index, which the mapping
layer and the window tables count without a sort.

Artifacts are the ``analysis`` kind of the tiered cache
(:mod:`~repro.core.artifactcache`): memory, then — when a cache directory
is configured — disk, where repeat runs and other processes share them.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from repro import obs
from repro.core.artifactcache import tiered_cache
from repro.gpusim.coalesce import TRACE_SEGMENT_BYTES, transaction_counts
from repro.graphs.csr import concat_ranges

__all__ = [
    "WorkloadAnalysis",
    "TreeAnalysis",
    "WindowFacts",
    "WarpWindows",
    "BufferWindows",
    "WINDOW_STEPS",
    "get_analysis",
    "get_tree_analysis",
    "analysis_stats",
    "clear_analysis_cache",
]

#: inner-loop steps per warp window: the lanes of one warp at one issue
#: slot.  The window tables are built for this warp size; phases on a
#: device with another warp size take the per-pair path.
WINDOW_STEPS = 32

#: (row set, grid) buffer-window sets kept per analysis
_MAX_BUFFER_WINDOWS = 8
#: serializes evictions from the buffer-window memos (service threads
#: specialize concurrently against one shared analysis)
_BUFFER_WINDOWS_LOCK = threading.Lock()


def _issues_whole_windows(block_size: int, warp_size: int) -> bool:
    """Whether every issue slot of a block-mapped phase covers exactly
    one warp window: true when blocks are whole warps of
    :data:`WINDOW_STEPS` lanes.  Otherwise a warp's lanes straddle two
    loop steps of a row and the mapping layer costs the phase per pair."""
    return warp_size == WINDOW_STEPS and block_size % WINDOW_STEPS == 0


def _is_unit_stride(stream) -> bool:
    """Whether ``stream.addresses[p] == addresses[0] + p * element_bytes``
    for every pair ``p`` (the first and last step reject most others)."""
    addresses, step = stream.addresses, stream.element_bytes
    if addresses.size < 2:
        return True
    if (addresses[1] - addresses[0] != step
            or addresses[-1] - addresses[0] != step * (addresses.size - 1)):
        return False
    return bool(np.all(np.diff(addresses) == step))


class WindowFacts:
    """Per-window work facts of a pair stream cut into warp windows.

    ``window_of[e]`` names the window of stream entry ``e`` (non-decreasing
    in ``e``), and ``pairs`` its global pair index (None: entry ``e`` is
    pair ``e``).  One window is one warp issue slot, so these are exactly
    the per-slot facts the cost model reads.  Per window:

    * ``segments[s]`` — distinct 128-byte segments of access stream ``s``;
    * ``staged[s]`` — the same for a staged store stream flushed from
      shared memory in pair order (``pair * element_bytes``); None for
      every other stream;
    * ``live`` / ``mult`` — live atomics, and the most of them aimed at
      one target (both None for workloads without atomics).

    When ``ascending`` (each window lists its pairs in ascending order), a
    unit-stride stream's segments do not decrease within a window, so its
    distinct segments are the window's first entry plus its segment
    changes: one neighbour comparison and one ``bincount``.  Every other
    stream counts distinct ``(window, segment)`` keys with a sort.

    A window holds at most 32 entries, so every count fits in ``uint8``.
    ``live_keys`` gives each live atomic, in entry order, a dense target
    id, for the phase-wide hottest-target statistic.
    """

    def __init__(self, workload, analysis: "WorkloadAnalysis",
                 window_of: np.ndarray, n_windows: int,
                 pairs: np.ndarray | None = None,
                 ascending: bool = True) -> None:
        def distinct(segments: np.ndarray, span: int) -> np.ndarray:
            return transaction_counts(
                window_of, window_of, None, n_windows, agg_divisor=1,
                segments=segments, spans=(n_windows, span),
            ).astype(np.uint8)

        new_window = np.empty(window_of.size, dtype=bool)
        new_window[:1] = True
        np.not_equal(window_of[1:], window_of[:-1], out=new_window[1:])
        self.segments: list[np.ndarray] = []
        self.staged: list[np.ndarray | None] = []
        for si, stream in enumerate(workload.streams):
            segments = analysis.stream_segments(si)
            if pairs is not None:
                segments = segments[pairs]
            if ascending and analysis.unit_stride[si]:
                first = new_window.copy()
                first[1:] |= segments[1:] != segments[:-1]
                counts = np.bincount(window_of[first], minlength=n_windows)
                self.segments.append(counts.astype(np.uint8))
            else:
                self.segments.append(
                    distinct(segments, analysis.stream_seg_span(si)))
            staged = None
            if stream.kind == "store" and stream.staged_in_shared:
                index = np.arange(window_of.size) if pairs is None else pairs
                flushed = index * stream.element_bytes // TRACE_SEGMENT_BYTES
                span = int(flushed.max()) + 1 if flushed.size else 1
                staged = distinct(flushed, span)
            self.staged.append(staged)
        self.live = self.mult = self.live_keys = None
        if workload.atomic_targets is not None:
            targets = workload.atomic_targets
            if pairs is not None:
                targets = targets[pairs]
            live_entries = np.flatnonzero(targets >= 0)
            live_targets = targets[live_entries]
            live_windows = window_of[live_entries]
            self.live = np.bincount(
                live_windows, minlength=n_windows
            ).astype(np.uint8)
            mult = np.zeros(n_windows, dtype=np.int64)
            if live_windows.size:
                order = np.lexsort((live_targets, live_windows))
                w, t = live_windows[order], live_targets[order]
                starts = np.flatnonzero(np.concatenate(
                    ([True], (w[1:] != w[:-1]) | (t[1:] != t[:-1]))
                ))
                runs = np.diff(np.append(starts, w.size))
                np.maximum.at(mult, w[starts], runs)
            self.mult = mult.astype(np.uint8)
            _, keys = np.unique(live_targets, return_inverse=True)
            self.live_keys = keys.astype(np.int32)


class WarpWindows(WindowFacts):
    """The warp-window table of one workload: :class:`WindowFacts` over
    every row's own windows.

    Window ``offsets[i] + k`` holds steps ``[32k, 32k + 32)`` of row ``i``
    (a row's last window may be short; zero-trip rows have none).  When a
    block-mapped phase's block size is a multiple of the warp size, lane
    ``j % B`` at loop step ``j // B`` puts steps ``[32k, 32k + 32)`` on
    one warp at one issue slot, whichever block hosts the row and whatever
    ``B`` is — so these facts belong to the workload, and each schedule
    only relabels windows onto warps (window ``k`` of a row hosted by
    block ``b`` issues on warp ``b * B/32 + k % (B/32)``).
    """

    def __init__(self, workload, analysis: "WorkloadAnalysis") -> None:
        trips = workload.trip_counts
        self.n_rows = int(trips.size)
        #: windows per row, and each row's first window id
        self.counts = -(-trips // WINDOW_STEPS)
        self.offsets = np.zeros(trips.size + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        # window of pair p in row i: offsets[i] + (p - pair_offsets[i]) // 32
        base = np.repeat(
            self.offsets[:-1] * WINDOW_STEPS - workload.pair_offsets[:-1],
            trips,
        )
        window_of = (base + np.arange(base.size)) // WINDOW_STEPS
        super().__init__(workload, analysis, window_of, int(self.offsets[-1]))
        #: row of each live atomic, aligned with ``live_keys``
        self.live_rows = None
        if self.live is not None:
            live_pairs = np.flatnonzero(workload.atomic_targets >= 0)
            rows = np.searchsorted(workload.pair_offsets, live_pairs,
                                   side="right") - 1
            self.live_rows = rows.astype(np.int32)

    def windows_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
        """``(window ids, rank k within the row, windows per row)`` of
        ``rows``' windows, concatenated in ``rows`` order."""
        counts = self.counts[rows]
        starts = self.offsets[rows]
        windows = concat_ranges(starts, counts)
        return windows, windows - np.repeat(starts, counts), counts

    def hot_degree(self, rows: np.ndarray) -> int:
        """Most live atomics the pairs of ``rows`` aim at one target (a row
        listed twice counts twice) — the phase-wide hot-address degree."""
        weight = np.bincount(rows, minlength=self.n_rows)[self.live_rows]
        return int(np.bincount(self.live_keys, weights=weight).max())


class BufferWindows(WindowFacts):
    """:class:`WindowFacts` of a buffered pair stream split evenly across
    ``n_blocks`` blocks — dbuf-global's second kernel.

    The rows' pairs are concatenated and cut into contiguous chunks of
    ``ceil(P / n_blocks)``; window ``(block[w], rank[w])`` covers chunk
    positions ``[32 * rank, 32 * rank + 32)`` of its block.  The windows
    depend on the row set and the grid, not on the block size: a block of
    ``B`` threads (a warp multiple) issues window ``rank`` on its warp
    ``rank % (B/32)``.
    """

    def __init__(self, workload, analysis: "WorkloadAnalysis",
                 outer_ids: np.ndarray, n_blocks: int) -> None:
        pairs, _ = workload.pairs_of(outer_ids)
        self.n_pairs = int(pairs.size)
        chunk = max(1, -(-self.n_pairs // n_blocks))
        bounds = np.minimum(
            np.arange(n_blocks + 1, dtype=np.int64) * chunk, self.n_pairs
        )
        per_block = -(-np.diff(bounds) // WINDOW_STEPS)
        offsets = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(per_block, out=offsets[1:])
        position = np.arange(self.n_pairs, dtype=np.int64)
        block = position // chunk
        window_of = offsets[block] + (position - block * chunk) // WINDOW_STEPS
        n_windows = int(offsets[-1])
        self.block = np.repeat(np.arange(n_blocks, dtype=np.int64), per_block)
        self.rank = (np.arange(n_windows, dtype=np.int64)
                     - np.repeat(offsets[:-1], per_block))
        # ascending rows (every lbTHRES partition) list ascending pairs
        ascending = bool(np.all(outer_ids[1:] > outer_ids[:-1]))
        super().__init__(workload, analysis, window_of, n_windows, pairs,
                         ascending)
        self.hot = 0
        if self.live_keys is not None and self.live_keys.size:
            self.hot = int(np.bincount(self.live_keys).max())


class WorkloadAnalysis:
    """Template-independent facts about one :class:`NestedLoopWorkload`.

    Everything here is a pure function of the workload trace, so instances
    are keyed on the workload fingerprint and shared by every template and
    every ``(block size, lbTHRES)`` point.  Threshold partitions and
    per-stream segment ids are memoized on the instance, so they also ride
    along through the disk cache; so is the warp-window table
    (:meth:`warp_windows`), built on first use.

    ``unit_stride[s]`` records whether stream ``s`` reads
    ``base + pair * element_bytes`` for every pair, like the row arrays
    of a CSR loop (``col[row_start + j]``).  The mapping layer counts such
    streams without expanding pairs or sorting; an all-False record is
    always exact, since every stream then takes the per-pair path.
    """

    def __init__(self, fingerprint: str, trip_counts: np.ndarray,
                 stream_segments: list[np.ndarray],
                 unit_stride: tuple[bool, ...]) -> None:
        self.fingerprint = fingerprint
        self.outer_size = int(trip_counts.size)
        self.n_pairs = int(trip_counts.sum())
        #: stable ascending-trip order of the outer iterations
        self.order = np.argsort(trip_counts, kind="stable")
        self.sorted_trips = trip_counts[self.order]
        #: trip-count histogram: distinct trip values and their frequencies
        self.trip_values, self.trip_freqs = np.unique(
            trip_counts, return_counts=True
        )
        #: per-stream global-memory segment ids (addresses // 128), pair order
        self._segments = stream_segments
        self.unit_stride = unit_stride
        self._partitions: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._trip_cumsum: np.ndarray | None = None
        self._seg_spans: dict[int, int] = {}
        self._windows: WarpWindows | None = None
        self._buffer_windows: dict[tuple, BufferWindows] = {}

    def trip_summary(self) -> tuple[int, int, int, int]:
        """``(count, total, lo, hi)`` of the inner loop — the trip-count
        metadata the parallelization IR carries (see :mod:`repro.ir`)."""
        lo = int(self.sorted_trips[0]) if self.outer_size else 0
        hi = int(self.sorted_trips[-1]) if self.outer_size else 0
        return (self.outer_size, self.n_pairs, lo, hi)

    def split_counts(self, threshold: int) -> tuple[int, int, int, int]:
        """``(n_small, n_large, pairs_small, pairs_large)`` of the lbTHRES
        partition at ``threshold`` — the sizes without the id arrays.

        Derived from the precomputed sorted order (one binary search plus
        a memoized prefix sum), so the IR promotion pass can weigh a
        threshold without materializing :meth:`partition`'s index arrays.
        Consistent with :meth:`partition`: large iff ``f(i) > threshold``.
        """
        if self._trip_cumsum is None:
            self._trip_cumsum = np.concatenate(
                ([0], np.cumsum(self.sorted_trips))
            )
        k = int(np.searchsorted(self.sorted_trips, int(threshold), side="right"))
        pairs_small = int(self._trip_cumsum[k])
        return (k, self.outer_size - k, pairs_small, self.n_pairs - pairs_small)

    @classmethod
    def from_workload(cls, workload) -> "WorkloadAnalysis":
        """Analyze a workload (the expensive, once-per-fingerprint path)."""
        segments = [
            stream.addresses // TRACE_SEGMENT_BYTES
            for stream in workload.streams
        ]
        unit = tuple(_is_unit_stride(stream) for stream in workload.streams)
        return cls(workload.fingerprint(), workload.trip_counts, segments,
                   unit)

    def partition(self, threshold: int) -> tuple[np.ndarray, np.ndarray]:
        """``(small, large)`` outer ids — large iff ``f(i) > threshold``.

        Identical to :func:`~repro.core.dual_queue.split_by_threshold`
        (both ascending id order), but derived from the precomputed sorted
        order: one binary search plus two subset sorts instead of two
        full-array comparisons per candidate threshold.  Memoized per
        threshold — exactly the values an autotune sweep revisits.
        """
        threshold = int(threshold)
        cached = self._partitions.get(threshold)
        if cached is None:
            k = int(np.searchsorted(self.sorted_trips, threshold, side="right"))
            cached = (np.sort(self.order[:k]), np.sort(self.order[k:]))
            self._partitions[threshold] = cached
        return cached

    def stream_segments(self, stream_index: int) -> np.ndarray:
        """Precomputed segment ids of one access stream (pair order)."""
        return self._segments[stream_index]

    def stream_seg_span(self, stream_index: int) -> int:
        """Segment-id span (max + 1) of one stream, memoized.

        Every subset of the stream stays below this bound, so the mapping
        layer can hand it to :func:`~repro.gpusim.coalesce.transaction_counts`
        as a trusted span instead of re-scanning the subset per parameter
        point.
        """
        span = self._seg_spans.get(stream_index)
        if span is None:
            segments = self._segments[stream_index]
            span = int(segments.max()) + 1 if segments.size else 1
            self._seg_spans[stream_index] = span
        return span

    def warp_windows(self, workload, block_size: int,
                     warp_size: int) -> WarpWindows | None:
        """The warp-window table, or None when a block-mapped phase with
        this block and warp size does not issue whole windows (the
        mapping layer then costs the phase per pair).

        Built on first use (one sort per access stream) and memoized;
        ``workload`` must be the trace this analysis describes.
        """
        if not _issues_whole_windows(block_size, warp_size):
            return None
        if self._windows is None:
            self._windows = WarpWindows(workload, self)
        return self._windows

    def buffer_windows(self, workload, outer_ids: np.ndarray, n_blocks: int,
                       block_size: int, warp_size: int) -> BufferWindows | None:
        """The :class:`BufferWindows` of ``outer_ids`` split across
        ``n_blocks`` blocks, or None under the same warp-multiple condition
        as :meth:`warp_windows`.  Memoized per (row set, grid): an
        ``lb_block`` sweep that keeps the grid reuses one entry."""
        if not _issues_whole_windows(block_size, warp_size):
            return None
        memo = self._buffer_windows
        rows = np.ascontiguousarray(outer_ids, dtype=np.int64)
        key = (hashlib.blake2b(rows.tobytes(), digest_size=16).digest(),
               int(n_blocks))
        entry = memo.get(key)
        if entry is None:
            entry = BufferWindows(workload, self, rows, n_blocks)
            with _BUFFER_WINDOWS_LOCK:
                if len(memo) >= _MAX_BUFFER_WINDOWS:
                    memo.pop(next(iter(memo)))
                memo[key] = entry
        return entry


class TreeAnalysis:
    """Template-independent structure of one :class:`RecursiveTreeWorkload`.

    Per-node facts the tree templates would otherwise re-derive per
    build: out-degrees, the internal-node set and its nested-launch
    fan-out (rec-naive), per-node sibling ranks and child-degree sums and
    the launch owners (rec-hier).  Each is one vector pass over the BFS
    arrays (children are ``1 .. n-1``, so node ``i``'s children are ids
    ``child_offsets[i] + 1 .. child_offsets[i + 1]``).  The flat
    template's ancestor walk needs no stored facts: it reads the level
    structure (see :class:`~repro.core.recursive.FlatTreeTemplate`).
    """

    def __init__(self, fingerprint: str, tree) -> None:
        self.fingerprint = fingerprint
        n = tree.n_nodes
        self.n_nodes = n
        co = tree.child_offsets
        self.degrees = tree.out_degrees
        self.internal = np.flatnonzero(self.degrees > 0)
        #: number of internal children of each internal node (rec-naive
        #: spawn count)
        self.spawns = np.bincount(tree.parents[self.internal[1:]],
                                  minlength=n)[self.internal]
        #: rank of each node among its siblings (child-slice position)
        self.sibling_rank = np.zeros(n, dtype=np.int64)
        self.sibling_rank[1:] = np.arange(n - 1) - co[tree.parents[1:]]
        #: sum of the children's degrees (grandchild count) per node: the
        #: degrees of nodes ``0 .. k-1`` sum to ``child_offsets[k]``
        self.child_deg_sum = co[co[1:] + 1] - co[co[:-1] + 1]
        #: nodes owning a rec-hier launch (have grandchildren, plus root)
        owns = self.child_deg_sum > 0
        owns[0] = True
        self.needs_launch = np.flatnonzero(owns)

    @classmethod
    def from_workload(cls, workload) -> "TreeAnalysis":
        """Analyze a tree workload (once per fingerprint)."""
        return cls(workload.fingerprint(), workload.tree)

    def structure_summary(self) -> dict[str, int]:
        """Plain-int structural facts for the parallelization IR build.

        ``children``: instances/total/lo/hi of the per-internal-node child
        loop (rec-naive's launch unit); ``grandchildren``: the same for
        the per-launch-owner grandchild loop (rec-hier's launch unit).
        """
        internal_deg = self.degrees[self.internal]
        launch_deg = self.child_deg_sum[self.needs_launch]
        return {
            "n_nodes": int(self.n_nodes),
            "n_internal": int(self.internal.size),
            "children_total": int(internal_deg.sum()),
            "children_lo": int(internal_deg.min()) if internal_deg.size else 0,
            "children_hi": int(internal_deg.max()) if internal_deg.size else 0,
            "n_launch_owners": int(self.needs_launch.size),
            "grandchildren_total": int(launch_deg.sum()),
            "grandchildren_lo": int(launch_deg.min()) if launch_deg.size else 0,
            "grandchildren_hi": int(launch_deg.max()) if launch_deg.size else 0,
        }


def _get(workload, kind: str, factory) -> object:
    """Memory, then disk, then ``factory(workload)``: a mutated snapshot
    is analysed like any workload never seen before."""
    def build():
        with obs.span("analysis.build", kind=kind,
                      workload=getattr(workload, "name", "?")):
            return factory(workload)

    key = (kind, workload.fingerprint())
    return tiered_cache().fetch("analysis", key, build)[0]


def get_analysis(workload) -> WorkloadAnalysis:
    """The (cached) analysis artifact of a nested-loop workload."""
    return _get(workload, "nested", WorkloadAnalysis.from_workload)


def get_tree_analysis(workload) -> TreeAnalysis:
    """The (cached) analysis artifact of a recursive tree workload."""
    return _get(workload, "tree", TreeAnalysis.from_workload)


def analysis_stats() -> dict[str, int]:
    """Analysis cache counters: memory hits and misses, and disk hits."""
    stats = tiered_cache().stats
    return {
        "hits": stats["analysis", "memory"].hits,
        "misses": stats["analysis", "memory"].misses,
        "disk_hits": stats["analysis", "disk"].hits,
    }


def clear_analysis_cache(reset_stats: bool = False) -> None:
    """Drop cached analyses from memory (optionally also the counters)."""
    tiered_cache().clear("analysis", reset_stats)
