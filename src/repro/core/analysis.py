"""Workload-invariant analysis, computed once per workload fingerprint.

Every nested-loop template schedules the *same* iteration-space facts —
trip-count statistics, the sorted-degree order behind every ``lbTHRES``
partition, per-stream memory-segment ids — and every tree template walks
the same structural arrays (degrees, sibling ranks, ancestor hop chains).
This module hoists those facts out of the per-``(template, params)`` build
path into a :class:`WorkloadAnalysis` / :class:`TreeAnalysis` artifact
keyed on the workload fingerprint alone, so a parameter sweep over N
points computes them once and the cheap ``specialize`` stage assembles the
remaining launch graph N times.  The warp-window table
(:class:`WarpWindows`) carries the same idea into the cost model: the
per-issue-slot memory and atomic facts of block-mapped phases are computed
once per workload, and each schedule only relabels them onto warps.

Artifacts are cached twice: in a process-wide in-memory map, and (when a
cache directory is configured) in the ``analysis`` tier of the disk-backed
:mod:`~repro.core.artifactcache`, where bench ``--jobs`` workers and
service pool processes share them.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from repro import obs
from repro.core.artifactcache import get_artifact_cache
from repro.core.mutation import TRACE_SEGMENT_BYTES, splice
from repro.errors import WorkloadError
from repro.gpusim.coalesce import transaction_counts
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

#: segment size used by the pair-trace coalescing model (see
#: ``core.mapping._apply_streams`` — Kepler L1-cached accesses); shared
#: with the mutation layer, which precomputes inserted pairs' segment ids
_TRACE_SEGMENT_BYTES = TRACE_SEGMENT_BYTES

#: apply_delta bails to a from-scratch rebuild when a delta touches more
#: than this fraction of the rows or pairs — beyond it the O(delta · log n)
#: splices stop beating the O(n log n) rebuild
REBUILD_FRACTION = 0.25

#: delta-chain hops walked before giving up on lineage resolution
_MAX_CHAIN = 32

#: chains at least this long re-anchor the resolved analysis into the
#: disk ``analysis`` tier (chain compaction: future walks stay short)
_COMPACT_AFTER = 4

#: shared empty index array for insert-only splice calls
_NO_DELETES = np.empty(0, dtype=np.int64)

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


class WindowFacts:
    """Per-window work facts of a pair stream cut into warp windows.

    ``window_of[e]`` names the window of stream entry ``e``, and ``pairs``
    its global pair index (None: entry ``e`` is pair ``e``).  One window is
    one warp issue slot, so these are exactly the per-slot facts the cost
    model reads.  Per window:

    * ``segments[s]`` — distinct 128-byte segments of access stream ``s``;
    * ``staged[s]`` — the same for a staged store stream flushed from
      shared memory in pair order (``pair * element_bytes``); None for
      every other stream;
    * ``live`` / ``mult`` — live atomics, and the most of them aimed at
      one target (both None for workloads without atomics).

    A window holds at most 32 entries, so every count fits in ``uint8``.
    ``live_keys`` gives each live atomic, in entry order, a dense target
    id, for the phase-wide hottest-target statistic.
    """

    def __init__(self, workload, analysis: "WorkloadAnalysis",
                 window_of: np.ndarray, n_windows: int,
                 pairs: np.ndarray | None = None) -> None:
        def distinct(segments: np.ndarray, span: int) -> np.ndarray:
            return transaction_counts(
                window_of, window_of, None, n_windows, agg_divisor=1,
                segments=segments, spans=(n_windows, span),
            ).astype(np.uint8)

        self.segments: list[np.ndarray] = []
        self.staged: list[np.ndarray | None] = []
        for si, stream in enumerate(workload.streams):
            segments = analysis.stream_segments(si)
            self.segments.append(distinct(
                segments if pairs is None else segments[pairs],
                analysis.stream_seg_span(si),
            ))
            staged = None
            if stream.kind == "store" and stream.staged_in_shared:
                index = np.arange(window_of.size) if pairs is None else pairs
                flushed = index * stream.element_bytes // _TRACE_SEGMENT_BYTES
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
        super().__init__(workload, analysis, window_of, n_windows, pairs)
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
    """

    def __init__(self, fingerprint: str, trip_counts: np.ndarray,
                 stream_segments: list[np.ndarray]) -> None:
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
        # getattr: instances unpickled from a pre-IR disk cache lack the slot
        if getattr(self, "_trip_cumsum", None) is None:
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
            stream.addresses // _TRACE_SEGMENT_BYTES
            for stream in workload.streams
        ]
        return cls(workload.fingerprint(), workload.trip_counts, segments)

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
        # getattr: instances unpickled from an older disk cache lack the slot
        spans = getattr(self, "_seg_spans", None)
        if spans is None:
            spans = self._seg_spans = {}
        span = spans.get(stream_index)
        if span is None:
            segments = self._segments[stream_index]
            span = int(segments.max()) + 1 if segments.size else 1
            spans[stream_index] = span
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
        # getattr: instances unpickled from an older disk cache lack the slot
        table = getattr(self, "_windows", None)
        if table is None:
            table = self._windows = WarpWindows(workload, self)
        return table

    def buffer_windows(self, workload, outer_ids: np.ndarray, n_blocks: int,
                       block_size: int, warp_size: int) -> BufferWindows | None:
        """The :class:`BufferWindows` of ``outer_ids`` split across
        ``n_blocks`` blocks, or None under the same warp-multiple condition
        as :meth:`warp_windows`.  Memoized per (row set, grid): an
        ``lb_block`` sweep that keeps the grid reuses one entry."""
        if not _issues_whole_windows(block_size, warp_size):
            return None
        memo = getattr(self, "_buffer_windows", None)
        if memo is None:
            memo = self._buffer_windows = {}
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

    def apply_delta(self, delta) -> "WorkloadAnalysis | None":
        """Derive the child analysis from a
        :class:`~repro.core.mutation.MutationDelta`, without rebuilding.

        Returns a *new* instance (``self`` may be cached and shared —
        it is never mutated), or ``None`` when the delta touches more
        than :data:`REBUILD_FRACTION` of the rows or pairs, in which case
        the caller should rebuild from scratch (the ``delta_fallbacks``
        counter).  Every derived fact is updated so the result is
        bit-identical to ``from_workload`` on the mutated trace:

        * trip histogram — signed merge of decrements (old trips of
          changed rows) and increments (new trips of changed + added
          rows), keeping only positive frequencies;
        * sorted-degree order — a stable argsort equals sorting by
          ``(trip, id)``, so changed entries are masked out and all
          changed/added entries re-inserted at their ``(trip, id)``
          positions via binary search;
        * memoized lbTHRES partitions — per memoized threshold, changed
          ids are masked out of both sides and re-inserted (with the
          added ids) on the side their new trip selects, ascending;
        * per-stream segment ids — the same ``(deleted, inserted)``
          pair-splice the workload commit ran over its address arrays;
        * window tables — dropped, and rebuilt from the mutated trace on
          first use.
        """
        if delta.parent_fingerprint != self.fingerprint:
            raise WorkloadError(
                "delta parent fingerprint does not match this analysis "
                f"({delta.parent_fingerprint[:8]}… vs {self.fingerprint[:8]}…)"
            )
        rows_frac, pairs_frac = delta.touch_fractions(self.n_pairs)
        if max(rows_frac, pairs_frac) > REBUILD_FRACTION:
            return None

        changed = delta.changed
        ins_ids = np.concatenate([changed, delta.added])
        ins_trips = np.concatenate([delta.changed_new, delta.added_trips])

        # ids are dense (< outer_before), so membership tests are O(1)
        # lookups into a per-delta flag array instead of np.isin sorts
        changed_flag = np.zeros(int(delta.outer_before), dtype=bool)
        changed_flag[changed] = True

        # ---- sorted-degree order: mask out changed, re-insert by (trip, id)
        if changed.size:
            keep = np.flatnonzero(~changed_flag[self.order])
            keep_order = self.order[keep]
            keep_trips = self.sorted_trips[keep]
        else:
            keep_order = self.order.copy()
            keep_trips = self.sorted_trips.copy()
        if ins_ids.size:
            lex = np.lexsort((ins_ids, ins_trips))
            sorted_ids = ins_ids[lex]
            sorted_ins_trips = ins_trips[lex]
            max_trip = int(max(keep_trips.max(initial=0),
                               sorted_ins_trips.max(initial=0)))
            if max_trip < (1 << 31) and delta.outer_after < (1 << 31):
                # one vectorized search over the combined (trip, id) key
                keep_keys = (keep_trips << 31) | keep_order
                ins_keys = (sorted_ins_trips << 31) | sorted_ids
                positions = np.searchsorted(keep_keys, ins_keys)
            else:  # keys would overflow int64: per-entry two-level search
                positions = np.empty(sorted_ids.size, dtype=np.int64)
                for j in range(sorted_ids.size):
                    trip = sorted_ins_trips[j]
                    lo = int(np.searchsorted(keep_trips, trip, side="left"))
                    hi = int(np.searchsorted(keep_trips, trip, side="right"))
                    positions[j] = lo + int(
                        np.searchsorted(keep_order[lo:hi], sorted_ids[j])
                    )
            new_order = splice(keep_order, _NO_DELETES, positions, sorted_ids)
            new_sorted = splice(keep_trips, _NO_DELETES, positions,
                                sorted_ins_trips)
        else:
            new_order, new_sorted = keep_order, keep_trips

        # ---- trip histogram: signed merge, keep positive frequencies
        values = [self.trip_values]
        counts = [self.trip_freqs]
        if changed.size:
            dec_v, dec_c = np.unique(delta.changed_old, return_counts=True)
            values.append(dec_v)
            counts.append(-dec_c)
        if ins_ids.size:
            inc_v, inc_c = np.unique(ins_trips, return_counts=True)
            values.append(inc_v)
            counts.append(inc_c)
        all_values = np.concatenate(values)
        all_counts = np.concatenate(counts).astype(np.int64)
        uniq, inverse = np.unique(all_values, return_inverse=True)
        freqs = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(freqs, inverse, all_counts)
        positive = freqs > 0

        child = WorkloadAnalysis.__new__(WorkloadAnalysis)
        child.fingerprint = delta.fingerprint
        child.outer_size = int(delta.outer_after)
        child.n_pairs = self.n_pairs - delta.n_deleted + delta.n_inserted
        child.order = new_order
        child.sorted_trips = new_sorted
        child.trip_values = uniq[positive]
        child.trip_freqs = freqs[positive]
        child._segments = [
            splice(seg, delta.deleted_pairs, delta.insert_positions,
                   delta.insert_segments[k])
            for k, seg in enumerate(self._segments)
        ]
        child._partitions = {}
        for threshold, (small, large) in self._partitions.items():
            if changed.size:
                small = small[~changed_flag[small]]
                large = large[~changed_flag[large]]
            if ins_ids.size:
                goes_small = ins_trips <= threshold
                small_ids = np.sort(ins_ids[goes_small])
                large_ids = np.sort(ins_ids[~goes_small])
                if small_ids.size:
                    small = splice(small, _NO_DELETES,
                                   np.searchsorted(small, small_ids),
                                   small_ids)
                if large_ids.size:
                    large = splice(large, _NO_DELETES,
                                   np.searchsorted(large, large_ids),
                                   large_ids)
            child._partitions[threshold] = (small, large)
        child._trip_cumsum = None
        child._seg_spans = {}
        child._windows = None
        child._buffer_windows = {}
        return child


class TreeAnalysis:
    """Template-independent structure of one :class:`RecursiveTreeWorkload`.

    Covers what all three tree templates re-derive per build: out-degrees,
    the internal-node set and its nested-launch fan-out (rec-naive),
    per-node sibling ranks and child-degree sums (rec-hier), and the full
    ancestor hop chain the flat template's atomic model walks.
    """

    def __init__(self, fingerprint: str, tree) -> None:
        self.fingerprint = fingerprint
        n = tree.n_nodes
        self.n_nodes = n
        self.degrees = tree.out_degrees
        self.internal = np.flatnonzero(self.degrees > 0)
        #: number of internal children of each node (rec-naive spawn count)
        child_internal = np.zeros(n, dtype=np.int64)
        if self.internal.size:
            non_root = self.internal[self.internal != 0]
            np.add.at(child_internal, tree.parents[non_root], 1)
        self.spawns = child_internal[self.internal]
        #: rank of each node among its siblings (child-slice position)
        self.sibling_rank = np.zeros(n, dtype=np.int64)
        if self.internal.size:
            ranks = np.concatenate([
                np.arange(deg, dtype=np.int64)
                for deg in self.degrees[self.degrees > 0].tolist()
            ])
            self.sibling_rank[tree.children] = ranks
        #: sum of the children's degrees (grandchild count) per node
        self.child_deg_sum = np.zeros(n, dtype=np.int64)
        if n > 1:
            np.add.at(self.child_deg_sum, tree.parents[1:], self.degrees[1:])
        needs = np.flatnonzero(self.child_deg_sum > 0)
        if 0 not in needs:
            needs = np.union1d(needs, np.array([0]))
        #: nodes owning a rec-hier launch (have grandchildren, plus root)
        self.needs_launch = needs
        # ancestor-chain walk: hop k of node v touches its k-th ancestor
        hop_nodes: list[np.ndarray] = []
        hop_ancestors: list[np.ndarray] = []
        hop_ids: list[np.ndarray] = []
        current = tree.parents.copy()
        hop = 0
        alive = np.flatnonzero(current >= 0)
        while alive.size:
            hop_nodes.append(alive)
            hop_ancestors.append(current[alive])
            hop_ids.append(np.full(alive.size, hop, dtype=np.int64))
            nxt = np.full(n, -1, dtype=np.int64)
            nxt[alive] = tree.parents[current[alive]]
            current = nxt
            alive = np.flatnonzero(current >= 0)
            hop += 1
        if hop_nodes:
            self.hop_nodes = np.concatenate(hop_nodes)
            self.hop_ancestors = np.concatenate(hop_ancestors)
            self.hop_ids = np.concatenate(hop_ids)
            self.ancestor_counts = np.bincount(self.hop_ancestors, minlength=n)
        else:
            self.hop_nodes = np.zeros(0, dtype=np.int64)
            self.hop_ancestors = np.zeros(0, dtype=np.int64)
            self.hop_ids = np.zeros(0, dtype=np.int64)
            self.ancestor_counts = np.zeros(n, dtype=np.int64)
        #: segment ids of the 8-byte parent-pointer loads along the chain
        self.hop_segments = (self.hop_ancestors * 8) // _TRACE_SEGMENT_BYTES

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


#: in-memory analysis store: fingerprint -> analysis artifact
_memory: dict[str, object] = {}
_stats = {"hits": 0, "misses": 0, "disk_hits": 0,
          "incremental_hits": 0, "delta_fallbacks": 0}
#: keep the in-memory map bounded; analyses are a few arrays each
_MAX_ENTRIES = 256


def _memoize(fingerprint: str, analysis: object) -> None:
    if len(_memory) >= _MAX_ENTRIES:
        _memory.pop(next(iter(_memory)))
    _memory[fingerprint] = analysis


def _resolve_incremental(workload, fingerprint: str, disk):
    """Nearest-ancestor resolution over the mutation lineage.

    Walks the delta chain child → parent (the workload's in-object
    ``lineage`` first, then the disk ``lineage`` tier) until it reaches a
    fingerprint whose analysis is already known (memory or disk), then
    replays the deltas forward with :meth:`WorkloadAnalysis.apply_delta`.
    Returns ``None`` when no ancestor is reachable within ``_MAX_CHAIN``
    hops or a delta exceeds the rebuild threshold — the caller falls back
    to a from-scratch build.
    """
    local = {
        delta.fingerprint: delta
        for delta in getattr(workload, "lineage", None) or ()
    }
    chain = []
    ancestor = None
    current = fingerprint
    while len(chain) < _MAX_CHAIN:
        delta = local.get(current)
        if delta is None and disk is not None:
            delta = disk.get("lineage", current)
        if delta is None or delta.fingerprint != current:
            break
        chain.append(delta)
        current = delta.parent_fingerprint
        ancestor = _memory.get(current)
        if ancestor is None and disk is not None:
            ancestor = disk.get("analysis", ("nested", current))
        if ancestor is not None:
            break
    if ancestor is None or not isinstance(ancestor, WorkloadAnalysis):
        if chain:
            _stats["delta_fallbacks"] += 1
            if obs.enabled():
                obs.add_counter("analysis.delta_fallbacks")
        return None
    analysis = ancestor
    with obs.span("analysis.apply_delta", hops=len(chain),
                  workload=getattr(workload, "name", "?")):
        for delta in reversed(chain):
            analysis = analysis.apply_delta(delta)
            if analysis is None:
                _stats["delta_fallbacks"] += 1
                if obs.enabled():
                    obs.add_counter("analysis.delta_fallbacks")
                return None
            _stats["incremental_hits"] += 1
            if obs.enabled():
                obs.add_counter("analysis.incremental_hits")
            # intermediate fingerprints are live snapshot versions in the
            # serving layer — memoize the whole replayed prefix
            _memoize(delta.fingerprint, analysis)
    if disk is not None and len(chain) >= _COMPACT_AFTER:
        # chain compaction: re-anchor a full artifact so future walks
        # (and other processes) stop after one hop
        disk.put("analysis", ("nested", fingerprint), analysis)
    return analysis


def _get(workload, kind: str, factory) -> object:
    fingerprint = workload.fingerprint()
    cached = _memory.get(fingerprint)
    if cached is not None:
        _stats["hits"] += 1
        if obs.enabled():
            obs.add_counter("analysis_cache.hits")
        return cached
    _stats["misses"] += 1
    if obs.enabled():
        obs.add_counter("analysis_cache.misses")
    disk = get_artifact_cache()
    disk_key = (kind, fingerprint)
    analysis = disk.get("analysis", disk_key) if disk is not None else None
    if analysis is not None:
        _stats["disk_hits"] += 1
    if analysis is None and kind == "nested":
        analysis = _resolve_incremental(workload, fingerprint, disk)
    if analysis is None:
        with obs.span("analysis.build", kind=kind,
                      workload=getattr(workload, "name", "?")):
            analysis = factory(workload)
        if disk is not None:
            disk.put("analysis", disk_key, analysis)
    _memoize(fingerprint, analysis)
    return analysis


def get_analysis(workload) -> WorkloadAnalysis:
    """The (cached) analysis artifact of a nested-loop workload."""
    return _get(workload, "nested", WorkloadAnalysis.from_workload)


def get_tree_analysis(workload) -> TreeAnalysis:
    """The (cached) analysis artifact of a recursive tree workload."""
    return _get(workload, "tree", TreeAnalysis.from_workload)


def analysis_stats() -> dict[str, int]:
    """Copy of the in-memory analysis-cache counters."""
    return dict(_stats)


def clear_analysis_cache(reset_stats: bool = False) -> None:
    """Drop cached analyses (optionally also the counters)."""
    _memory.clear()
    if reset_stats:
        for k in _stats:
            _stats[k] = 0
