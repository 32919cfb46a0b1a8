"""Global-memory coalescing model.

Kepler GPUs service a warp's global loads/stores by breaking the 32 lane
addresses into aligned memory segments (128 bytes through L1).  The number
of segments actually transferred, versus the bytes the warp requested, is
what the Visual Profiler reports as *gld/gst efficiency* — two of the three
metrics in the paper's Table I.

This module computes segment counts **exactly** from lane address arrays,
fully vectorized: callers hand in an ``(n_warps, warp_size)`` byte-address
matrix plus an activity mask and get per-warp transaction counts back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "segment_transactions",
    "transactions_for_flat",
    "contiguous_transactions",
    "transaction_counts",
    "MemoryTraffic",
    "TRACE_SEGMENT_BYTES",
]

#: segment size of the nested-loop pair trace (the L1 path above): the
#: analysis stores each stream's ``address // TRACE_SEGMENT_BYTES``
TRACE_SEGMENT_BYTES = 128


@dataclass
class MemoryTraffic:
    """Aggregate result of a set of warp-level memory accesses.

    ``requested_bytes`` is what the active lanes asked for;
    ``transferred_bytes`` is ``transactions * segment_bytes``.  Their ratio
    is the load/store efficiency metric reported by the profiler.
    """

    requested_bytes: int = 0
    transactions: int = 0
    segment_bytes: int = 128

    @property
    def transferred_bytes(self) -> int:
        """Bytes actually moved across the memory interface."""
        return self.transactions * self.segment_bytes

    @property
    def efficiency(self) -> float:
        """Requested / transferred bytes (1.0 = perfectly coalesced)."""
        if self.transactions == 0:
            return 1.0
        return self.requested_bytes / self.transferred_bytes

    def merge(self, other: "MemoryTraffic") -> "MemoryTraffic":
        """Combine two traffic records (segment sizes must agree;
        an empty record adopts the other's segment size)."""
        if self.requested_bytes == 0 and self.transactions == 0:
            return MemoryTraffic(
                other.requested_bytes, other.transactions, other.segment_bytes
            )
        if other.requested_bytes == 0 and other.transactions == 0:
            return MemoryTraffic(
                self.requested_bytes, self.transactions, self.segment_bytes
            )
        if other.segment_bytes != self.segment_bytes:
            raise WorkloadError(
                "cannot merge MemoryTraffic with different segment sizes "
                f"({self.segment_bytes} vs {other.segment_bytes})"
            )
        return MemoryTraffic(
            requested_bytes=self.requested_bytes + other.requested_bytes,
            transactions=self.transactions + other.transactions,
            segment_bytes=self.segment_bytes,
        )


def segment_transactions(
    addresses: np.ndarray,
    active: np.ndarray | None = None,
    segment_bytes: int = 128,
) -> np.ndarray:
    """Per-warp transaction counts for one warp-wide access.

    Parameters
    ----------
    addresses:
        ``(n_warps, lanes)`` integer byte addresses, one row per warp.
    active:
        optional boolean mask of the same shape; inactive lanes issue no
        address.  Defaults to all-active.
    segment_bytes:
        memory segment size (128 for Kepler L1-cached accesses).

    Returns
    -------
    ``(n_warps,)`` int64 array: number of distinct segments each warp
    touches (0 for fully inactive warps).
    """
    addresses = np.asarray(addresses)
    if addresses.ndim != 2:
        raise WorkloadError(
            f"addresses must be 2-D (warps x lanes), got shape {addresses.shape}"
        )
    if segment_bytes <= 0:
        raise WorkloadError(f"segment_bytes must be positive, got {segment_bytes}")
    if addresses.size == 0:
        return np.zeros(addresses.shape[0], dtype=np.int64)
    if np.any(addresses < 0):
        raise WorkloadError("negative byte addresses are invalid")

    segments = addresses // segment_bytes
    if active is not None:
        active = np.asarray(active, dtype=bool)
        if active.shape != addresses.shape:
            raise WorkloadError(
                f"active mask shape {active.shape} does not match addresses "
                f"shape {addresses.shape}"
            )
        # Send inactive lanes to a sentinel that sorts first and is never a
        # valid segment id.
        segments = np.where(active, segments, np.int64(-1))
    else:
        segments = segments.astype(np.int64, copy=False)

    ordered = np.sort(segments, axis=1)
    # A segment is counted where it differs from its left neighbour; the
    # first column counts iff it is a real (non-sentinel) segment.
    first = (ordered[:, :1] >= 0).astype(np.int64)
    diffs = (ordered[:, 1:] != ordered[:, :-1]) & (ordered[:, 1:] >= 0)
    return first[:, 0] + diffs.sum(axis=1, dtype=np.int64)


def transactions_for_flat(
    addresses: np.ndarray,
    lanes_per_warp: int = 32,
    segment_bytes: int = 128,
) -> np.ndarray:
    """Transaction counts for a flat address stream chunked into warps.

    ``addresses`` is a 1-D array of byte addresses issued by consecutive
    lanes; lane ``k`` belongs to warp ``k // lanes_per_warp``.  The trailing
    partial warp is padded with inactive lanes.
    """
    addresses = np.asarray(addresses)
    if addresses.ndim != 1:
        raise WorkloadError(f"addresses must be 1-D, got shape {addresses.shape}")
    n = addresses.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    n_warps = -(-n // lanes_per_warp)
    padded = np.zeros(n_warps * lanes_per_warp, dtype=np.int64)
    padded[:n] = addresses
    active = np.zeros(n_warps * lanes_per_warp, dtype=bool)
    active[:n] = True
    return segment_transactions(
        padded.reshape(n_warps, lanes_per_warp),
        active.reshape(n_warps, lanes_per_warp),
        segment_bytes,
    )


def transaction_counts(
    agg_ids: np.ndarray,
    group_ids: np.ndarray,
    addresses: np.ndarray | None,
    n_agg: int,
    segment_bytes: int = 128,
    agg_divisor: int | None = None,
    segments: np.ndarray | None = None,
    spans: tuple[int, int] | None = None,
) -> np.ndarray:
    """Exact transaction counts for an entire loop nest in one pass.

    Each entry describes one lane-level access: ``group_ids[k]`` identifies
    the (warp, loop-step) issue slot the access belongs to, ``agg_ids[k]``
    the bucket to aggregate into (typically the warp or the block), and
    ``addresses[k]`` the byte address.  The hardware coalesces accesses that
    share a *group* into segments, so the transaction count is the number of
    distinct ``(group, segment)`` pairs; this function returns that count
    summed per aggregation bucket as an ``(n_agg,)`` int64 array.

    This closed single-pass formulation is what lets the simulator model
    megabyte-scale CSR traversals exactly without a per-step Python loop.
    ``agg_ids`` must be a function of ``group_ids`` (all accesses of one
    group aggregate to the same bucket), which holds by construction when
    groups are (warp, step) slots and buckets are warps or blocks.

    When the function is the integer division ``agg_id == group_id //
    agg_divisor`` — true for every caller that encodes groups as
    ``agg * n_slots + slot`` — pass ``agg_divisor``: the count can then be
    recovered from a plain value sort of the packed (group, segment) keys,
    which is several times faster than the index-tracking sort the general
    path needs.

    ``segments`` optionally supplies precomputed segment ids (``addresses
    // segment_bytes``) — the workload-analysis stage caches these per
    stream so repeated specializations skip the division over the full
    trace; ``addresses`` may then be None.

    ``spans`` optionally supplies trusted ``(group_span, seg_span)`` upper
    bounds (every group id < group_span, every segment id < seg_span).
    The counts are independent of the exact span values, so callers that
    know the bounds from the mapping structure (``n_warps * slots``) and
    the analysis artifact skip six full-trace reductions of validation and
    span discovery; the inputs are then trusted to be non-negative.
    """
    agg_ids = np.asarray(agg_ids, dtype=np.int64)
    group_ids = np.asarray(group_ids, dtype=np.int64)
    if segments is None:
        if addresses is None:
            raise WorkloadError("either addresses or segments is required")
        values = np.asarray(addresses, dtype=np.int64)
    else:
        values = np.asarray(segments, dtype=np.int64)
    if not (agg_ids.shape == group_ids.shape == values.shape) or agg_ids.ndim != 1:
        raise WorkloadError(
            "agg_ids, group_ids and addresses must be 1-D arrays of equal length"
        )
    if n_agg < 0:
        raise WorkloadError("n_agg cannot be negative")
    if agg_divisor is not None and agg_divisor <= 0:
        raise WorkloadError("agg_divisor must be positive")
    if agg_ids.size == 0:
        return np.zeros(n_agg, dtype=np.int64)
    if spans is None:
        # min/max reductions instead of np.any(x < 0): no boolean
        # temporaries on these million-entry traces, and the maxima are
        # needed below anyway.
        if int(values.min()) < 0 or int(group_ids.min()) < 0 or int(agg_ids.min()) < 0:
            raise WorkloadError("ids and addresses must be non-negative")
        if int(agg_ids.max()) >= n_agg:
            raise WorkloadError("agg_ids out of range for n_agg")

    segments = values // segment_bytes if segments is None else values
    if spans is not None:
        group_span, seg_span = int(spans[0]), int(spans[1])
    else:
        seg_span = int(segments.max()) + 1
        group_span = int(group_ids.max()) + 1
    if group_span * seg_span < 2**62:
        keys = group_ids * seg_span + segments
        if agg_divisor is not None:
            ordered = np.sort(keys)
            is_first = np.empty(ordered.shape[0], dtype=bool)
            is_first[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=is_first[1:])
            agg_of_key = ordered[is_first] // (seg_span * agg_divisor)
            return np.bincount(agg_of_key, minlength=n_agg).astype(np.int64)
        _, first_index = np.unique(keys, return_index=True)
    else:  # fall back to lexicographic unique on the pair
        order = np.lexsort((segments, group_ids))
        g, s = group_ids[order], segments[order]
        is_first = np.ones(g.shape[0], dtype=bool)
        is_first[1:] = (g[1:] != g[:-1]) | (s[1:] != s[:-1])
        first_index = order[is_first]
    return np.bincount(agg_ids[first_index], minlength=n_agg).astype(np.int64)


def contiguous_transactions(
    n_elements: int | np.ndarray,
    element_bytes: int = 4,
    lanes_per_warp: int = 32,
    segment_bytes: int = 128,
) -> np.ndarray:
    """Transactions for warps reading ``n_elements`` consecutive elements.

    This is the closed form for a perfectly coalesced access starting at an
    aligned base: each full warp of lanes covers
    ``lanes_per_warp * element_bytes`` bytes, i.e.
    ``ceil(lanes * element_bytes / segment_bytes)`` segments.  ``n_elements``
    may be an array (one entry per warp-group of work).

    Returns the total transaction count per entry, as int64.
    """
    n = np.atleast_1d(np.asarray(n_elements, dtype=np.int64))
    if np.any(n < 0):
        raise WorkloadError("element counts cannot be negative")
    if element_bytes <= 0 or lanes_per_warp <= 0:
        raise WorkloadError("element_bytes and lanes_per_warp must be positive")
    full_warps = n // lanes_per_warp
    rem = n % lanes_per_warp
    per_full_warp = -(-(lanes_per_warp * element_bytes) // segment_bytes)
    rem_tx = -(-(rem * element_bytes) // segment_bytes)
    out = full_warps * per_full_warp + rem_tx
    if np.isscalar(n_elements):
        return out  # still an array of length 1 for API consistency
    return out
