"""Workload descriptions for the parallelization templates.

A :class:`NestedLoopWorkload` is the Fig. 1(a) shape::

    for i in range(outer_size):          # parallelizable outer loop
        for j in range(f(i)):            # irregular inner loop
            work(i, j)

Templates never see application code — they see the *trace* of ``work``:
per-(i, j) memory access streams (byte addresses in pair order), optional
per-pair atomic targets, and instruction weights.  That is exactly the
information a compiler emitting these templates would derive from the loop
body, and it is what the simulator needs to cost a mapping.

Pairs are stored row-major (all ``j`` of outer ``0``, then outer ``1``,
...), matching CSR edge order for graph workloads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.errors import WorkloadError
from repro.graphs.csr import concat_ranges

__all__ = ["AccessStream", "NestedLoopWorkload"]


@dataclass
class AccessStream:
    """One global-memory access performed by each inner iteration.

    ``addresses[p]`` is the byte address touched by pair ``p`` (row-major
    pair order).  ``staged_in_shared`` marks streams that a shared-memory
    buffered phase can stage on-chip and write back coalesced — the
    mechanism behind dbuf-shared's better store efficiency in Table I.
    """

    name: str
    addresses: np.ndarray
    kind: Literal["load", "store"] = "load"
    element_bytes: int = 4
    staged_in_shared: bool = False

    def __post_init__(self) -> None:
        self.addresses = np.asarray(self.addresses, dtype=np.int64)
        if self.addresses.ndim != 1:
            raise WorkloadError(f"stream {self.name!r}: addresses must be 1-D")
        if self.addresses.size and self.addresses.min() < 0:
            raise WorkloadError(f"stream {self.name!r}: negative addresses")
        if self.kind not in ("load", "store"):
            raise WorkloadError(f"stream {self.name!r}: kind must be load|store")
        if self.element_bytes <= 0:
            raise WorkloadError(f"stream {self.name!r}: element_bytes must be positive")


@dataclass
class NestedLoopWorkload:
    """An irregular nested loop plus its memory/atomic trace."""

    name: str
    trip_counts: np.ndarray
    streams: list[AccessStream] = field(default_factory=list)
    #: element index each pair RMWs atomically (-1 = no atomic); length nnz
    atomic_targets: np.ndarray | None = None
    #: issued instructions per inner iteration (index math, compare, branch)
    inner_insts: float = 6.0
    #: issued instructions per outer iteration (setup, offsets, write-back)
    outer_insts: float = 10.0
    #: coalesced bytes read per outer iteration (row offsets and the like)
    outer_load_bytes: int = 8
    #: coalesced bytes written per outer iteration (per-row results)
    outer_store_bytes: int = 0

    def __post_init__(self) -> None:
        self.trip_counts = np.asarray(self.trip_counts, dtype=np.int64)
        if self.trip_counts.ndim != 1 or self.trip_counts.size == 0:
            raise WorkloadError("trip_counts must be a non-empty 1-D array")
        if self.trip_counts.min() < 0:
            raise WorkloadError("trip counts cannot be negative")
        self.pair_offsets = np.zeros(self.trip_counts.size + 1, dtype=np.int64)
        np.cumsum(self.trip_counts, out=self.pair_offsets[1:])
        nnz = self.n_pairs
        for stream in self.streams:
            if stream.addresses.size != nnz:
                raise WorkloadError(
                    f"stream {stream.name!r} has {stream.addresses.size} "
                    f"addresses but the workload has {nnz} pairs"
                )
        if self.atomic_targets is not None:
            self.atomic_targets = np.asarray(self.atomic_targets, dtype=np.int64)
            if self.atomic_targets.shape != (nnz,):
                raise WorkloadError("atomic_targets must have one entry per pair")
        for weight in ("inner_insts", "outer_insts", "outer_load_bytes",
                       "outer_store_bytes"):
            value = getattr(self, weight)
            if not (math.isfinite(value) and value >= 0):
                raise WorkloadError(
                    f"{weight} must be finite and non-negative, got {value!r}")
        #: mutation generation: one above the parent for a :meth:`mutated`
        #: child, bumped by invalidate_fingerprint after an untracked edit
        self.version = 0

    @property
    def outer_size(self) -> int:
        """Number of outer-loop iterations."""
        return self.trip_counts.size

    @property
    def n_pairs(self) -> int:
        """Total inner iterations (sum of f(i))."""
        return int(self.pair_offsets[-1])

    def pairs_of(self, outer_ids: np.ndarray, trips: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Pair indices + local step ``j`` for a subset of outer iterations.

        ``trips`` optionally caps the per-iteration trip counts (a phase
        processing only the first ``lbTHRES`` iterations would pass the
        capped counts).  Returns ``(pair_idx, steps)`` where the pairs of
        ``outer_ids[k]`` appear consecutively.
        """
        outer_ids = np.asarray(outer_ids, dtype=np.int64)
        if outer_ids.size and (
            outer_ids.min() < 0 or outer_ids.max() >= self.outer_size
        ):
            raise WorkloadError("outer_ids out of range")
        full = self.trip_counts[outer_ids]
        if trips is None:
            trips = full
        else:
            trips = np.asarray(trips, dtype=np.int64)
            if trips.shape != outer_ids.shape:
                raise WorkloadError("trips must match outer_ids shape")
            if np.any(trips > full) or np.any(trips < 0):
                raise WorkloadError("trip caps out of range")
        pair_idx = concat_ranges(self.pair_offsets[outer_ids], trips)
        steps = concat_ranges(np.zeros_like(trips), trips)
        return pair_idx, steps

    def subset_trips(self, outer_ids: np.ndarray) -> np.ndarray:
        """Trip counts of a subset of outer iterations."""
        return self.trip_counts[np.asarray(outer_ids, dtype=np.int64)]

    def fingerprint(self) -> str:
        """Content hash of everything a template build reads.

        Two workloads with identical traces fingerprint identically, object
        identity aside — the plan cache keys on this.  The digest is
        computed once and memoized; workloads are treated as immutable
        after construction (nothing in the repo mutates them).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        h = hashlib.blake2b(digest_size=16)
        h.update(self.trip_counts.tobytes())
        for stream in self.streams:
            h.update(
                f"|{stream.name}|{stream.kind}|{stream.element_bytes}"
                f"|{int(stream.staged_in_shared)}|".encode()
            )
            h.update(stream.addresses.tobytes())
        if self.atomic_targets is not None:
            h.update(b"|atomics|")
            h.update(self.atomic_targets.tobytes())
        h.update(
            f"|{self.inner_insts}|{self.outer_insts}"
            f"|{self.outer_load_bytes}|{self.outer_store_bytes}".encode()
        )
        digest = h.hexdigest()
        self._fingerprint = digest
        return digest

    def invalidate_fingerprint(self) -> None:
        """Re-key every derived identity after an untracked in-place edit.

        Callers that edit ``trip_counts``/stream addresses in place must
        call this or every cache keyed on the fingerprint (plan, select,
        analysis, run, disk) would keep serving plans for the pre-mutation
        trace.  All identities move together: the fingerprint memo drops,
        ``pair_offsets`` is recomputed from the edited trip counts (it was
        previously left stale, so row slices pointed at pre-edit pair
        ranges) and the version bumps.  Prefer :meth:`mutated`, which
        leaves this workload untouched and returns a new one.
        """
        self._fingerprint = None
        self.pair_offsets = np.zeros(self.trip_counts.size + 1, dtype=np.int64)
        np.cumsum(self.trip_counts, out=self.pair_offsets[1:])
        nnz = self.n_pairs
        for stream in self.streams:
            if stream.addresses.size != nnz:
                raise WorkloadError(
                    f"stream {stream.name!r} has {stream.addresses.size} "
                    f"addresses but the edited workload has {nnz} pairs"
                )
        if self.atomic_targets is not None and self.atomic_targets.shape != (nnz,):
            raise WorkloadError("atomic_targets must have one entry per pair")
        self.version += 1

    # ------------------------------------------------------ mutation API
    def mutated(self, batch, name: str | None = None):
        """Apply a :class:`~repro.core.mutation.MutationBatch`: returns
        ``(child, delta)`` and leaves ``self`` untouched.

        The child gets fresh trace arrays and fresh stream objects, so the
        parent remains a valid immutable snapshot — this is the path the
        serving layer's versioned workload streams use to guarantee
        in-flight batches never observe a torn trace.
        """
        from repro.core.mutation import apply_batch

        return apply_batch(self, batch, name)
