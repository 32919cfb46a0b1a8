"""Streaming mutations of nested-loop workloads.

Production irregular workloads are not frozen: a graph under live traffic
gains and loses edges while queries keep arriving.  This module is the
pure core of the streaming story — a :class:`MutationBatch` describes one
batch of edge/node inserts and deletes against a
:class:`~repro.core.workload.NestedLoopWorkload`, and :func:`apply_batch`
applies it functionally: it returns a new child workload (fresh arrays,
the input workload untouched) and a :class:`MutationDelta`, a small
record of what changed.  The serving layer's
:class:`~repro.service.streams.WorkloadStream` returns that delta from
every ``mutate`` call.

The child is analysed like any other workload: its analysis is keyed on
its own fingerprint and built from its trace on first use.

Pair-splice semantics: deleted pairs are removed by their global
pre-mutation pair index; inserted pairs land at the *end* of their row's
slice (insertion order preserved within a row).  Every per-pair array of
the workload (stream addresses, atomic targets) is spliced by the same
``(deleted pairs, insert positions)`` coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.workload import NestedLoopWorkload
from repro.errors import WorkloadError, check_count
from repro.graphs.csr import concat_ranges

__all__ = [
    "PairInserts",
    "MutationBatch",
    "MutationDelta",
    "apply_batch",
    "splice",
]


def _int_array(name: str, values) -> np.ndarray:
    """``values`` as an int64 array; a non-empty one must hold integers.

    Bools, floats (NaN included) and strings raise instead of being
    truncated or parsed into an index; an empty sequence is valid.
    """
    array = np.asarray(values)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise WorkloadError(
            f"{name} must hold integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


@dataclass
class PairInserts:
    """Pairs (inner iterations / edges) to insert, one batch.

    ``outer_ids[k]`` is the outer iteration (row) receiving pair ``k``;
    ``stream_addresses[s][k]`` is the byte address pair ``k`` contributes
    to the workload's stream ``s`` (one array per workload stream, all of
    equal length).  ``atomic_targets`` is optional and only valid on
    workloads that carry atomics (-1 = no atomic for that pair).
    """

    outer_ids: np.ndarray
    stream_addresses: list[np.ndarray] = field(default_factory=list)
    atomic_targets: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.outer_ids = _int_array("outer_ids", self.outer_ids)
        if self.outer_ids.ndim != 1:
            raise WorkloadError("inserts: outer_ids must be 1-D")
        self.stream_addresses = [
            _int_array(f"stream_addresses[{k}]", a)
            for k, a in enumerate(self.stream_addresses)
        ]
        n = self.outer_ids.size
        for k, addresses in enumerate(self.stream_addresses):
            if addresses.shape != (n,):
                raise WorkloadError(
                    f"inserts: stream {k} has {addresses.size} addresses "
                    f"for {n} inserted pairs"
                )
            if addresses.size and addresses.min() < 0:
                raise WorkloadError(f"inserts: stream {k} has negative addresses")
        if self.atomic_targets is not None:
            self.atomic_targets = _int_array("atomic_targets",
                                             self.atomic_targets)
            if self.atomic_targets.shape != (n,):
                raise WorkloadError("inserts: atomic_targets must match outer_ids")


@dataclass
class MutationBatch:
    """One batch of structural edits to a nested-loop workload.

    * ``inserts`` — new pairs (edge inserts), appended at the end of their
      row's slice;
    * ``delete_pairs`` — global pair indices to remove (edge deletes), in
      pre-mutation numbering;
    * ``isolate_outer`` — outer ids whose pairs are all removed (node
      delete as a tombstone: the zero-trip row survives, so outer ids
      never renumber);
    * ``append_outer`` — number of fresh zero-trip rows appended at the
      end (node inserts; combine with ``inserts`` targeting the new ids
      ``outer_size .. outer_size + append_outer - 1`` to wire them up).
    """

    inserts: PairInserts | None = None
    delete_pairs: np.ndarray | None = None
    isolate_outer: np.ndarray | None = None
    append_outer: int = 0

    def __post_init__(self) -> None:
        if self.delete_pairs is not None:
            self.delete_pairs = _int_array("delete_pairs", self.delete_pairs)
        if self.isolate_outer is not None:
            self.isolate_outer = _int_array("isolate_outer",
                                            self.isolate_outer)
        check_count("append_outer", self.append_outer, 0, error=WorkloadError)
        self.append_outer = int(self.append_outer)

    def is_empty(self) -> bool:
        """True when the batch would not change anything."""
        return (
            (self.inserts is None or self.inserts.outer_ids.size == 0)
            and (self.delete_pairs is None or self.delete_pairs.size == 0)
            and (self.isolate_outer is None or self.isolate_outer.size == 0)
            and self.append_outer == 0
        )


@dataclass
class MutationDelta:
    """Record of one committed mutation batch.

    ``parent_fingerprint`` and ``fingerprint`` name the workload before
    and after the batch, and ``version_to`` the child's version.
    ``changed`` lists the pre-existing rows whose trip count changed;
    ``n_inserted`` and ``n_deleted`` count the inserted and deleted pairs.
    """

    parent_fingerprint: str
    fingerprint: str
    version_to: int
    changed: np.ndarray
    n_inserted: int
    n_deleted: int


def splice(arr: np.ndarray, delete_idx: np.ndarray,
           insert_pos: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Delete-then-insert on a per-pair array, returning a fresh array.

    ``delete_idx`` is in pre-splice coordinates, ``insert_pos`` in
    post-delete coordinates (repeated positions keep the order of
    ``values``, per ``np.insert``).

    Implemented as run-slicing + one concatenate per pass rather than
    ``np.delete``/``np.insert``: for the sparse edits streaming batches
    make, those build full-size boolean masks (~8x slower than copying
    the surviving runs), and this function is the commit's per-stream
    hot loop.
    """
    if delete_idx.size == 0:
        k = insert_pos.size
        if k == 0:
            return arr.copy()
        order = np.argsort(insert_pos, kind="stable")
        vals = np.asarray(values, dtype=arr.dtype)[order]  # np.insert casts
        pieces = []
        prev = 0
        for j, pos in enumerate(insert_pos[order].tolist()):
            pieces.append(arr[prev:pos])
            pieces.append(vals[j:j + 1])
            prev = pos
        pieces.append(arr[prev:])
        return np.concatenate(pieces)

    dele = np.unique(delete_idx)  # np.delete semantics: dups drop once
    d_list = dele.tolist()
    if insert_pos.size == 0:
        bounds = zip(
            np.concatenate(([0], dele + 1)).tolist(),
            np.concatenate((dele, [arr.size])).tolist(),
        )
        return np.concatenate([arr[a:b] for a, b in bounds])

    # both: map insert points back to pre-delete coordinates, then walk
    # deletes and inserts together — one concatenate, one pass over arr
    order = np.argsort(insert_pos, kind="stable")
    vals = np.asarray(values, dtype=arr.dtype)[order]
    pos_sorted = insert_pos[order]
    shift = np.searchsorted(dele - np.arange(dele.size), pos_sorted,
                            side="right")
    pieces = []
    prev = 0
    di = 0
    n_del = len(d_list)
    for j, q in enumerate((pos_sorted + shift).tolist()):
        while di < n_del and d_list[di] < q:
            pieces.append(arr[prev:d_list[di]])
            prev = d_list[di] + 1
            di += 1
        pieces.append(arr[prev:q])
        pieces.append(vals[j:j + 1])
        prev = q
    while di < n_del:
        pieces.append(arr[prev:d_list[di]])
        prev = d_list[di] + 1
        di += 1
    pieces.append(arr[prev:])
    return np.concatenate(pieces)


def apply_batch(workload: NestedLoopWorkload, batch: MutationBatch,
                name: str | None = None
                ) -> tuple[NestedLoopWorkload, MutationDelta]:
    """Apply one batch functionally: ``(child, delta)``.

    The child is a new workload one version above ``workload``, with
    fresh trace arrays and stream objects (named ``name``, else like the
    parent); ``workload`` is never touched.  Backs
    :meth:`NestedLoopWorkload.mutated
    <repro.core.workload.NestedLoopWorkload.mutated>`.
    """
    if not isinstance(batch, MutationBatch):
        raise WorkloadError("expected a MutationBatch")
    if batch.is_empty():
        raise WorkloadError("empty mutation batch (no inserts, deletes or appends)")
    n_old = workload.outer_size
    n_pairs_old = workload.n_pairs
    old_trips = workload.trip_counts
    old_offsets = workload.pair_offsets
    append = batch.append_outer
    n_new = n_old + append

    # ---- deletions: explicit pair deletes plus isolated rows' pairs
    if batch.delete_pairs is not None and batch.delete_pairs.size:
        delete = np.unique(batch.delete_pairs)
        if delete[0] < 0 or delete[-1] >= n_pairs_old:
            raise WorkloadError("delete_pairs out of range")
    else:
        delete = np.zeros(0, dtype=np.int64)
    if batch.isolate_outer is not None and batch.isolate_outer.size:
        iso = np.unique(batch.isolate_outer)
        if iso[0] < 0 or iso[-1] >= n_old:
            raise WorkloadError("isolate_outer out of range")
        iso_pairs = concat_ranges(old_offsets[iso], old_trips[iso])
        delete = np.union1d(delete, iso_pairs)
    del_per_row = np.diff(np.searchsorted(delete, old_offsets))
    trips_after_delete = np.concatenate(
        [old_trips - del_per_row, np.zeros(append, dtype=np.int64)]
    )

    # ---- insertions: sort by row (stable), position at end of row slice
    ins = batch.inserts
    if ins is not None and ins.outer_ids.size:
        if len(ins.stream_addresses) != len(workload.streams):
            raise WorkloadError(
                f"inserts carry {len(ins.stream_addresses)} streams but the "
                f"workload has {len(workload.streams)}"
            )
        rows = ins.outer_ids
        if rows.min() < 0 or rows.max() >= n_new:
            raise WorkloadError("inserts: outer_ids out of range")
        if ins.atomic_targets is not None and workload.atomic_targets is None:
            raise WorkloadError(
                "inserts carry atomic targets but the workload has none"
            )
        order = np.argsort(rows, kind="stable")
        insert_rows = rows[order]
        insert_addresses = [a[order] for a in ins.stream_addresses]
        if workload.atomic_targets is not None:
            if ins.atomic_targets is not None:
                insert_atomics = ins.atomic_targets[order]
            else:
                insert_atomics = np.full(insert_rows.size, -1, dtype=np.int64)
        else:
            insert_atomics = None
        ins_per_row = np.bincount(insert_rows, minlength=n_new)
    else:
        insert_rows = np.zeros(0, dtype=np.int64)
        insert_addresses = [
            np.zeros(0, dtype=np.int64) for _ in workload.streams
        ]
        insert_atomics = (
            np.zeros(0, dtype=np.int64)
            if workload.atomic_targets is not None else None
        )
        ins_per_row = np.zeros(n_new, dtype=np.int64)

    new_trips = trips_after_delete + ins_per_row
    offsets_after_delete = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum(trips_after_delete, out=offsets_after_delete[1:])
    insert_positions = offsets_after_delete[insert_rows + 1]

    child = replace(
        workload,
        name=workload.name if name is None else name,
        trip_counts=new_trips,
        streams=[
            replace(stream, addresses=splice(stream.addresses, delete,
                                             insert_positions,
                                             insert_addresses[k]))
            for k, stream in enumerate(workload.streams)
        ],
        atomic_targets=None if workload.atomic_targets is None else splice(
            workload.atomic_targets, delete, insert_positions, insert_atomics),
    )
    child.version = workload.version + 1
    delta = MutationDelta(
        parent_fingerprint=workload.fingerprint(),
        fingerprint=child.fingerprint(),
        version_to=child.version,
        changed=np.flatnonzero((del_per_row > 0) | (ins_per_row[:n_old] > 0)),
        n_inserted=int(insert_rows.size),
        n_deleted=int(delete.size),
    )
    return child, delta
