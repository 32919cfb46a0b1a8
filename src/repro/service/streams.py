"""Versioned workload streams: mutations and snapshot-pinned serving.

A :class:`WorkloadStream` is the serving-side face of the mutation API
(:mod:`repro.core.mutation`).  It holds a named, *mutating* workload as a
sequence of immutable snapshots: every ``mutate(batch)`` derives the next
head with the functional :meth:`NestedLoopWorkload.mutated
<repro.core.workload.NestedLoopWorkload.mutated>` path — fresh trace
arrays, the previous head untouched — so any snapshot a request pinned
remains valid for as long as it is retained.  That is the torn-read
guarantee: an in-flight batch resolved against version ``v`` keeps
executing against exactly ``v``'s arrays no matter how many mutations
land while it runs.

The stream keeps the last ``keep_versions`` snapshots (a bounded version
window, like an MVCC horizon).  Pinning a version that has slid out of
the window is a structured :class:`~repro.errors.ServiceError` — the
caller resubmits against a retained version — never a silent serve of
different data.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.workload import NestedLoopWorkload
from repro.errors import ServiceError, check_count

__all__ = ["WorkloadStream"]


class WorkloadStream:
    """One named, versioned workload under a mutation stream.

    Not thread-safe by itself: the service mutates and resolves streams
    on its event loop (one thread), which serializes ``mutate`` against
    ``get``.  Snapshots themselves are immutable, so *executing* against
    a resolved snapshot needs no further coordination.
    """

    def __init__(self, name: str, workload: NestedLoopWorkload,
                 keep_versions: int = 8) -> None:
        if not name:
            raise ServiceError("workload stream needs a non-empty name")
        if not isinstance(workload, NestedLoopWorkload):
            raise ServiceError(
                "workload streams carry NestedLoopWorkloads (the mutation "
                f"API is nested-loop only), got {type(workload).__name__}"
            )
        check_count("keep_versions", keep_versions, 1, error=ServiceError)
        self.name = name
        # a plain int in snapshot(), even from a NumPy integer
        self.keep_versions = int(keep_versions)
        self.mutations = 0
        self._versions: OrderedDict[int, NestedLoopWorkload] = OrderedDict()
        self._versions[workload.version] = workload
        self._head = workload

    # ------------------------------------------------------------- state
    @property
    def head(self) -> NestedLoopWorkload:
        """The latest snapshot."""
        return self._head

    @property
    def version(self) -> int:
        """Version of the latest snapshot."""
        return self._head.version

    def versions(self) -> list[int]:
        """Retained snapshot versions, oldest first."""
        return list(self._versions)

    # --------------------------------------------------------- mutation
    def mutate(self, batch):
        """Apply one :class:`~repro.core.mutation.MutationBatch`.

        Derives the next head functionally and retires snapshots beyond
        the version window (never the new head).  Returns the
        :class:`~repro.core.mutation.MutationDelta`.
        """
        child, delta = self._head.mutated(batch)
        self._versions[child.version] = child
        self._head = child
        while len(self._versions) > self.keep_versions:
            self._versions.popitem(last=False)
        self.mutations += 1
        return delta

    # ---------------------------------------------------------- serving
    def get(self, version: int | None = None) -> NestedLoopWorkload:
        """Resolve a snapshot: the head, or a pinned retained version."""
        if version is None:
            return self._head
        check_count("version", version, 0, error=ServiceError)
        snapshot = self._versions.get(version)
        if snapshot is None:
            raise ServiceError(
                f"version {version} of stream {self.name!r} is not retained "
                f"(kept: {self.versions()})"
            )
        return snapshot

    def snapshot(self) -> dict:
        """Plain-dict stats for ``service.snapshot()``."""
        return {
            "version": self.version,
            "mutations": self.mutations,
            "retained": len(self._versions),
            "keep_versions": self.keep_versions,
            "outer_size": self._head.outer_size,
            "n_pairs": self._head.n_pairs,
        }
