"""Micro-batching: coalesce pending requests into batches.

One collection window — the head of the service queue plus whatever
was already queued behind it — is grouped by :meth:`Request.batch_key`
(workload fingerprint, template, engine, device, params, backend,
priority), and each group becomes one :class:`Batch`: **one** plan build
and **one** run whose result answers every member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.service.request import Request
from repro.service.workers import BatchSpec

__all__ = ["Batch", "MicroBatcher"]


@dataclass
class Batch:
    """One coalesced unit of execution plus the futures awaiting it."""

    key: tuple
    spec: BatchSpec
    requests: list[Request] = field(default_factory=list)
    futures: list = field(default_factory=list)
    #: set when the overload policy rewrote ``spec`` to the family's
    #: non-nested fallback before execution
    load_degraded: bool = False

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def priority(self) -> str:
        """The batch's priority class (homogeneous: part of the key)."""
        return self.requests[0].priority if self.requests else "normal"

    @property
    def deadline_at(self) -> float | None:
        """Tightest absolute member deadline (None when none carries one)."""
        deadlines = [r.deadline_at for r in self.requests
                     if getattr(r, "deadline_at", None) is not None]
        return min(deadlines) if deadlines else None


class MicroBatcher:
    """Groups ``(request, future)`` pairs into executable batches."""

    def group(self, pending: list[tuple]) -> list[Batch]:
        """Coalesce pending ``(request, future)`` pairs into batches.

        Batches come back in first-arrival order of their first member,
        so dispatch order tracks admission order.
        """
        batches: dict[tuple, Batch] = {}
        for request, future in pending:
            key = request.batch_key()
            batch = batches.get(key)
            if batch is None:
                spec = BatchSpec(
                    template=request.template_obj,
                    workload=request.workload,
                    device=request.device,
                    params=request.params,
                    engine=request.engine,
                    backend=request.backend,
                )
                batch = Batch(key=key, spec=spec)
                batches[key] = batch
            batch.requests.append(request)
            batch.futures.append(future)
        return list(batches.values())
