"""Micro-batching: coalesce pending requests into batches.

One collection window — the head of the service queue plus whatever
was already queued behind it — is grouped by :meth:`Request.batch_key`
(workload fingerprint, template, engine, device, params), and
each group becomes one :class:`Batch`: **one** plan build and **one** run
whose result answers every member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.service.request import Request
from repro.service.workers import BatchSpec

__all__ = ["Batch", "MicroBatcher"]


@dataclass
class Batch:
    """One coalesced unit of execution plus the futures awaiting it."""

    spec: BatchSpec
    requests: list[Request] = field(default_factory=list)
    futures: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.requests)


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
                )
                batch = batches[key] = Batch(spec=spec)
            batch.requests.append(request)
            batch.futures.append(future)
        return list(batches.values())
