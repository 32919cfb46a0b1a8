"""Batch execution: the one function that runs a service fusion group.

:func:`execute_batch_fused` runs the :class:`BatchSpec` of every batch in
one fusion group through :func:`repro.core.base.run_many` — the same
plan/disk cache ladder and fused executor pass ``repro.run`` uses — on
the backend the group shares.  The service calls it on a worker thread
of its event loop; a lone batch is a one-spec group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import SimBackend
from repro.core.base import TemplateRun, run_many
from repro.core.params import TemplateParams
from repro.gpusim.config import DeviceConfig, KEPLER_K20

__all__ = ["BatchSpec", "execute_batch_fused"]


@dataclass
class BatchSpec:
    """Everything one batch execution needs."""

    #: template instance the batch runs (the request's resolved template,
    #: or the family's fallback once the batch is degraded)
    template: object
    workload: object
    device: DeviceConfig = KEPLER_K20
    params: TemplateParams = field(default_factory=TemplateParams)
    engine: str = "fast"
    #: device this batch was routed to by the service's DeviceGroup;
    #: None on a single-device service (no per-device obs counters)
    device_index: int | None = None
    #: execution model: "sim" (bulk-synchronous) or "queue" (persistent
    #: task queues, single-device; see docs/taskqueue.md)
    backend: str = "sim"


def execute_batch_fused(specs: list[BatchSpec]) -> list[TemplateRun]:
    """Run every spec of one fusion group; runs align with ``specs``.

    All specs share a device config, engine, device index and backend
    kind (the service's fusion grouping guarantees this).  They run as one
    :func:`~repro.core.base.run_many` call, so the run-cache misses
    execute as one fused pass per backend (a queue-incompatible template
    falls back to its own sim backend) — bit-identical to running each
    spec alone.
    """
    if not specs:
        return []
    first = specs[0]
    if first.backend == "queue":
        from repro.queue.backend import QueueBackend

        backend = QueueBackend(first.device, engine=first.engine)
    else:
        backend = SimBackend(first.device, engine=first.engine,
                             device_index=first.device_index)
    items = [(spec.template, spec.workload, spec.params) for spec in specs]
    return run_many(items, first.device, backend=backend)
