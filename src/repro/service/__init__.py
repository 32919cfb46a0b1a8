"""``repro.service`` — async, batching template-serving subsystem.

The serving layer turns the one-shot ``repro.run`` facade into a
long-lived runtime with the shape of an inference-serving stack:

* :class:`TemplateService` — asyncio front end with admission control
  (bounded in-flight requests, structured rejections), a micro-batcher
  that coalesces requests sharing a plan-cache identity into one
  execution, one fused executor pass per scheduling window, per-request
  timeouts, bounded retry with backoff, and graceful degradation of
  dynamic-parallelism templates to their non-nested fallbacks.
* :class:`ServiceHandle` / :func:`serve` — synchronous facade running
  the event loop on a background thread (also exported as
  ``repro.serve``).
* :mod:`repro.service.loadgen` — closed-loop load generation behind
  ``python -m repro.service`` and ``benchmarks/bench_service_throughput``.

See ``docs/serving.md`` for architecture, failure modes and the metrics
glossary.
"""

from repro.service.admission import PriorityClassQueue
from repro.service.batcher import Batch, MicroBatcher
from repro.service.handle import ServiceHandle, serve
from repro.service.metrics import (
    ClassStats,
    ServiceStats,
    percentile,
    percentiles,
)
from repro.service.request import (
    PRIORITIES,
    Request,
    Response,
    workload_cost,
    workload_kind,
)
from repro.service.service import ServiceConfig, TemplateService
from repro.service.streams import WorkloadStream
from repro.service.workers import BatchSpec, execute_batch_fused

__all__ = [
    "Batch",
    "BatchSpec",
    "ClassStats",
    "MicroBatcher",
    "PRIORITIES",
    "PriorityClassQueue",
    "Request",
    "Response",
    "ServiceConfig",
    "ServiceHandle",
    "ServiceStats",
    "TemplateService",
    "WorkloadStream",
    "execute_batch_fused",
    "percentile",
    "percentiles",
    "serve",
    "workload_cost",
    "workload_kind",
]
