"""``repro.service`` — async, batching template-serving subsystem.

The serving layer turns the one-shot ``repro.run`` facade into a
long-lived runtime with the shape of an inference-serving stack:

* :class:`TemplateService` — asyncio front end with admission control
  (one ``max_pending`` bound on in-flight requests over one FIFO queue,
  structured rejections), a work-conserving batch loop that dispatches
  whatever is queued at once, a micro-batcher that coalesces requests
  sharing a plan-cache identity into one execution, one fused executor
  pass per fusion group of a scheduling window, per-request timeouts,
  bounded retry with backoff, and graceful degradation of
  dynamic-parallelism templates to their non-nested fallbacks.
* :class:`ServiceHandle` / :func:`serve` — synchronous facade running
  the event loop on a background thread (also exported as
  ``repro.serve``).

See ``docs/serving.md`` for architecture, failure modes and the metrics
glossary.
"""

from repro.service.batcher import Batch, MicroBatcher
from repro.service.handle import ServiceHandle, serve
from repro.service.metrics import ServiceStats, percentile
from repro.service.request import Request, Response, workload_kind
from repro.service.service import ServiceConfig, TemplateService
from repro.service.streams import WorkloadStream
from repro.service.workers import BatchSpec, execute_batch_fused

__all__ = [
    "Batch",
    "BatchSpec",
    "MicroBatcher",
    "Request",
    "Response",
    "ServiceConfig",
    "ServiceHandle",
    "ServiceStats",
    "TemplateService",
    "WorkloadStream",
    "execute_batch_fused",
    "percentile",
    "serve",
    "workload_kind",
]
