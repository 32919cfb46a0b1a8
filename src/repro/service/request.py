"""Request/response model of the serving layer.

A :class:`Request` is one "simulate this template on this workload" query
— the unit the service admits, batches and answers.  A :class:`Response`
is everything the caller gets back: the simulated result summary plus the
serving metadata (latency, batch size, retry count, degradation flag).

Requests resolve their template and workload family eagerly, so malformed
queries fail in the caller's context instead of inside the batch loop.
The **batch key** — what the micro-batcher groups on — is what the
computation is and nothing else: the content-addressed identity the plan
cache uses (workload fingerprint, canonical template name, engine,
device, and the frozen, hashable template parameters).  Two structurally
identical workloads submitted as different objects coalesce into one
batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.params import TemplateParams, check_params
from repro.core.registry import check_template, resolve, workload_kind
from repro.errors import ConfigError
from repro.gpusim.config import DeviceConfig, KEPLER_K20, check_device
from repro.gpusim.executor import resolve_engine
from repro.ir.select import auto_select, is_auto

__all__ = ["Request", "Response", "workload_kind", "DEGRADE_FALLBACK"]

#: fallback template per workload family when a dynamic-parallelism
#: template keeps failing (the graceful-degradation path)
DEGRADE_FALLBACK = {"nested-loop": "thread-mapped", "tree": "flat"}


@dataclass
class Request:
    """One serving query; constructed by ``TemplateService.submit``.

    ``template`` is a canonical paper name or a template instance (custom
    instances batch only with themselves — their identity enters the batch
    key, since the service cannot prove two instances are equivalent).
    """

    template: object
    workload: object
    device: DeviceConfig = KEPLER_K20
    params: TemplateParams = field(default_factory=TemplateParams)
    engine: str = "fast"
    #: request id assigned at admission (-1 = not yet admitted)
    id: int = -1
    #: event-loop clock at admission (for latency accounting)
    created_s: float = 0.0
    #: ``time.perf_counter()`` at admission (for the tracing layer's
    #: ``service.request`` lifecycle spans; 0.0 = never admitted)
    created_perf: float = 0.0

    def __post_init__(self) -> None:
        self.kind = workload_kind(self.workload)
        # before selection and the batch key: never fail in the batch loop
        check_template(self.template)
        check_params(self.params)
        check_device(self.device)
        resolve_engine(self.engine, error=ConfigError)
        self.selection = None
        if is_auto(self.template):
            # resolve the auto choice at admission: the batch then carries
            # a concrete template, coalesces with equivalent named
            # requests, and the degradation path sees real capabilities
            self.selection = auto_select(
                self.workload, self.device, self.params, self.engine,
            )
            self.template = self.selection.template
            self.params = self.selection.params
        if isinstance(self.template, str):
            self.template_obj = resolve(self.template, kind=self.kind)
            self._template_key = self.template_obj.name
        else:
            self.template_obj = self.template
            # custom instances only coalesce with themselves
            self._template_key = (self.template_obj.name, id(self.template))

    def batch_key(self) -> tuple:
        """Identity the micro-batcher coalesces on (content-addressed)."""
        return (
            self.workload.fingerprint(),
            self._template_key,
            self.engine,
            self.device,
            self.params,
        )


@dataclass
class Response:
    """Everything one request's caller gets back.

    ``status`` is ``"ok"``, ``"rejected"`` (admission control turned the
    request away, or the service stopped before running it — see
    ``reason``) or ``"failed"`` (execution kept failing after retries and
    no degradation path applied).  A degraded response has
    ``status == "ok"`` with ``degraded=True`` and ``template`` naming the
    fallback that actually ran.  Every response — rejections included —
    carries a real monotonic ``id``, so client-side correlation works on
    all paths.
    """

    id: int
    status: str
    template: str = ""
    workload: str = ""
    degraded: bool = False
    reason: str | None = None
    #: simulated execution time of the underlying run (None if no run)
    time_ms: float | None = None
    #: profiler metrics of the underlying run (``ProfileMetrics.as_dict``)
    metrics: dict = field(default_factory=dict)
    #: wall-clock seconds from admission to completion
    latency_s: float = 0.0
    #: number of requests answered by the same underlying run
    batch_size: int = 1
    #: execution attempts (1 = first try succeeded; 0 = never executed)
    attempts: int = 0
    #: whether the plan build was served from the plan cache
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        """True when the request produced a (possibly degraded) result."""
        return self.status == "ok"
