"""Request/response model of the serving layer.

A :class:`Request` is one "simulate this template on this workload" query
— the unit the service admits, batches and answers.  A :class:`Response`
is everything the caller gets back: the simulated result summary plus the
serving metadata (latency, batch size, retry count, degradation flag).

Requests resolve their template and workload family eagerly, so malformed
queries fail in the caller's context instead of inside the batch loop.
The **batch key** — what the micro-batcher groups on — is the same
content-addressed identity the plan cache uses: workload fingerprint,
canonical template name, engine, device, and the (frozen, hashable)
template parameters.  Two structurally identical workloads submitted as
different objects coalesce into one batch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from repro.core.params import TemplateParams
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.registry import resolve
from repro.core.workload import NestedLoopWorkload
from repro.errors import ConfigError, WorkloadError
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.executor import resolve_engine
from repro.ir.select import auto_select, is_auto

__all__ = [
    "Request",
    "Response",
    "workload_kind",
    "workload_cost",
    "DEGRADE_FALLBACK",
    "PRIORITIES",
    "PRIORITY_RANK",
]

#: fallback template per workload family when a dynamic-parallelism
#: template keeps failing (the graceful-degradation path)
DEGRADE_FALLBACK = {"nested-loop": "thread-mapped", "tree": "flat"}

#: admission priority classes, highest first — the batch loop always
#: drains a higher class before touching a lower one
PRIORITIES = ("high", "normal", "low")

#: class name -> scheduling rank (lower rank drains first)
PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}


def workload_kind(workload) -> str:
    """Template family a workload belongs to (``nested-loop`` | ``tree``)."""
    if isinstance(workload, NestedLoopWorkload):
        return "nested-loop"
    if isinstance(workload, RecursiveTreeWorkload):
        return "tree"
    raise WorkloadError(
        "workload must be a NestedLoopWorkload or RecursiveTreeWorkload, "
        f"got {type(workload).__name__}"
    )


def workload_cost(workload) -> int:
    """Rough work estimate of a workload.

    Inner-iteration count for nested loops, node count for trees — the
    quantities the plan build and executor pass actually scale with.
    """
    if isinstance(workload, NestedLoopWorkload):
        return workload.n_pairs
    return workload.tree.n_nodes


def check_count(name: str, value, floor: int, *, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is an integer >= ``floor``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < floor:
        bound = f"must be >= {floor}" if floor else "cannot be negative"
        raise error(f"{name} {bound}, got {value}")


def check_duration(name: str, value, *, zero_ok: bool,
                   error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` (a time or latency bound) is a
    finite real number that is positive, or zero with ``zero_ok``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise error(f"{name} must be a finite number, got {value!r}")
    if value < 0 or (value == 0 and not zero_ok):
        bound = "cannot be negative" if zero_ok else "must be positive"
        raise error(f"{name} {bound}, got {value}")


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
    #: execution model the batch should run on (``"sim"`` | ``"queue"``;
    #: stamped from ``ServiceConfig.backend`` at submit)
    backend: str = "sim"
    #: tenant this request bills against (admission quotas; "" = untracked)
    tenant: str = ""
    #: priority class: ``"high"`` | ``"normal"`` | ``"low"`` — enters the
    #: batch key, so batches are priority-homogeneous
    priority: str = "normal"
    #: relative deadline in seconds from admission (None = no deadline);
    #: the absolute event-loop deadline lands in ``deadline_at``
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        from repro.backends import resolve_backend

        self.kind = workload_kind(self.workload)
        resolve_engine(self.engine, error=ConfigError)
        resolve_backend(self.backend, error=ConfigError)
        if self.priority not in PRIORITY_RANK:
            raise ConfigError(
                f"unknown priority {self.priority!r}; "
                f"known: {', '.join(PRIORITIES)}"
            )
        if self.deadline_s is not None:
            check_duration("deadline_s", self.deadline_s, zero_ok=False)
        #: absolute deadline on the service's event-loop clock, stamped
        #: at admission (None until admitted or when no deadline applies)
        self.deadline_at: float | None = None
        self.selection = None
        if is_auto(self.template):
            # resolve the auto choice at admission: the batch then carries
            # a concrete template, coalesces with equivalent named
            # requests, and the degradation path sees real capabilities
            self.selection = auto_select(
                self.workload, self.device, self.params, self.engine,
                backend=self.backend,
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
        """Identity the micro-batcher coalesces on (content-addressed).

        ``priority`` is part of the key: a batch must be
        priority-homogeneous so shed/degrade decisions apply to the whole
        batch (tenants still coalesce freely — quotas act at admission).
        """
        return (
            self.workload.fingerprint(),
            self._template_key,
            self.engine,
            self.device,
            self.params,
            self.backend,
            self.priority,
        )


@dataclass
class Response:
    """Everything one request's caller gets back.

    ``status`` is ``"ok"``, ``"rejected"`` (admission control turned the
    request away — see ``reason``), ``"shed"`` (admitted, then dropped by
    deadline-aware scheduling because the deadline could not be met) or
    ``"failed"`` (execution kept failing after retries and no degradation
    path applied).  A degraded response has ``status == "ok"`` with
    ``degraded=True`` and ``template`` naming the fallback that actually
    ran.  Every response — rejections included — carries a real monotonic
    ``id``, so client-side correlation works on all paths.
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
    #: device the batch was routed to (0 on a single-device service)
    device: int = 0
    #: priority class the request carried (echoed for correlation)
    priority: str = "normal"
    #: tenant the request billed against (echoed for correlation)
    tenant: str = ""

    @property
    def ok(self) -> bool:
        """True when the request produced a (possibly degraded) result."""
        return self.status == "ok"
