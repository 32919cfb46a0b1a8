"""The asyncio serving runtime: admission, batching, execution policy.

:class:`TemplateService` turns the one-shot ``repro.run`` facade into a
long-lived server.  The life of a request:

1. **Admission** — ``submit()`` resolves the template eagerly and applies
   backpressure: beyond ``max_pending`` in-flight requests, the answer is
   an immediate structured *rejection* response (never an indefinite
   block) so callers can shed or retry upstream.
2. **Collection** — the batch loop drains the queue for up to
   ``batch_window_s`` (or ``max_batch`` requests) and hands the window to
   the :class:`~repro.service.batcher.MicroBatcher`, which coalesces
   requests sharing a batch key into one batch.
3. **Execution** — the window's batches split into fusion groups, one
   per (backend kind, device, engine, priority); each group runs as one
   :func:`~repro.service.workers.execute_batch_fused` call on a worker
   thread under a per-request timeout.  A lone batch is a one-member
   group and gets bounded exponential-backoff retries; a failed group of
   several batches splits into one-batch groups.
4. **Degradation** — when every attempt of a one-batch group failed and
   the template uses dynamic parallelism, the batch re-runs on the
   family's non-nested fallback (``thread-mapped`` / ``flat``) and the
   responses carry ``degraded=True``; otherwise the responses are
   ``failed`` with the last error as the reason.

Everything observable lands in ``stats()``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.core.params import TemplateParams
from repro.core.registry import resolve
from repro.errors import ServiceError
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.executor import resolve_engine
from repro.service.admission import PriorityClassQueue
from repro.service.batcher import Batch, MicroBatcher
from repro.service.metrics import ServiceStats
from repro.service.request import (
    DEGRADE_FALLBACK,
    PRIORITIES,
    PRIORITY_RANK,
    Request,
    Response,
    check_count,
    check_duration,
)
from repro.service.streams import WorkloadStream
from repro.service.workers import BatchSpec, execute_batch_fused

__all__ = ["ServiceConfig", "TemplateService"]


#: integer config fields and the smallest value each accepts
_COUNT_FLOORS = {
    "max_pending": 1, "max_batch": 1, "max_retries": 0, "devices": 1,
    "stats_window": 1, "tenant_quota": 1, "degrade_pending_threshold": 1,
    "min_devices": 1, "max_devices": 1, "scale_up_pending_per_device": 1,
}
#: time config fields (seconds; ``scale_up_p99_ms`` in ms) and whether
#: each accepts zero
_DURATION_ZERO_OK = {
    "batch_window_s": True, "request_timeout_s": False,
    "retry_backoff_s": True, "drain_timeout_s": False,
    "default_deadline_s": False, "scale_check_interval_s": False,
    "scale_up_p99_ms": False, "scale_cooldown_s": True,
}
#: numeric fields whose None means "no bound"
_NONE_OK = frozenset({
    "request_timeout_s", "drain_timeout_s", "tenant_quota",
    "default_deadline_s", "degrade_pending_threshold", "min_devices",
    "max_devices", "scale_up_p99_ms",
})


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`TemplateService`."""

    #: admission bound: in-flight requests beyond this are rejected
    max_pending: int = 256
    #: most requests one collection window may gather
    max_batch: int = 16
    #: how long the batch loop waits for co-travellers (seconds)
    batch_window_s: float = 0.002
    #: per-attempt execution timeout (None = unbounded)
    request_timeout_s: float | None = 30.0
    #: retries after the first failed attempt
    max_retries: int = 2
    #: base backoff between attempts (doubles per retry)
    retry_backoff_s: float = 0.05
    #: fall back to thread-mapped/flat when a dynamic-parallelism
    #: template keeps failing
    degrade: bool = True
    #: default executor engine for requests that don't specify one
    engine: str = "fast"
    #: execution model every batch runs on: ``"sim"`` (bulk-synchronous,
    #: the default) or ``"queue"`` (persistent task queues — single
    #: device; queue-incompatible templates are routed back to sim and
    #: counted, see docs/taskqueue.md)
    backend: str = "sim"
    #: template used when ``submit`` is not given one: ``"auto"`` routes
    #: through the IR auto-select pipeline (see ``docs/ir.md``); any
    #: canonical name pins every defaulted request to that template
    default_template: str = "auto"
    #: default simulated device
    device: DeviceConfig = field(default_factory=lambda: KEPLER_K20)
    #: simulated devices serving this process: 1 behaves exactly as the
    #: single-device service always has; N > 1 routes each fusion group
    #: to the least-loaded device of a
    #: :class:`~repro.backends.DeviceGroup` (see docs/architecture.md)
    devices: int = 1
    #: latency/batch-size window kept for percentile stats
    stats_window: int = 4096
    #: disk artifact cache: None inherits the process default
    #: (REPRO_CACHE_DIR), "" disables it, a path enables it
    cache_dir: str | None = None
    #: bound on how long ``stop(drain=True)`` waits for in-flight work
    #: before answering stragglers with structured failures (None waits
    #: forever — the pre-bound behaviour)
    drain_timeout_s: float | None = 30.0
    # ------------------------------------------------- SLO / multi-tenant
    #: priority class stamped on requests that don't specify one
    default_priority: str = "normal"
    #: per-priority-class in-flight bounds, e.g. ``{"low": 64}``; classes
    #: absent from the dict are bounded only by ``max_pending``
    max_pending_per_class: dict | None = None
    #: max in-flight requests per tenant (None = unlimited); rejections
    #: are structured and counted as ``quota_rejected``
    tenant_quota: int | None = None
    #: per-tenant overrides of ``tenant_quota``, e.g. ``{"acme": 8}``
    tenant_quotas: dict | None = None
    #: deadline stamped on requests that don't carry one (seconds from
    #: admission; None = no implicit deadline)
    default_deadline_s: float | None = None
    #: shed batches whose deadline has passed (or provably cannot be met)
    #: instead of executing them; responses carry ``status="shed"``
    shed_deadlines: bool = True
    #: in-flight depth beyond which low-priority dynamic-parallelism
    #: batches are proactively degraded to their non-nested fallback
    #: (None disables overload degradation)
    degrade_pending_threshold: int | None = None
    # ------------------------------------------------------- autoscaling
    #: autoscale the device group between ``min_devices``/``max_devices``
    #: from queue-depth and rolling-p99 signals (see docs/serving.md)
    autoscale: bool = False
    #: autoscaler floor (defaults to ``devices``)
    min_devices: int | None = None
    #: autoscaler ceiling (defaults to ``devices``)
    max_devices: int | None = None
    #: seconds between autoscaler evaluations
    scale_check_interval_s: float = 0.05
    #: scale up when in-flight depth exceeds this many requests per device
    scale_up_pending_per_device: int = 8
    #: also scale up when rolling p99 latency (ms) exceeds this (None
    #: disables the latency trigger)
    scale_up_p99_ms: float | None = None
    #: minimum seconds between consecutive autoscaler resizes
    scale_cooldown_s: float = 0.25

    def __post_init__(self) -> None:
        for name, floor in _COUNT_FLOORS.items():
            value = getattr(self, name)
            if value is not None or name not in _NONE_OK:
                check_count(name, value, floor, error=ServiceError)
        for name, zero_ok in _DURATION_ZERO_OK.items():
            value = getattr(self, name)
            if value is not None or name not in _NONE_OK:
                check_duration(name, value, zero_ok=zero_ok,
                               error=ServiceError)
        resolve_engine(self.engine, error=ServiceError)
        from repro.backends import resolve_backend

        resolve_backend(self.backend, error=ServiceError)
        if self.backend == "queue" and self.devices > 1:
            raise ServiceError(
                "the queue backend is single-device; use devices=1"
            )
        if self.default_priority not in PRIORITY_RANK:
            raise ServiceError(
                f"unknown priority {self.default_priority!r}; "
                f"known: {', '.join(PRIORITIES)}"
            )
        for name, bound in (self.max_pending_per_class or {}).items():
            if name not in PRIORITY_RANK:
                raise ServiceError(
                    f"unknown priority {name!r} in max_pending_per_class; "
                    f"known: {', '.join(PRIORITIES)}"
                )
            check_count(f"max_pending_per_class[{name!r}]", bound, 1,
                        error=ServiceError)
        for tenant, quota in (self.tenant_quotas or {}).items():
            check_count(f"tenant_quotas[{tenant!r}]", quota, 1,
                        error=ServiceError)
        if self.min_devices is None:
            self.min_devices = self.devices
        if self.max_devices is None:
            self.max_devices = max(self.devices, self.min_devices)
        if self.autoscale:
            if self.backend == "queue":
                raise ServiceError(
                    "the queue backend is single-device; autoscale needs sim"
                )
            if not 1 <= self.min_devices <= self.devices <= self.max_devices:
                raise ServiceError(
                    f"autoscale bounds must satisfy 1 <= min_devices "
                    f"({self.min_devices}) <= devices ({self.devices}) <= "
                    f"max_devices ({self.max_devices})"
                )

    def tenant_quota_of(self, tenant: str) -> int | None:
        """Effective in-flight quota of one tenant (None = unlimited)."""
        if self.tenant_quotas and tenant in self.tenant_quotas:
            return self.tenant_quotas[tenant]
        return self.tenant_quota


class TemplateService:
    """Async template-serving runtime (see module docstring).

    ``run_fn`` is injectable for fault testing: it takes one fusion
    group's list of :class:`~repro.service.workers.BatchSpec` and returns
    one :class:`~repro.core.base.TemplateRun` per spec (default
    :func:`~repro.service.workers.execute_batch_fused`).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        run_fn=None,
    ) -> None:
        self.config = config or ServiceConfig()
        if self.config.cache_dir is not None:
            from repro.core.artifactcache import configure_artifact_cache

            configure_artifact_cache(self.config.cache_dir or None)
        self.stats = ServiceStats(window=self.config.stats_window)
        self.batcher = MicroBatcher()
        #: device topology: None for the classic single-device service, a
        #: DeviceGroup tracking per-device load when devices > 1 (or when
        #: the autoscaler may grow past one device)
        self.device_group = None
        if self.config.devices > 1 or (
            self.config.autoscale and self.config.max_devices > 1
        ):
            from repro.backends import DeviceGroup

            self.device_group = DeviceGroup(
                self.config.device, self.config.devices,
                engine=self.config.engine,
            )
        self._run_fn = run_fn or execute_batch_fused
        self._queue: PriorityClassQueue | None = None
        self._loop_task: asyncio.Task | None = None
        self._scale_task: asyncio.Task | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._pending = 0
        #: in-flight requests per priority class / per tenant (admission
        #: bounds check these; decremented in _finish)
        self._class_pending = {name: 0 for name in PRIORITIES}
        self._tenant_pending: dict[str, int] = {}
        self._next_id = 0
        self._running = False
        #: named versioned workload streams (see register_workload)
        self._streams: dict[str, WorkloadStream] = {}

    @property
    def running(self) -> bool:
        return self._running

    @property
    def pending(self) -> int:
        """Admitted requests not yet answered."""
        return self._pending

    # ---------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bring the batch loop up (idempotent)."""
        if self._running:
            return
        self._queue = PriorityClassQueue()
        self._running = True
        self._loop_task = asyncio.create_task(
            self._batch_loop(), name="repro-service-batch-loop"
        )
        if self.config.autoscale and self.device_group is not None:
            self._scale_task = asyncio.create_task(
                self._autoscale_loop(), name="repro-service-autoscaler"
            )

    async def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` wait for in-flight work first.

        The drain wait is bounded by ``drain_timeout_s``: a dispatch path
        that wedged (or a run_fn that never returns) cannot hang shutdown
        forever.  Whatever is still unanswered at the bound — queued or
        mid-dispatch — gets a structured ``rejected``/``failed`` response
        instead of a leaked future.
        """
        if not self._running:
            return
        self._running = False
        drain_timed_out = False
        if drain:
            loop = asyncio.get_running_loop()
            bound = self.config.drain_timeout_s
            deadline = None if bound is None else loop.time() + bound
            while self._pending:
                if deadline is not None and loop.time() >= deadline:
                    drain_timed_out = True
                    obs.instant("service.drain_timeout",
                                pending=self._pending)
                    break
                await asyncio.sleep(0.005)
        if self._scale_task is not None:
            self._scale_task.cancel()
            try:
                await self._scale_task
            except asyncio.CancelledError:
                pass
            self._scale_task = None
        self._loop_task.cancel()
        try:
            await self._loop_task
        except asyncio.CancelledError:
            pass
        if self._dispatch_tasks:
            if drain_timed_out:
                # the drain bound fired: whatever is wedged mid-dispatch
                # is cancelled, and the dispatch wrapper answers its
                # requests with structured failures
                for task in list(self._dispatch_tasks):
                    task.cancel()
            await asyncio.gather(*self._dispatch_tasks, return_exceptions=True)
        # anything still queued (stop(drain=False) or a timed-out drain)
        # gets a structured answer
        while self._queue is not None and not self._queue.empty():
            request, future = self._queue.get_nowait()
            self._finish(
                request,
                future,
                Response(
                    id=request.id,
                    status="rejected",
                    template=str(getattr(request.template_obj, "name", "")),
                    workload=getattr(request.workload, "name", ""),
                    reason="service stopped before execution",
                    priority=request.priority,
                    tenant=request.tenant,
                ),
            )

    # ----------------------------------------------------------- streams
    def register_workload(
        self,
        name: str,
        workload,
        keep_versions: int = 8,
    ) -> WorkloadStream:
        """Register a named, versioned workload stream.

        Afterwards ``submit`` accepts the stream *name* in place of a
        workload object (optionally with ``version=`` to pin a retained
        snapshot), and :meth:`mutate_workload` advances the stream.
        """
        if not isinstance(name, str) or not name:
            raise ServiceError("stream name must be a non-empty string")
        if name in self._streams:
            raise ServiceError(f"workload stream {name!r} already registered")
        stream = WorkloadStream(name, workload, keep_versions=keep_versions)
        self._streams[name] = stream
        obs.instant("service.stream_register", stream=name,
                    version=stream.version)
        return stream

    def mutate_workload(self, name: str, batch, *,
                        warm_analysis: bool = True):
        """Apply one mutation batch to a registered stream.

        The new head is derived functionally — requests pinned to retained
        versions keep executing against their exact snapshots.  With
        ``warm_analysis`` (the default) the head's analysis is derived
        incrementally right here via :meth:`WorkloadAnalysis.apply_delta
        <repro.core.analysis.WorkloadAnalysis.apply_delta>`, so the next
        query on the new version pays a delta update, not a cold rebuild.
        Returns the :class:`~repro.core.mutation.MutationDelta`.
        """
        stream = self._stream_of(name)
        with obs.span("service.mutate", stream=name):
            delta = stream.mutate(batch)
        self.stats.record_mutation()
        if warm_analysis:
            from repro.core.analysis import get_analysis

            get_analysis(stream.head)
        return delta

    def _stream_of(self, name: str) -> WorkloadStream:
        stream = self._streams.get(name)
        if stream is None:
            known = ", ".join(sorted(self._streams)) or "none"
            raise ServiceError(
                f"unknown workload stream {name!r} (registered: {known})"
            )
        return stream

    # ---------------------------------------------------------- admission
    async def submit(
        self,
        template,
        workload=None,
        *,
        device: DeviceConfig | None = None,
        params: TemplateParams | None = None,
        engine: str | None = None,
        tenant: str = "",
        priority: str | None = None,
        deadline_s: float | None = None,
        version: int | None = None,
    ) -> Response:
        """Admit one query and await its response.

        ``template`` may be omitted by passing the workload alone
        (``submit(workload)``) or ``None`` — both fall back to the
        config's ``default_template`` (``"auto"`` unless overridden), so
        the service front door matches ``repro.run(workload)``.

        ``workload`` may be a registered stream name (a string), resolved
        to that stream's head — or, with ``version=``, to a pinned
        retained snapshot.  Snapshots are immutable, so a request admitted
        against version ``v`` executes against exactly ``v``'s trace even
        while the mutation stream advances.

        ``tenant``/``priority``/``deadline_s`` are the SLO knobs: tenant
        quotas and per-class bounds act at admission, the priority class
        orders scheduling, and the deadline arms deadline-aware shedding
        (defaults come from the config; see docs/serving.md).
        """
        if workload is None:
            template, workload = None, template
        if isinstance(workload, str):
            workload = self._stream_of(workload).get(version)
        elif version is not None:
            raise ServiceError(
                "version= requires a registered stream name as the workload"
            )
        request = Request(
            template=self.config.default_template if template is None else template,
            workload=workload,
            device=device or self.config.device,
            params=params or TemplateParams(),
            engine=engine or self.config.engine,
            backend=self.config.backend,
            tenant=tenant,
            priority=priority or self.config.default_priority,
            deadline_s=(
                deadline_s if deadline_s is not None
                else self.config.default_deadline_s
            ),
        )
        return await self.submit_request(request)

    def _reject(self, request: Request, kind: str, reason: str) -> Response:
        """Build one structured admission rejection (counted by kind)."""
        self.stats.record_rejected(kind=kind, priority=request.priority)
        obs.instant("service.reject", kind=kind, pending=self._pending,
                    priority=request.priority)
        return Response(
            id=request.id,
            status="rejected",
            template=str(getattr(request.template_obj, "name", "")),
            workload=getattr(request.workload, "name", ""),
            reason=reason,
            priority=request.priority,
            tenant=request.tenant,
        )

    async def submit_request(self, request: Request) -> Response:
        """Admit an already-built :class:`Request` and await its response.

        Admission control is immediate: over ``max_pending`` in-flight
        requests — or over the request's class bound or its tenant's
        quota — the return value is a ``rejected`` response carrying the
        queue state in ``reason``; the caller is never blocked on a full
        queue.  Every response, rejections included, carries a real
        monotonic ``id``.
        """
        if not self._running:
            raise ServiceError("service is not running (call start())")
        # ids are assigned before any admission check so every structured
        # rejection is correlatable (no more id=-1 responses)
        request.id = self._next_id
        self._next_id += 1
        if self._pending >= self.config.max_pending:
            return self._reject(
                request, "pending",
                f"queue full: {self._pending} in-flight requests >= "
                f"max_pending={self.config.max_pending}",
            )
        class_bound = (self.config.max_pending_per_class or {}).get(
            request.priority
        )
        if class_bound is not None \
                and self._class_pending[request.priority] >= class_bound:
            return self._reject(
                request, "class",
                f"class full: {self._class_pending[request.priority]} "
                f"in-flight {request.priority!r} requests >= "
                f"max_pending_per_class[{request.priority!r}]={class_bound}",
            )
        quota = self.config.tenant_quota_of(request.tenant)
        if quota is not None \
                and self._tenant_pending.get(request.tenant, 0) >= quota:
            return self._reject(
                request, "tenant",
                f"tenant quota: {self._tenant_pending.get(request.tenant, 0)} "
                f"in-flight requests of tenant {request.tenant!r} >= "
                f"quota={quota}",
            )
        loop = asyncio.get_running_loop()
        request.created_s = loop.time()
        request.created_perf = time.perf_counter()
        if request.deadline_s is not None:
            request.deadline_at = request.created_s + request.deadline_s
        self._pending += 1
        self._class_pending[request.priority] += 1
        self._tenant_pending[request.tenant] = (
            self._tenant_pending.get(request.tenant, 0) + 1
        )
        self.stats.record_admitted(self._pending, priority=request.priority)
        future = loop.create_future()
        self._queue.put_nowait((request, future))
        return await future

    # ------------------------------------------------------ batching loop
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            pending = [await self._queue.get()]
            deadline = loop.time() + self.config.batch_window_s
            try:
                while len(pending) < self.config.max_batch:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        pending.append(
                            await asyncio.wait_for(self._queue.get(), remaining)
                        )
                    except asyncio.TimeoutError:
                        break
            except asyncio.CancelledError:
                # stop() cancelled us mid-window: hand collected-but-
                # undispatched requests back so the stop path answers
                # them instead of leaving their futures pending forever
                self._queue.requeue_front(pending)
                raise
            with obs.span("service.coalesce", pending=len(pending)):
                batches = self.batcher.group(pending)
            for group in self._fusion_groups(batches):
                task = asyncio.create_task(self._dispatch(group))
                self._dispatch_tasks.add(task)
                task.add_done_callback(self._dispatch_tasks.discard)

    @staticmethod
    def _fusion_groups(batches: list[Batch]) -> list[list[Batch]]:
        """Split a window's batches into fusion groups.

        A group is every batch of the window sharing a backend kind,
        device, engine and priority class; it runs as one ``run_fn`` call,
        whose results are bit-identical to running each batch alone.
        Priority is in the key so a high-priority batch never waits on a
        low-priority co-traveller's build and run.  A lone batch is a
        one-member group.  Groups keep first-arrival order.
        """
        groups: dict[tuple, list[Batch]] = {}
        for batch in batches:
            spec = batch.spec
            key = (spec.backend, spec.device.fingerprint(), spec.engine,
                   batch.priority)
            groups.setdefault(key, []).append(batch)
        return list(groups.values())

    # -------------------------------------------------- execution policy
    async def _dispatch(self, batches: list[Batch], *,
                        split: bool = False) -> None:
        """Run one fusion group; every member future is always answered.

        Each batch first passes :meth:`_admit` (with ``split`` when the
        batches of a failed group re-enter here one at a time), then the
        live batches run as one group (:meth:`_run_group`).  A failure
        the policy does not model — a run_fn returning something other
        than one run per spec, a bug in the degradation path,
        cancellation by a timed-out drain — answers every member not yet
        answered with a structured ``failed`` response, so ``_pending``
        always drains and ``stop(drain=True)`` cannot spin forever.
        """
        try:
            batches = [batch for batch in batches
                       if self._admit(batch, split=split)]
            if batches:
                await self._run_group(batches)
        except asyncio.CancelledError:
            for batch in batches:
                self._answer(batch, "failed",
                             reason="cancelled during dispatch")
            raise
        except BaseException as exc:  # noqa: BLE001 - lifecycle boundary
            obs.instant("service.dispatch_error",
                        error=f"{type(exc).__name__}: {exc}")
            for batch in batches:
                self._answer(
                    batch, "failed",
                    reason=f"dispatch error: {type(exc).__name__}: {exc}",
                )

    def _admit(self, batch: Batch, *, split: bool = False) -> bool:
        """Per-batch policy before execution; False when ``batch`` was
        shed (and answered).

        A batch re-entering from a failed group (``split``) is checked
        against its deadline again — the failed attempt may have outlived
        it — but is counted, load-degraded and queue-routed only once.
        """
        if not split:
            self.stats.record_batch(batch.size)
        shed_reason = self._should_shed(batch)
        if shed_reason is not None:
            obs.instant("service.shed", size=batch.size,
                        priority=batch.priority, reason=shed_reason)
            self._answer(batch, "shed", reason=shed_reason)
            return False
        if split:
            return True
        self._maybe_degrade_for_load(batch)
        template_obj = batch.requests[0].template_obj
        if batch.spec.backend == "queue" and not getattr(
            template_obj, "queue_compatible", True
        ):
            # the queue cannot honour this template's launch-wide barrier
            # semantics; run_many routes the batch to the BSP simulator
            # (counted here, never silent)
            self.stats.record_queue_fallback()
            obs.instant("service.queue_fallback",
                        template=str(getattr(template_obj, "name", "")))
        return True

    async def _run_group(self, batches: list[Batch]) -> None:
        """Execute one fusion group and answer its members.

        The group holds one device of a device group from start to
        settlement.  If a group of several batches fails, each batch runs
        again as a one-batch group with the full retry and degradation
        policy, so fusion never fails a request that would have succeeded
        alone.
        """
        group = self.device_group
        # least-loaded routing: reserve one device for the group; release
        # it, crediting the simulated time the group ran, once it settles
        device = group.acquire() if group is not None else 0
        busy_ms = 0.0
        try:
            for batch in batches:
                batch.spec.device_index = None if group is None else device
            runs, error, attempts, degraded = await self._attempt(
                batches, device)
            if runs is not None:
                for i, batch in enumerate(batches):
                    self._answer(
                        batch, "ok", run=runs[i], attempts=attempts,
                        degraded=degraded or batch.load_degraded,
                        device=device,
                    )
                    busy_ms += runs[i].time_ms
                if len(batches) > 1:
                    self.stats.record_fused(len(batches))
                    obs.add_counter("service.fused_batches", len(batches))
        finally:
            if group is not None:
                group.complete(device, busy_ms=busy_ms)
        if runs is not None:
            return
        if len(batches) == 1:
            self._answer(batches[0], "failed",
                         reason=f"{type(error).__name__}: {error}",
                         attempts=attempts)
            return
        obs.instant("service.fuse_fallback", batches=len(batches),
                    error=f"{type(error).__name__}: {error}")
        for batch in batches:
            await self._dispatch([batch], split=True)

    async def _attempt(self, batches: list[Batch], device: int):
        """Run one group under the retry and degradation policy.

        Returns ``(runs, last error, attempts, degraded)``; runs is None
        when every attempt failed.  A group of several batches
        gets one attempt.  A one-batch group gets up to ``max_retries``
        retries with exponential backoff and then, when its template uses
        dynamic parallelism, one run of the family's non-nested fallback.
        """
        lead = batches[0]
        template_obj = lead.requests[0].template_obj
        template = "+".join(dict.fromkeys(
            str(getattr(b.requests[0].template_obj, "name", ""))
            for b in batches
        ))
        specs = [batch.spec for batch in batches]
        tries = 1 if len(batches) > 1 else 1 + self.config.max_retries
        error: BaseException | None = None
        with obs.span("service.batch", batches=len(batches),
                      size=sum(b.size for b in batches), template=template,
                      device=device):
            for attempt in range(tries):
                try:
                    with obs.span("service.execute", attempt=attempt + 1,
                                  batches=len(batches), template=template):
                        runs = await self._execute(specs)
                    return runs, None, attempt + 1, False
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # noqa: BLE001 - policy boundary
                    error = exc
                    if attempt + 1 < tries:
                        self.stats.record_retry(
                            isinstance(exc, asyncio.TimeoutError))
                        await asyncio.sleep(
                            self.config.retry_backoff_s * (2 ** attempt))
            if len(batches) > 1 or not self.config.degrade or not getattr(
                template_obj, "uses_dynamic_parallelism", False
            ):
                return None, error, tries, False
            kind = lead.requests[0].kind
            fallback = DEGRADE_FALLBACK[kind]
            try:
                with obs.span("service.degrade", fallback=fallback,
                              template=template):
                    runs = await self._execute([replace(
                        lead.spec, template=resolve(fallback, kind=kind))])
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 - policy boundary
                return None, exc, tries, False
            self.stats.record_degraded(priority=lead.priority)
            return runs, None, tries + 1, True

    async def _execute(self, specs: list[BatchSpec]) -> list:
        """One ``run_fn`` call on a worker thread, under the timeout."""
        start = time.perf_counter()
        runs = await asyncio.wait_for(
            asyncio.to_thread(self._run_fn, specs),
            self.config.request_timeout_s,
        )
        self.stats.record_exec(time.perf_counter() - start)
        return runs

    def _answer(self, batch: Batch, status: str, *, run=None,
                reason: str | None = None, attempts: int = 0,
                degraded: bool = False, device: int = 0) -> None:
        """Answer every not-yet-answered member of ``batch``: from one
        :class:`~repro.core.base.TemplateRun` when there is one, else with
        ``status`` and ``reason`` alone."""
        if run is None:
            time_ms, metrics, cache_hit = None, {}, False
        else:
            self.stats.record_plan(run.plan_level)
            time_ms, metrics = run.time_ms, run.metrics.as_dict()
            cache_hit = run.plan_level == "memory"
        now = asyncio.get_running_loop().time()
        for request, future in zip(batch.requests, batch.futures):
            if run is None:
                template = str(getattr(request.template_obj, "name", ""))
                workload = getattr(request.workload, "name", "")
            else:
                template, workload = run.template, run.workload
            self._finish(
                request,
                future,
                Response(
                    id=request.id,
                    status=status,
                    template=template,
                    workload=workload,
                    degraded=degraded,
                    reason=reason,
                    time_ms=time_ms,
                    metrics=metrics,
                    latency_s=now - request.created_s,
                    batch_size=batch.size,
                    attempts=attempts,
                    cache_hit=cache_hit,
                    device=device,
                    priority=request.priority,
                    tenant=request.tenant,
                ),
            )

    def _should_shed(self, batch: Batch) -> str | None:
        """Deadline-aware scheduling: reason to shed, or None to run.

        A batch is shed when its tightest member deadline already passed,
        or when the rolling mean execution time predicts the run cannot
        finish before it.  Predictive shedding drops work *before* paying
        for it — the paper's admission analogue of cutting a kernel whose
        launch latency alone would blow the budget.
        """
        if not self.config.shed_deadlines:
            return None
        deadline_at = batch.deadline_at
        if deadline_at is None:
            return None
        now = asyncio.get_running_loop().time()
        if now >= deadline_at:
            return "deadline expired before execution"
        mean = self.stats.mean_exec_s()
        if mean > 0.0 and now + mean > deadline_at:
            return (
                f"deadline unreachable: {deadline_at - now:.4f}s left, "
                f"mean execution {mean:.4f}s"
            )
        return None

    def _maybe_degrade_for_load(self, batch: Batch) -> None:
        """Overload policy: degrade low-priority dynpar batches up front.

        When the in-flight depth crosses ``degrade_pending_threshold``,
        a ``low``-priority batch whose template uses dynamic parallelism
        is rewritten to the family's non-nested fallback *before*
        execution — trading its fidelity for queue headroom, without
        touching high/normal traffic.
        """
        threshold = self.config.degrade_pending_threshold
        if threshold is None or self._pending < threshold:
            return
        if batch.priority != "low":
            return
        template_obj = batch.requests[0].template_obj
        if not getattr(template_obj, "uses_dynamic_parallelism", False):
            return
        kind = batch.requests[0].kind
        fallback = DEGRADE_FALLBACK[kind]
        batch.spec = replace(batch.spec, template=resolve(fallback, kind=kind))
        batch.load_degraded = True
        self.stats.record_degraded(priority=batch.priority, under_load=True)
        obs.instant("service.load_degrade", fallback=fallback,
                    pending=self._pending, size=batch.size)

    def _finish(self, request: Request, future, response: Response) -> None:
        if getattr(request, "_answered", False):
            return
        request._answered = True
        self._pending -= 1
        self._class_pending[request.priority] -= 1
        tenant_left = self._tenant_pending.get(request.tenant, 0) - 1
        if tenant_left > 0:
            self._tenant_pending[request.tenant] = tenant_left
        else:
            self._tenant_pending.pop(request.tenant, None)
        self.stats.record_depth(self._pending)
        self.stats.record_response(
            response.status, response.latency_s, priority=request.priority
        )
        if obs.enabled() and request.created_perf:
            now = time.perf_counter()
            obs.complete(
                "service.request", request.created_perf,
                now - request.created_perf, status=response.status,
                template=response.template, batch_size=response.batch_size,
                degraded=response.degraded,
            )
        if not future.done():
            future.set_result(response)

    # ------------------------------------------------------- autoscaling
    async def _autoscale_loop(self) -> None:
        """Elastic device-group sizing from queue-depth and p99 signals.

        Scale **up** when the in-flight depth exceeds
        ``scale_up_pending_per_device`` per device (or rolling p99 crosses
        ``scale_up_p99_ms``); scale **down** when depth would comfortably
        fit on one device fewer and latency is healthy.  Resizes respect
        ``min_devices``/``max_devices`` and a cooldown, and the group only
        ever removes an idle member, so a device with in-flight batches is
        never torn down (see DeviceGroup.remove_member).
        """
        loop = asyncio.get_running_loop()
        last_change = loop.time() - self.config.scale_cooldown_s
        while True:
            await asyncio.sleep(self.config.scale_check_interval_s)
            now = loop.time()
            if now - last_change < self.config.scale_cooldown_s:
                continue
            n = self.device_group.n_devices
            p99 = self.stats.rolling_p99_ms()
            overloaded = (
                self._pending >= self.config.scale_up_pending_per_device * n
            )
            if not overloaded and self.config.scale_up_p99_ms is not None:
                overloaded = p99 > self.config.scale_up_p99_ms
            if overloaded and n < self.config.max_devices:
                self.device_group.add_member()
                self.stats.record_scale(up=True)
                obs.instant("service.scale_up", devices=n + 1,
                            pending=self._pending)
                last_change = now
                continue
            if n > self.config.min_devices:
                fits_smaller = self._pending * 2 <= (
                    self.config.scale_up_pending_per_device * (n - 1)
                )
                latency_ok = (
                    self.config.scale_up_p99_ms is None
                    or p99 <= self.config.scale_up_p99_ms
                )
                if fits_smaller and latency_ok \
                        and self.device_group.remove_member():
                    self.stats.record_scale(up=False)
                    obs.instant("service.scale_down", devices=n - 1,
                                pending=self._pending)
                    last_change = now

    # ----------------------------------------------------------- metrics
    def snapshot(self) -> dict:
        """Service counters in one dict (``stats()`` on handles)."""
        snap = self.stats.snapshot()
        from repro.core.artifactcache import get_artifact_cache

        disk = get_artifact_cache()
        if disk is not None:
            snap["disk_cache"] = disk.snapshot()
        if obs.enabled():
            # aggregated per-span-name timings of the traced region; the
            # tracer is process-wide, so concurrent traced work outside
            # this service shows up too
            snap["obs"] = obs.summary()
        if self.device_group is not None:
            snap["devices"] = self.device_group.snapshot()
        if self._queue is not None:
            snap["queue"] = {"per_class": self._queue.sizes()}
        if self._streams:
            snap["streams"] = {
                name: stream.snapshot()
                for name, stream in self._streams.items()
            }
        snap["config"] = {
            "max_pending": self.config.max_pending,
            "max_batch": self.config.max_batch,
            "batch_window_s": self.config.batch_window_s,
            "engine": self.config.engine,
            "backend": self.config.backend,
            "devices": self.config.devices,
            "default_priority": self.config.default_priority,
            "tenant_quota": self.config.tenant_quota,
            "default_deadline_s": self.config.default_deadline_s,
            "shed_deadlines": self.config.shed_deadlines,
            "degrade_pending_threshold":
                self.config.degrade_pending_threshold,
            "autoscale": self.config.autoscale,
            "min_devices": self.config.min_devices,
            "max_devices": self.config.max_devices,
            "drain_timeout_s": self.config.drain_timeout_s,
        }
        return snap
