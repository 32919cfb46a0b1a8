"""The asyncio serving runtime: admission, batching, execution policy.

:class:`TemplateService` turns the one-shot ``repro.run`` facade into a
long-lived server.  The life of a request:

1. **Admission** — ``submit()`` resolves the template eagerly and applies
   backpressure: beyond ``max_pending`` in-flight requests, the answer is
   an immediate structured *rejection* response (never an indefinite
   block) so callers can shed or retry upstream.
2. **Collection** — the batch loop takes the head of the queue plus
   whatever else is already queued (up to ``max_batch`` requests) and
   hands that window to the :class:`~repro.service.batcher.MicroBatcher`,
   which coalesces requests sharing a batch key into one batch.  It never
   waits for co-travellers: the loop is work-conserving.
3. **Execution** — the window's batches split into fusion groups, one
   per (backend kind, device config, engine); each group runs
   as one :func:`~repro.service.workers.execute_batch_fused` call, on a
   one-device backend of its own and a worker thread, under a
   per-request timeout.  A lone batch is a one-member group and gets
   bounded exponential-backoff retries; a failed group of several
   batches splits into one-batch groups.
4. **Degradation** — when every attempt of a one-batch group failed and
   the template uses dynamic parallelism, the batch re-runs on the
   family's non-nested fallback (``thread-mapped`` / ``flat``) and the
   responses carry ``degraded=True``; otherwise the responses are
   ``failed`` with the last error as the reason.

Everything observable lands in ``stats()``.  The service simulates one
device per group; sharding one workload across several simulated devices
is ``repro.run(workload, devices=N)``.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.core.params import TemplateParams
from repro.core.registry import resolve
from repro.errors import ServiceError, check_count, check_duration
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.executor import resolve_engine
from repro.service.batcher import Batch, MicroBatcher
from repro.service.metrics import ServiceStats
from repro.service.request import DEGRADE_FALLBACK, Request, Response
from repro.service.streams import WorkloadStream
from repro.service.workers import BatchSpec, execute_batch_fused

__all__ = ["ServiceConfig", "TemplateService"]


#: integer config fields and the smallest value each accepts
_COUNT_FLOORS = {"max_pending": 1, "max_batch": 1, "max_retries": 0}
#: time config fields (seconds) and whether each accepts zero
_DURATION_ZERO_OK = {
    "request_timeout_s": False, "retry_backoff_s": True,
    "drain_timeout_s": False,
}
#: duration fields whose None means "no bound"
_NONE_OK = frozenset({"request_timeout_s", "drain_timeout_s"})


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`TemplateService`."""

    #: admission bound: in-flight requests beyond this are rejected
    max_pending: int = 256
    #: most requests one collection window may gather
    max_batch: int = 16
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
    #: default simulated device
    device: DeviceConfig = field(default_factory=lambda: KEPLER_K20)
    #: disk artifact cache: None inherits the process default
    #: (REPRO_CACHE_DIR), "" disables it, a path enables it.  The disk
    #: level is process-wide: a service built with a cache_dir replaces
    #: it for every service and every ``repro.run`` in the process (the
    #: last service built wins), and the setting outlives ``stop()`` /
    #: ``close()``
    cache_dir: str | None = None
    #: bound on how long ``stop(drain=True)`` waits for in-flight work
    #: before answering stragglers with structured failures (None waits
    #: forever — the pre-bound behaviour)
    drain_timeout_s: float | None = 30.0

    def __post_init__(self) -> None:
        # checked values are stored as plain int / float, so a NumPy
        # number never reaches stats() (whose snapshot must be JSON)
        for name, floor in _COUNT_FLOORS.items():
            value = getattr(self, name)
            check_count(name, value, floor, error=ServiceError)
            setattr(self, name, int(value))
        for name, zero_ok in _DURATION_ZERO_OK.items():
            value = getattr(self, name)
            if value is not None or name not in _NONE_OK:
                check_duration(name, value, zero_ok=zero_ok,
                               error=ServiceError)
                setattr(self, name, float(value))
        resolve_engine(self.engine, error=ServiceError)
        from repro.backends import resolve_backend

        resolve_backend(self.backend, error=ServiceError)
        # a truthy string such as "no" must not switch degradation on
        if not isinstance(self.degrade, bool):
            raise ServiceError(
                f"degrade must be a bool, got {self.degrade!r}")
        if not isinstance(self.device, DeviceConfig):
            raise ServiceError(
                f"device must be a DeviceConfig, got {self.device!r}")
        if self.cache_dir is not None \
                and not isinstance(self.cache_dir, (str, os.PathLike)):
            raise ServiceError(
                "cache_dir must be None, a string or a path, "
                f"got {self.cache_dir!r}")


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
        self.stats = ServiceStats()
        self.batcher = MicroBatcher()
        self._run_fn = run_fn or execute_batch_fused
        self._queue: asyncio.Queue | None = None
        self._loop_task: asyncio.Task | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._pending = 0
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
        self._queue = asyncio.Queue()
        self._running = True
        self._loop_task = asyncio.create_task(
            self._batch_loop(), name="repro-service-batch-loop"
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
        version: int | None = None,
    ) -> Response:
        """Admit one query and await its response.

        ``template`` may be omitted by passing the workload alone
        (``submit(workload)``) or ``None`` — both mean ``"auto"``, so the
        service front door matches ``repro.run(workload)``.

        ``workload`` may be a registered stream name (a string), resolved
        to that stream's head — or, with ``version=``, to a pinned
        retained snapshot.  Snapshots are immutable, so a request admitted
        against version ``v`` executes against exactly ``v``'s trace even
        while the mutation stream advances.

        Admission control is immediate: over ``max_pending`` in-flight
        requests the return value is a ``rejected`` response carrying the
        queue state in ``reason``; the caller is never blocked on a full
        queue.  Every response, rejections included, carries a real
        monotonic ``id``.
        """
        if workload is None:
            template, workload = None, template
        if isinstance(workload, str):
            workload = self._stream_of(workload).get(version)
        elif version is not None:
            raise ServiceError(
                "version= requires a registered stream name as the workload"
            )
        # only None means "the default": a falsy malformed argument
        # ({}, "", 0) reaches the Request checks like any other
        request = Request(
            template="auto" if template is None else template,
            workload=workload,
            device=self.config.device if device is None else device,
            params=TemplateParams() if params is None else params,
            engine=self.config.engine if engine is None else engine,
            backend=self.config.backend,
        )
        if not self._running:
            raise ServiceError("service is not running (call start())")
        # ids are assigned before the admission check so every structured
        # rejection is correlatable (no id=-1 responses)
        request.id = self._next_id
        self._next_id += 1
        if self._pending >= self.config.max_pending:
            self.stats.record_rejected()
            obs.instant("service.reject", pending=self._pending)
            return Response(
                id=request.id,
                status="rejected",
                template=str(getattr(request.template_obj, "name", "")),
                workload=getattr(request.workload, "name", ""),
                reason=(f"queue full: {self._pending} in-flight requests "
                        f">= max_pending={self.config.max_pending}"),
            )
        loop = asyncio.get_running_loop()
        request.created_s = loop.time()
        request.created_perf = time.perf_counter()
        self._pending += 1
        self.stats.record_admitted(self._pending)
        future = loop.create_future()
        self._queue.put_nowait((request, future))
        return await future

    # ------------------------------------------------------ batching loop
    async def _batch_loop(self) -> None:
        """Take the head of the queue, add whatever else is already
        queued (up to ``max_batch``) and dispatch the window.

        Requests enqueued in one event-loop tick (one ``gather``, or a
        burst that arrived while the loop was busy) share a window; a
        lone request is dispatched at once.  The only await is for the
        head, so ``stop()`` can cancel the loop only while it waits for
        one, never with a window in hand.  A window that cannot be
        grouped is answered with structured ``failed`` responses, and the
        loop goes on to the next one.
        """
        while True:
            pending = [await self._queue.get()]
            while len(pending) < self.config.max_batch \
                    and not self._queue.empty():
                pending.append(self._queue.get_nowait())
            try:
                with obs.span("service.coalesce", pending=len(pending)):
                    batches = self.batcher.group(pending)
                groups = self._fusion_groups(batches)
                for batch in batches:
                    self._admit(batch)
            except Exception as exc:  # noqa: BLE001 - lifecycle boundary
                error = f"{type(exc).__name__}: {exc}"
                obs.instant("service.dispatch_error", error=error)
                for request, future in pending:
                    self._answer(Batch(spec=None, requests=[request],
                                       futures=[future]),
                                 "failed", reason=f"dispatch error: {error}")
                continue
            for group in groups:
                task = asyncio.create_task(self._dispatch(group))
                self._dispatch_tasks.add(task)
                task.add_done_callback(self._dispatch_tasks.discard)

    @staticmethod
    def _fusion_groups(batches: list[Batch]) -> list[list[Batch]]:
        """Split a window's batches into fusion groups.

        A group is every batch of the window sharing a backend kind,
        device and engine; it runs as one ``run_fn`` call, whose results
        are bit-identical to running each batch alone.  A lone batch is a
        one-member group.  Groups keep first-arrival order.
        """
        groups: dict[tuple, list[Batch]] = {}
        for batch in batches:
            spec = batch.spec
            key = (spec.backend, spec.device.fingerprint(), spec.engine)
            groups.setdefault(key, []).append(batch)
        return list(groups.values())

    # -------------------------------------------------- execution policy
    async def _dispatch(self, batches: list[Batch]) -> None:
        """Run one fusion group; every member future is always answered.

        The batches run as one group (:meth:`_run_group`).  A failure the
        policy does not model — a run_fn returning something other than
        one run per spec, a bug in the degradation path, cancellation by a
        timed-out drain — answers every member not yet answered with a
        structured ``failed`` response, so ``_pending`` always drains and
        ``stop(drain=True)`` cannot spin forever.
        """
        try:
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

    def _admit(self, batch: Batch) -> None:
        """Count one batch, and its queue fallback, once per window."""
        self.stats.record_batch(batch.size)
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

    async def _run_group(self, batches: list[Batch]) -> None:
        """Execute one fusion group and answer its members.

        If a group of several batches fails, each batch runs again as a
        one-batch group with the full retry and degradation policy, so
        fusion never fails a request that would have succeeded alone.
        """
        runs, error, attempts, degraded = await self._attempt(batches)
        if runs is not None:
            for i, batch in enumerate(batches):
                self._answer(batch, "ok", run=runs[i], attempts=attempts,
                             degraded=degraded)
            if len(batches) > 1:
                self.stats.record_fused(len(batches))
                obs.add_counter("service.fused_batches", len(batches))
            return
        if len(batches) == 1:
            self._answer(batches[0], "failed",
                         reason=f"{type(error).__name__}: {error}",
                         attempts=attempts)
            return
        obs.instant("service.fuse_fallback", batches=len(batches),
                    error=f"{type(error).__name__}: {error}")
        for batch in batches:
            await self._dispatch([batch])

    async def _attempt(self, batches: list[Batch]):
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
                      size=sum(b.size for b in batches), template=template):
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
            self.stats.record_degraded()
            return runs, None, tries + 1, True

    async def _execute(self, specs: list[BatchSpec]) -> list:
        """One ``run_fn`` call on a worker thread, under the timeout."""
        return await asyncio.wait_for(
            asyncio.to_thread(self._run_fn, specs),
            self.config.request_timeout_s,
        )

    def _answer(self, batch: Batch, status: str, *, run=None,
                reason: str | None = None, attempts: int = 0,
                degraded: bool = False) -> None:
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
                ),
            )

    def _finish(self, request: Request, future, response: Response) -> None:
        if getattr(request, "_answered", False):
            return
        request._answered = True
        self._pending -= 1
        self.stats.record_depth(self._pending)
        self.stats.record_response(response.status, response.latency_s)
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
        if self._streams:
            snap["streams"] = {
                name: stream.snapshot()
                for name, stream in self._streams.items()
            }
        snap["config"] = {
            "max_pending": self.config.max_pending,
            "max_batch": self.config.max_batch,
            "engine": self.config.engine,
            "backend": self.config.backend,
            "drain_timeout_s": self.config.drain_timeout_s,
        }
        return snap
