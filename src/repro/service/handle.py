"""Synchronous facade over :class:`TemplateService`.

The service is an asyncio runtime; most callers (benchmarks, notebooks,
scripts) are synchronous.  :class:`ServiceHandle` runs the service's
event loop on a dedicated daemon thread and exposes a thread-safe
submit/request/stats surface::

    with repro.serve(max_batch=32) as svc:
        futures = [svc.submit("dbuf-global", wl) for wl in workloads]
        responses = [f.result() for f in futures]
        print(svc.stats()["latency_ms"])

``submit`` returns a ``concurrent.futures.Future`` so many requests can
be in flight from one caller thread; requests that are queued together
when the batch loop takes a window coalesce.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading

from repro.errors import ServiceError
from repro.service.request import Response
from repro.service.service import ServiceConfig, TemplateService

__all__ = ["ServiceHandle", "serve"]


class ServiceHandle:
    """Owns a service + its event-loop thread; context-manager friendly."""

    def __init__(
        self, config: ServiceConfig | None = None, **service_kwargs
    ) -> None:
        self._service = TemplateService(config, **service_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        self._closed = False
        self._call(self._service.start())

    # ------------------------------------------------------------ plumbing
    def _call(self, coro):
        """Run a coroutine on the service loop and wait for its result."""
        if self._closed:
            raise ServiceError("service handle is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # ---------------------------------------------------------------- API
    def submit(
        self, template, workload=None, **kwargs
    ) -> concurrent.futures.Future:
        """Submit without blocking; the future resolves to a Response.

        ``submit(workload)`` alone (or ``template=None``) uses
        ``"auto"``, as ``repro.run(workload)`` does.
        """
        if self._closed:
            raise ServiceError("service handle is closed")
        return asyncio.run_coroutine_threadsafe(
            self._service.submit(template, workload, **kwargs), self._loop
        )

    def request(self, template, workload=None, **kwargs) -> Response:
        """Blocking convenience: submit and wait for the response."""
        return self.submit(template, workload, **kwargs).result()

    def register_workload(self, name: str, workload, keep_versions: int = 8):
        """Register a versioned workload stream (see docs/streaming.md).

        Runs on the service loop so registration serializes against
        mutation and snapshot resolution.  Returns the
        :class:`~repro.service.streams.WorkloadStream`.
        """

        async def _register():
            return self._service.register_workload(
                name, workload, keep_versions=keep_versions
            )

        return self._call(_register())

    def mutate_workload(self, name: str, batch):
        """Apply a mutation batch to a registered stream; returns the
        :class:`~repro.core.mutation.MutationDelta`."""

        async def _mutate():
            return self._service.mutate_workload(name, batch)

        return self._call(_mutate())

    def stats(self) -> dict:
        """Point-in-time service/queue/latency counters."""
        return self._service.snapshot()

    @property
    def service(self) -> TemplateService:
        """The underlying service (for tests and advanced callers)."""
        return self._service

    def close(self, drain: bool = True) -> None:
        """Stop the service and tear the loop thread down (idempotent)."""
        if self._closed:
            return
        try:
            self._call(self._service.stop(drain=drain))
        finally:
            self._closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(config: ServiceConfig | None = None, **config_kwargs) -> ServiceHandle:
    """Start a serving runtime and return its synchronous handle.

    Pass a full :class:`ServiceConfig`, or its fields as keyword
    arguments (``repro.serve(max_batch=32, max_retries=0)``); combining both
    is ambiguous and raises.
    """
    if config is not None and config_kwargs:
        raise ServiceError("pass a ServiceConfig or keyword fields, not both")
    if config is None:
        config = ServiceConfig(**config_kwargs)
    return ServiceHandle(config)
