"""Batch execution: the worker function and the process-pool wrapper.

:func:`execute_batch_fused` is the one function that actually runs
templates — module-level and driven by picklable :class:`BatchSpec`
objects, so the same code serves the inline fast path (a worker thread of
the event loop) and the :class:`WorkerPool` (a ``ProcessPoolExecutor``);
:func:`execute_batch` is its one-spec case.  Pool workers keep
their own process-local plan caches, which warm up across batches exactly
like the bench runner's workers do.

The pool wrapper owns the messy parts of using processes as a serving
substrate: per-call timeouts, detecting a broken pool (a worker died
mid-call) and transparently respawning it, and recycling the pool after a
timeout so a hung worker cannot pin a slot forever.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.backends import SimBackend, effective_backend
from repro.core.artifactcache import configure_artifact_cache
from repro.core.params import TemplateParams
from repro.core.registry import resolve
from repro.errors import ServiceError
from repro.gpusim.config import DeviceConfig, KEPLER_K20

__all__ = [
    "BatchSpec",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "WorkerPool",
    "execute_batch",
    "execute_batch_fused",
]


class WorkerTimeoutError(ServiceError):
    """A batch execution exceeded the per-request timeout."""


class WorkerCrashError(ServiceError):
    """A pool worker died (or the pool broke) while executing a batch."""


@dataclass
class BatchSpec:
    """Everything one batch execution needs — picklable when the template
    is given by name (instance-templates are routed inline)."""

    template: object  # canonical name or template instance
    workload: object
    kind: str
    device: DeviceConfig = KEPLER_K20
    params: TemplateParams = field(default_factory=TemplateParams)
    engine: str = "fast"
    #: disk artifact cache for the executing process: None leaves the
    #: process default alone, "" disables it, a path enables it
    cache_dir: str | None = None
    #: device this batch was routed to by the service's DeviceGroup;
    #: None on a single-device service (no per-device obs counters)
    device_index: int | None = None
    #: execution model: "sim" (bulk-synchronous) or "queue" (persistent
    #: task queues, single-device; see docs/taskqueue.md)
    backend: str = "sim"


def execute_batch(spec: BatchSpec) -> dict:
    """Run one batch's template once; return a picklable result summary.

    The one-spec case of :func:`execute_batch_fused`.  The summary — not
    the full :class:`TemplateRun` — crosses the process boundary: launch
    graphs of large workloads are megabytes, and every request in the
    batch only needs the timing/metrics payload.
    """
    return execute_batch_fused([spec])[0]


def execute_batch_fused(specs: list[BatchSpec]) -> list[dict]:
    """Run several batches with **one** fused executor pass; summaries
    align with ``specs``.

    All specs must share a device config, engine, cache_dir and backend
    kind (the service's fusion grouping guarantees this).  Plans resolve
    per spec through the tiered cache
    (:meth:`~repro.core.base._TemplateBase._prepare` — plan, then run
    probe); the run misses then execute as one
    :meth:`~repro.backends.Backend.submit_many` call per backend (a
    queue-incompatible template falls back to its own sim backend), which
    is bit-identical to running them one at a time.

    ``cache_hits`` is 1 when the spec's plan came from memory and
    ``cache_misses`` is 1 when it did not (both 0 for templates that
    don't expose the prepare seam — custom instances, which run one at a
    time within the same call).
    """
    if not specs:
        return []
    first = specs[0]
    if first.cache_dir is not None:
        configure_artifact_cache(first.cache_dir or None)
    if first.backend == "queue":
        from repro.queue.backend import QueueBackend

        backend = QueueBackend(first.device, engine=first.engine)
    else:
        backend = SimBackend(first.device, engine=first.engine,
                             device_index=first.device_index)
    start = time.perf_counter()
    summaries: list[dict] = []
    #: (summary index, effective backend, _PreparedRun) of run-tier misses
    pending: list[tuple[int, object, object]] = []
    for spec in specs:
        tmpl = (
            resolve(spec.template, kind=spec.kind)
            if isinstance(spec.template, str)
            else spec.template
        )
        params = spec.params or TemplateParams()
        prepare = getattr(tmpl, "_prepare", None)
        if prepare is None:
            run = tmpl.run(spec.workload, spec.device, params,
                           backend=backend)
            prep = None
        else:
            eff = effective_backend(backend, tmpl)
            prep = prepare(spec.workload, spec.device, params, eff)
            run = prep.finish() if prep.result is not None else None
        hit = prep is not None and prep.plan_level == "memory"
        summaries.append({
            "template": None,
            "workload": getattr(spec.workload, "name", ""),
            "time_ms": None,
            "metrics": None,
            "wall_s": 0.0,
            "cache_hits": int(hit),
            "cache_misses": int(prep is not None and not hit),
            "device": spec.device_index or 0,
        })
        if run is not None:
            _fill(summaries[-1], run)
        else:
            pending.append((len(summaries) - 1, eff, prep))
    groups: dict[int, tuple[object, list]] = {}
    for idx, eff, prep in pending:
        groups.setdefault(id(eff), (eff, []))[1].append((idx, prep))
    for eff, members in groups.values():
        # one fused event loop over every run-tier miss in the window
        results = eff.submit_many([prep.graph for _, prep in members])
        for (idx, prep), result in zip(members, results):
            prep.record(result)
            _fill(summaries[idx], prep.finish())
    wall = time.perf_counter() - start
    for summary in summaries:
        summary["wall_s"] = wall
    return summaries


def _fill(summary: dict, run) -> None:
    """Copy a finished run's payload into its summary."""
    summary["template"] = run.template
    summary["workload"] = run.workload
    summary["time_ms"] = run.time_ms
    summary["metrics"] = run.metrics.as_dict()


class WorkerPool:
    """A ``ProcessPoolExecutor`` hardened for serving.

    Parameters
    ----------
    max_workers:
        pool size (processes under the default factory).
    executor_factory:
        ``f(max_workers) -> Executor``; tests substitute a thread-backed
        executor so fault injection needs no real child processes.
    run_fn:
        the batch function submitted to the executor (default
        :func:`execute_batch`); fault tests substitute crashing/hanging
        stand-ins.
    """

    def __init__(
        self,
        max_workers: int = 2,
        executor_factory=None,
        run_fn=None,
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._factory = executor_factory or (
            lambda n: ProcessPoolExecutor(max_workers=n)
        )
        self.run_fn = run_fn or execute_batch
        self._pool = None
        self.submitted = 0
        self.completed = 0
        self.crashes = 0
        self.timeouts = 0
        #: plain exceptions raised by run_fn (PlanError, ...): the worker
        #: survived, the batch did not.  Every submission lands in exactly
        #: one of completed/crashes/timeouts/failures.
        self.failures = 0
        self.recycles = 0

    def _ensure(self):
        if self._pool is None:
            self._pool = self._factory(self.max_workers)
        return self._pool

    def resize(self, max_workers: int) -> None:
        """Change the pool size; takes effect at the next (re)spawn.

        The autoscaler calls this alongside device-group resizes.  An
        existing executor is recycled only when *growing* — shrinking
        just lowers the size the next respawn uses, so in-flight batches
        are never abandoned to shed idle capacity.
        """
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if max_workers == self.max_workers:
            return
        grew = max_workers > self.max_workers
        self.max_workers = max_workers
        if grew and self._pool is not None:
            self.recycle()

    def recycle(self) -> None:
        """Replace the executor; old workers finish (or die) detached.

        Called after a timeout: a hung task cannot be cancelled, but a
        fresh pool restores the advertised parallelism immediately.
        """
        pool, self._pool = self._pool, None
        self.recycles += 1
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    async def run(self, spec: BatchSpec, timeout_s: float | None) -> dict:
        """Execute ``spec`` on the pool with a timeout; raises
        :class:`WorkerTimeoutError` / :class:`WorkerCrashError`."""
        self.submitted += 1
        try:
            future = self._ensure().submit(self.run_fn, spec)
        except BrokenExecutor as exc:
            self.crashes += 1
            self.recycle()
            raise WorkerCrashError(f"worker pool broken at submit: {exc}") from exc
        try:
            result = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout_s
            )
        except asyncio.TimeoutError:
            future.cancel()
            self.timeouts += 1
            self.recycle()
            raise WorkerTimeoutError(
                f"batch exceeded {timeout_s:g}s on the worker pool"
            ) from None
        except BrokenExecutor as exc:
            self.crashes += 1
            self.recycle()
            raise WorkerCrashError(f"worker process died: {exc}") from exc
        except asyncio.CancelledError:
            raise
        except BaseException:
            # run_fn raised (e.g. PlanError): a failed batch, not a dead
            # worker — count it so snapshot() totals reconcile
            self.failures += 1
            raise
        self.completed += 1
        return result

    def shutdown(self) -> None:
        """Tear the pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def snapshot(self) -> dict:
        """Pool counters for ``service.stats()``."""
        return {
            "max_workers": self.max_workers,
            "submitted": self.submitted,
            "completed": self.completed,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "recycles": self.recycles,
        }

    def invariant_violations(self) -> list[str]:
        """Accounting violations (empty when consistent and quiescent)."""
        settled = self.completed + self.crashes + self.timeouts + self.failures
        if self.submitted != settled:
            return [
                f"pool submitted ({self.submitted}) != completed "
                f"({self.completed}) + crashes ({self.crashes}) + "
                f"timeouts ({self.timeouts}) + failures ({self.failures})"
            ]
        return []
