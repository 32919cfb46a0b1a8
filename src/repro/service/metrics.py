"""Serving metrics: counters, latency percentiles, batching stats.

One :class:`ServiceStats` instance per service.  The event loop records
into it; ``snapshot()`` may be called from any thread (the sync handle
reads it from the caller's thread), so mutation goes through a lock.
Latencies and batch sizes are kept in bounded windows — the service is
long-lived and must not grow memory with traffic.

Every lifecycle counter is additionally kept **per priority class**
(``high`` / ``normal`` / ``low``), including a per-class latency window,
so the SLO bench can report p50/p99 per class straight off a snapshot.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["percentile", "percentiles", "ServiceStats", "ClassStats"]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    ``values`` must be sorted ascending; returns 0.0 for an empty list.
    """
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    pos = (q / 100.0) * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    frac = pos - lo
    return float(values[lo] * (1 - frac) + values[hi] * frac)


def percentiles(values, qs=(50, 95, 99)) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` for an unsorted iterable."""
    ordered = sorted(float(v) for v in values)
    return {f"p{q:g}": percentile(ordered, q) for q in qs}


class ClassStats:
    """Per-priority-class lifecycle counters + a bounded latency window.

    Mutated only under the owning :class:`ServiceStats` lock.
    """

    __slots__ = ("submitted", "succeeded", "failed", "rejected", "shed",
                 "degraded", "latencies")

    def __init__(self, window: int) -> None:
        self.submitted = 0
        self.succeeded = 0
        self.failed = 0
        #: admission + drain rejections of this class combined
        self.rejected = 0
        self.shed = 0
        self.degraded = 0
        self.latencies: deque[float] = deque(maxlen=window)

    def snapshot(self) -> dict:
        lat = sorted(self.latencies)
        return {
            "submitted": self.submitted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "rejected": self.rejected,
            "shed": self.shed,
            "degraded": self.degraded,
            "latency_ms": {
                "count": len(lat),
                "p50": round(percentile(lat, 50) * 1e3, 3),
                "p99": round(percentile(lat, 99) * 1e3, 3),
            },
        }


class ServiceStats:
    """Counters and windows behind ``TemplateService.stats()``.

    Request accounting upholds two invariants (checked by
    :meth:`invariant_violations` and the tier-1 invariant suite):

    * ``submitted == served + admission_rejected`` — every submission is
      either turned away at admission or eventually answered through the
      response path, never both and never neither;
    * ``served == succeeded + failed + drain_rejected + shed`` — every
      response has exactly one terminal status (a drain reject *is* a
      response: the request was admitted, then answered with ``rejected``
      when the service stopped before executing it; a shed response is a
      request dropped by deadline-aware scheduling).

    :meth:`snapshot` reports the two reject kinds separately (their sum
    is every rejected request).  ``admission_rejected`` additionally
    splits out ``quota_rejected`` (per-tenant quota) and
    ``class_rejected`` (per-priority-class queue bound).
    """

    def __init__(self, window: int = 4096) -> None:
        self._lock = threading.Lock()
        self.window = window
        # request lifecycle
        self.submitted = 0
        self.served = 0
        self.succeeded = 0
        #: turned away at admission (never entered the queue)
        self.admission_rejected = 0
        #: admission rejections due to a per-tenant quota (subset of
        #: admission_rejected)
        self.quota_rejected = 0
        #: admission rejections due to a per-priority-class queue bound
        #: (subset of admission_rejected)
        self.class_rejected = 0
        #: admitted but answered "rejected" at stop(drain=False)
        self.drain_rejected = 0
        #: admitted, then dropped by deadline-aware scheduling (the batch
        #: loop determined the deadline could not be met)
        self.shed = 0
        self.failed = 0
        self.degraded = 0
        #: degradations forced proactively by the overload policy (also
        #: counted in ``degraded``)
        self.load_degraded = 0
        self.retries = 0
        self.timeouts = 0
        # autoscaling
        self.scale_ups = 0
        self.scale_downs = 0
        # batching
        self.batches = 0
        self.coalesced_requests = 0  # requests beyond the first in a batch
        #: batches routed back to the BSP simulator because the queue
        #: backend cannot run their template (capability fallback)
        self.queue_fallbacks = 0
        #: batches answered by a fusion group of >= 2 batches (one
        #: ``run_many`` pass) instead of a group of their own
        self.fused_batches = 0
        #: passes of fusion groups of >= 2 batches
        self.fused_passes = 0
        self._batch_sizes: deque[int] = deque(maxlen=window)
        # queue
        self.queue_depth = 0
        self.max_queue_depth = 0
        # plan cache, per executed batch: hits are plans served from memory
        self.cache_hits = 0
        self.cache_misses = 0
        #: committed workload-stream mutation batches (mutate_workload)
        self.mutations = 0
        # latency window (seconds)
        self._latencies: deque[float] = deque(maxlen=window)
        # rolling batch-execution wall time (the deadline predictor and
        # the autoscaler read this)
        self._exec_wall: deque[float] = deque(maxlen=min(window, 256))
        # per-priority-class breakdown, created on first sighting
        self.per_class: dict[str, ClassStats] = {}

    def _class(self, priority: str) -> ClassStats:
        stats = self.per_class.get(priority)
        if stats is None:
            stats = self.per_class[priority] = ClassStats(self.window)
        return stats

    # ------------------------------------------------------------ recording
    def record_admitted(self, depth: int, priority: str = "normal") -> None:
        with self._lock:
            self.submitted += 1
            self._class(priority).submitted += 1
            self.queue_depth = depth
            self.max_queue_depth = max(self.max_queue_depth, depth)

    def record_rejected(self, kind: str = "pending",
                        priority: str = "normal") -> None:
        """An admission rejection: submitted but never admitted/served.

        ``kind`` names the bound that fired: ``"pending"`` (global
        ``max_pending``), ``"tenant"`` (per-tenant quota) or ``"class"``
        (per-priority-class queue bound).
        """
        with self._lock:
            self.submitted += 1
            self.admission_rejected += 1
            if kind == "tenant":
                self.quota_rejected += 1
            elif kind == "class":
                self.class_rejected += 1
            cls = self._class(priority)
            cls.submitted += 1
            cls.rejected += 1

    def record_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.coalesced_requests += size - 1
            self._batch_sizes.append(size)

    def record_retry(self, timed_out: bool) -> None:
        with self._lock:
            self.retries += 1
            if timed_out:
                self.timeouts += 1

    def record_degraded(self, priority: str = "normal",
                        under_load: bool = False) -> None:
        with self._lock:
            self.degraded += 1
            if under_load:
                self.load_degraded += 1
            self._class(priority).degraded += 1

    def record_exec(self, wall_s: float) -> None:
        """One batch execution's wall time (feeds the deadline predictor)."""
        with self._lock:
            self._exec_wall.append(wall_s)

    def mean_exec_s(self) -> float:
        """Rolling mean batch-execution wall time (0.0 with no samples)."""
        with self._lock:
            if not self._exec_wall:
                return 0.0
            return sum(self._exec_wall) / len(self._exec_wall)

    def rolling_p99_ms(self) -> float:
        """p99 latency (ms) over the current window (autoscaler signal)."""
        with self._lock:
            lat = sorted(self._latencies)
        return percentile(lat, 99) * 1e3

    def record_scale(self, up: bool) -> None:
        """One autoscaler resize of the device group."""
        with self._lock:
            if up:
                self.scale_ups += 1
            else:
                self.scale_downs += 1

    def record_queue_fallback(self) -> None:
        """A batch the queue backend handed back to the BSP simulator."""
        with self._lock:
            self.queue_fallbacks += 1

    def record_fused(self, batches: int) -> None:
        """One fusion-group pass covering ``batches`` (>= 2) batches."""
        with self._lock:
            self.fused_passes += 1
            self.fused_batches += batches

    def record_plan(self, level: str | None) -> None:
        """The cache level that served one executed batch's plan."""
        with self._lock:
            if level == "memory":
                self.cache_hits += 1
            elif level is not None:
                self.cache_misses += 1

    def record_mutation(self) -> None:
        """One committed workload-stream mutation batch."""
        with self._lock:
            self.mutations += 1

    def record_response(self, status: str, latency_s: float,
                        priority: str = "normal") -> None:
        """A response delivered to an *admitted* request (any status)."""
        with self._lock:
            self.served += 1
            cls = self._class(priority)
            if status == "ok":
                self.succeeded += 1
                cls.succeeded += 1
                cls.latencies.append(latency_s)
            elif status == "rejected":
                self.drain_rejected += 1
                cls.rejected += 1
            elif status == "shed":
                self.shed += 1
                cls.shed += 1
            else:
                self.failed += 1
                cls.failed += 1
            self._latencies.append(latency_s)

    def invariant_violations(self) -> list[str]:
        """Human-readable accounting violations (empty when consistent).

        Call at a quiescent point — with requests in flight, ``submitted``
        legitimately runs ahead of ``served + admission_rejected``.
        """
        with self._lock:
            problems = []
            if self.submitted != self.served + self.admission_rejected:
                problems.append(
                    f"submitted ({self.submitted}) != served "
                    f"({self.served}) + admission_rejected "
                    f"({self.admission_rejected})"
                )
            terminal = (self.succeeded + self.failed + self.drain_rejected
                        + self.shed)
            if self.served != terminal:
                problems.append(
                    f"served ({self.served}) != succeeded "
                    f"({self.succeeded}) + failed ({self.failed}) + "
                    f"drain_rejected ({self.drain_rejected}) + "
                    f"shed ({self.shed})"
                )
            if self.admission_rejected < self.quota_rejected \
                    + self.class_rejected:
                problems.append(
                    f"admission_rejected ({self.admission_rejected}) < "
                    f"quota_rejected ({self.quota_rejected}) + "
                    f"class_rejected ({self.class_rejected})"
                )
            per_class_submitted = sum(
                c.submitted for c in self.per_class.values()
            )
            if self.per_class and per_class_submitted != self.submitted:
                problems.append(
                    f"per-class submitted ({per_class_submitted}) != "
                    f"submitted ({self.submitted})"
                )
            return problems

    # ------------------------------------------------------------- reading
    def snapshot(self) -> dict:
        """Point-in-time view of every counter plus derived aggregates."""
        with self._lock:
            lat = sorted(self._latencies)
            sizes = list(self._batch_sizes)
            probes = self.cache_hits + self.cache_misses
            return {
                "requests": {
                    "submitted": self.submitted,
                    "served": self.served,
                    "succeeded": self.succeeded,
                    "admission_rejected": self.admission_rejected,
                    "quota_rejected": self.quota_rejected,
                    "class_rejected": self.class_rejected,
                    "drain_rejected": self.drain_rejected,
                    "shed": self.shed,
                    "failed": self.failed,
                    "degraded": self.degraded,
                    "load_degraded": self.load_degraded,
                    "retries": self.retries,
                    "timeouts": self.timeouts,
                },
                "classes": {
                    name: cls.snapshot()
                    for name, cls in sorted(self.per_class.items())
                },
                "autoscaler": {
                    "scale_ups": self.scale_ups,
                    "scale_downs": self.scale_downs,
                },
                "batching": {
                    "batches": self.batches,
                    "coalesced_requests": self.coalesced_requests,
                    "queue_fallbacks": self.queue_fallbacks,
                    "fused_batches": self.fused_batches,
                    "fused_passes": self.fused_passes,
                    "mean_batch": (
                        round(sum(sizes) / len(sizes), 3) if sizes else 0.0
                    ),
                    "max_batch": max(sizes) if sizes else 0,
                },
                "queue": {
                    "depth": self.queue_depth,
                    "max_depth": self.max_queue_depth,
                },
                "mutations": self.mutations,
                "plan_cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "hit_rate": (
                        round(self.cache_hits / probes, 4) if probes else 0.0
                    ),
                },
                "latency_ms": {
                    "count": len(lat),
                    "mean": (
                        round(sum(lat) / len(lat) * 1e3, 3) if lat else 0.0
                    ),
                    "p50": round(percentile(lat, 50) * 1e3, 3),
                    "p95": round(percentile(lat, 95) * 1e3, 3),
                    "p99": round(percentile(lat, 99) * 1e3, 3),
                    "max": round(lat[-1] * 1e3, 3) if lat else 0.0,
                },
            }
