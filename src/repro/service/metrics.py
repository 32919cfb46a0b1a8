"""Serving metrics: counters, latency percentiles, batching stats.

One :class:`ServiceStats` instance per service.  The event loop records
into it; ``snapshot()`` may be called from any thread (the sync handle
reads it from the caller's thread), so mutation goes through a lock.
Latencies and batch sizes are kept in bounded windows — the service is
long-lived and must not grow memory with traffic.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["percentile", "ServiceStats"]

#: samples each latency / batch-size window keeps
WINDOW = 4096


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


class ServiceStats:
    """Counters and windows behind ``TemplateService.stats()``.

    Request accounting upholds two invariants (checked by
    :meth:`invariant_violations` and the tier-1 invariant suite):

    * ``submitted == served + admission_rejected`` — every submission is
      either turned away at admission or eventually answered through the
      response path, never both and never neither;
    * ``served == succeeded + failed + drain_rejected`` — every response
      has exactly one terminal status (a drain reject *is* a response: the
      request was admitted, then answered with ``rejected`` when the
      service stopped before executing it).

    :meth:`snapshot` reports the two reject kinds separately (their sum
    is every rejected request).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # request lifecycle
        self.submitted = 0
        self.served = 0
        self.succeeded = 0
        #: turned away at admission (never entered the queue)
        self.admission_rejected = 0
        #: admitted but answered "rejected" at stop(drain=False)
        self.drain_rejected = 0
        self.failed = 0
        self.degraded = 0
        self.retries = 0
        self.timeouts = 0
        # batching
        self.batches = 0
        self.coalesced_requests = 0  # requests beyond the first in a batch
        #: batches answered by a fusion group of >= 2 batches (one
        #: ``run_many`` pass) instead of a group of their own
        self.fused_batches = 0
        #: passes of fusion groups of >= 2 batches
        self.fused_passes = 0
        self._batch_sizes: deque[int] = deque(maxlen=WINDOW)
        # queue
        self.queue_depth = 0
        self.max_queue_depth = 0
        # plan cache, per executed batch: hits are plans served from memory
        self.cache_hits = 0
        self.cache_misses = 0
        #: committed workload-stream mutation batches (mutate_workload)
        self.mutations = 0
        # latency window (seconds)
        self._latencies: deque[float] = deque(maxlen=WINDOW)

    # ------------------------------------------------------------ recording
    def record_admitted(self, depth: int) -> None:
        with self._lock:
            self.submitted += 1
            self.queue_depth = depth
            self.max_queue_depth = max(self.max_queue_depth, depth)

    def record_rejected(self) -> None:
        """An admission rejection: submitted but never admitted/served."""
        with self._lock:
            self.submitted += 1
            self.admission_rejected += 1

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

    def record_degraded(self) -> None:
        with self._lock:
            self.degraded += 1

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

    def record_response(self, status: str, latency_s: float) -> None:
        """A response delivered to an *admitted* request (any status)."""
        with self._lock:
            self.served += 1
            if status == "ok":
                self.succeeded += 1
            elif status == "rejected":
                self.drain_rejected += 1
            else:
                self.failed += 1
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
            terminal = self.succeeded + self.failed + self.drain_rejected
            if self.served != terminal:
                problems.append(
                    f"served ({self.served}) != succeeded "
                    f"({self.succeeded}) + failed ({self.failed}) + "
                    f"drain_rejected ({self.drain_rejected})"
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
                    "drain_rejected": self.drain_rejected,
                    "failed": self.failed,
                    "degraded": self.degraded,
                    "retries": self.retries,
                    "timeouts": self.timeouts,
                },
                "batching": {
                    "batches": self.batches,
                    "coalesced_requests": self.coalesced_requests,
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
