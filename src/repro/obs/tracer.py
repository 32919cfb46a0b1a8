"""The span tracer: wall-clock spans, simulated-timeline events, counters.

One :class:`Tracer` collects everything a traced run produces:

* **wall-clock spans** — ``with tracer.span("plan.build", template=...)``
  around harness work (plan builds, executor passes, pool round-trips,
  request lifecycles).  Nesting is tracked per task/thread through a
  :mod:`contextvars` stack, so concurrent asyncio tasks and worker
  threads each see their own ancestry.
* **simulated-timeline events** — per-kernel/per-phase timings on the
  *simulated* device clock (milliseconds since launch-graph start),
  emitted by the executor from its launch records.  They live on their
  own track so a Chrome trace shows the paper's breakdowns (queue
  construction, child-launch overhead, delayed-buffer second phase) next
  to the harness costs.
* **counters** — monotonically accumulated named integers (plan-cache
  hits, rejects, ...).

Recording is thread-safe (the service records from the event loop, its
worker threads and ``snapshot()`` callers concurrently).  Event lists are
bounded — aggregates keep counting after the cap so summaries stay exact
while the trace file stays openable.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time

__all__ = ["NOOP_SPAN", "SpanHandle", "Tracer"]

#: per-task/thread stack of open span names (ancestry for nesting)
_stack: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_obs_stack", default=()
)


class _NoopSpan:
    """The do-nothing context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


#: singleton returned by ``obs.span`` when tracing is disabled — callers
#: pay one flag check and no allocation beyond the kwargs dict
NOOP_SPAN = _NoopSpan()


class SpanHandle:
    """One open wall-clock span (a context manager)."""

    __slots__ = ("_tracer", "name", "args", "_start", "_token")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "SpanHandle":
        self._token = _stack.set(_stack.get() + (self.name,))
        self._start = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._tracer.clock()
        _stack.reset(self._token)
        enclosing = _stack.get()
        if exc_type is not None:
            self.args = {**self.args, "error": exc_type.__name__}
        self._tracer.complete(
            self.name,
            self._start,
            end - self._start,
            parent=enclosing[-1] if enclosing else None,
            **self.args,
        )
        return False


class Tracer:
    """Collects spans, simulated events and counters for one process."""

    def __init__(
        self,
        clock=time.perf_counter,
        max_events: int = 200_000,
        max_sim_events: int = 50_000,
    ) -> None:
        self.clock = clock
        self.max_events = max_events
        self.max_sim_events = max_sim_events
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Drop every recorded event, aggregate and counter."""
        with getattr(self, "_lock", threading.Lock()):
            self.epoch = self.clock()
            self.events: list[dict] = []
            self.sim_events: list[dict] = []
            self.counters: dict[str, int] = {}
            self.dropped = 0
            self.sim_dropped = 0
            #: span name -> [count, total_seconds, max_seconds]
            self._wall: dict[str, list] = {}
            #: event name -> [count, total_ms, max_ms] on the simulated clock
            self._sim: dict[str, list] = {}

    # ------------------------------------------------------------ recording
    def span(self, name: str, args: dict | None = None) -> SpanHandle:
        """An open span; use as ``with tracer.span("name", {...}):``."""
        return SpanHandle(self, name, args or {})

    def current_stack(self) -> tuple:
        """Names of the spans open in the calling task/thread."""
        return _stack.get()

    def complete(
        self,
        name: str,
        start_s: float,
        dur_s: float,
        parent: str | None = None,
        **args,
    ) -> None:
        """Record a finished wall-clock span (clock values, seconds)."""
        tid = threading.current_thread().name
        with self._lock:
            agg = self._wall.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur_s
            agg[2] = max(agg[2], dur_s)
            if len(self.events) >= self.max_events:
                self.dropped += 1
                return
            self.events.append({
                "name": name,
                "ph": "X",
                "ts_us": (start_s - self.epoch) * 1e6,
                "dur_us": dur_s * 1e6,
                "pid": os.getpid(),
                "tid": tid,
                "parent": parent,
                "args": args,
            })

    def instant(self, name: str, **args) -> None:
        """Record a point-in-time marker (a Chrome ``i`` event)."""
        now = self.clock()
        tid = threading.current_thread().name
        stack = _stack.get()
        with self._lock:
            agg = self._wall.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            if len(self.events) >= self.max_events:
                self.dropped += 1
                return
            self.events.append({
                "name": name,
                "ph": "i",
                "ts_us": (now - self.epoch) * 1e6,
                "dur_us": 0.0,
                "pid": os.getpid(),
                "tid": tid,
                "parent": stack[-1] if stack else None,
                "args": args,
            })

    def sim_complete(
        self, name: str, start_ms: float, dur_ms: float,
        track: str = "device", **args,
    ) -> None:
        """Record one simulated-timeline event (milliseconds of sim time)."""
        with self._lock:
            agg = self._sim.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur_ms
            agg[2] = max(agg[2], dur_ms)
            if len(self.sim_events) >= self.max_sim_events:
                self.sim_dropped += 1
                return
            self.sim_events.append({
                "name": name,
                "ph": "X",
                "ts_us": start_ms * 1e3,
                "dur_us": dur_ms * 1e3,
                "track": track,
                "args": args,
            })

    def add_counter(self, name: str, value: int = 1) -> None:
        """Accumulate a named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -------------------------------------------------------------- reading
    def export_events(self) -> dict:
        """A copy of the recorded events, simulated events and counters."""
        with self._lock:
            return {
                "events": list(self.events),
                "sim_events": list(self.sim_events),
                "counters": dict(self.counters),
            }

    def summary(self) -> dict:
        """Aggregated per-span-name timings plus counters.

        ``wall_ms`` aggregates harness spans (wall clock), ``sim_ms``
        aggregates simulated-device events (simulated clock) — the two
        are deliberately separate sections so milliseconds never mix
        across clocks.
        """
        with self._lock:
            return {
                "wall_ms": {
                    name: {
                        "count": agg[0],
                        "total_ms": round(agg[1] * 1e3, 3),
                        "max_ms": round(agg[2] * 1e3, 3),
                    }
                    for name, agg in sorted(self._wall.items())
                },
                "sim_ms": {
                    name: {
                        "count": agg[0],
                        "total_ms": round(agg[1], 4),
                        "max_ms": round(agg[2], 4),
                    }
                    for name, agg in sorted(self._sim.items())
                },
                "counters": dict(sorted(self.counters.items())),
                "events": len(self.events),
                "sim_events": len(self.sim_events),
                "dropped": self.dropped + self.sim_dropped,
            }
