"""``repro.obs`` — unified tracing and observability layer.

Every layer of the stack instruments itself through this module's
process-wide facade::

    from repro import obs

    with obs.span("plan.build", template="dbuf-shared", workload=wl.name):
        ...                       # timed when tracing is on, free when off

Tracing is **off by default** and zero-cost when off: ``span()`` returns
a shared no-op context manager after a single flag check, and no event,
counter or lock is touched.  Turn it on around a region of interest::

    obs.reset()
    obs.set_enabled(True)
    run = repro.run(workload, "dbuf-shared")
    print(obs.summary()["wall_ms"])          # per-span-name aggregates
    obs.write_chrome_trace("trace.json")     # chrome://tracing / Perfetto
    obs.set_enabled(False)

The bench runner exposes the same thing as ``python -m repro.bench fig4
--trace trace.json``; the serving layer folds ``obs.summary()`` into
``service.stats()["obs"]`` while tracing is enabled.  See
``docs/observability.md`` for the span catalogue and how to read the
paper's overhead breakdowns out of a trace.

Instrumented span names (the stable catalogue):

====================  ====================================================
``plan.build``        template ``build()`` + schedule validation (cache miss)
``plan.cache_hit``    instant: plan served from memory
``analysis.build``    one workload-analysis computation (analysis-cache miss)
``ir.build``          parallelization-IR construction from a workload
``ir.pass.promote``   threshold-promotion pass over the IR
``ir.pass.consolidate``  launch-consolidation pass over the IR
``ir.select``         auto-select lowering (includes candidate race runs;
                      ``ir.select.cache_hit`` instant on a cached decision)
``gpusim.execute``    one executor pass over N >= 1 launch graphs (tagged
                      ``engine``, ``graphs``, ``launches``)
``gpusim.profile``    metric extraction from an executed graph
``service.coalesce``  micro-batcher grouping one collection window
``service.batch``     one fusion-group dispatch (retries + degradation
                      included)
``service.execute``   one execution attempt: one ``execute_batch_fused``
                      call on a worker thread
``service.degrade``   the non-nested fallback run after retries failed
``service.request``   one request, admission to response
``service.reject``    instant: admission rejection
``bench.unit``        one experiment run by the bench runner
``device.run``        one shard's template run on one device of a
                      multi-device group (tagged ``device=<i>``)
``queue.execute``     one persistent-queue execution (tagged with the
                      task count; see ``docs/taskqueue.md``)
====================  ====================================================

Per-kernel simulated-device events (named after their launches) land on
a separate ``simulated-device`` track with simulated-clock timestamps.

Counters (also in ``summary()["counters"]``):
``cache.<kind>.<level>.<event>`` for every event of the tiered cache
(``repro.core.artifactcache``: e.g. ``cache.plan.memory.hits``,
``cache.phase.memory.misses``, ``cache.run.disk.writes``; see
``docs/performance.md``), ``ir.decisions.<pass>`` (rewrite decisions per
IR pass) and ``ir.select.race_candidates`` (auto-select audit trail).
Multi-device runs add per-device counters
under ``device.<i>.*``: ``launches`` / ``busy_cycles`` on every graph a
device executes, plus per-shard work totals — ``outer`` / ``pairs`` for
nested-loop shards, ``nodes`` for tree shards — which sum exactly to the
single-device workload totals (the multi-device equivalence invariant).
Queue-backend runs add ``queue.tasks`` / ``queue.cancelled`` (task graph
composition), ``queue.steals`` / ``queue.polls`` (scheduler activity),
``queue.depth`` (max queue depth), ``queue.termination_wait`` /
``queue.worker_busy_cycles`` (cycles idle workers spent waiting for the
quiescence check vs total busy cycles) and ``queue.fallbacks`` (batches
routed back to BSP because the template is not queue-compatible).
"""

from __future__ import annotations

from repro.obs.export import (
    SIM_PID,
    chrome_trace as _chrome_trace,
    validate_chrome_trace,
    write_chrome_trace as _write_chrome_trace,
)
from repro.obs.tracer import NOOP_SPAN, SpanHandle, Tracer

__all__ = [
    "NOOP_SPAN",
    "SIM_PID",
    "SpanHandle",
    "Tracer",
    "add_counter",
    "chrome_trace",
    "complete",
    "current_stack",
    "emit_launch_records",
    "enabled",
    "export_events",
    "get_tracer",
    "instant",
    "reset",
    "set_enabled",
    "sim_complete",
    "span",
    "summary",
    "validate_chrome_trace",
    "write_chrome_trace",
]

_enabled = False
_tracer = Tracer()


def enabled() -> bool:
    """Whether tracing is currently recording."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Turn tracing on or off (does not drop already-recorded events)."""
    global _enabled
    _enabled = bool(flag)


def reset() -> None:
    """Drop all recorded events/counters and re-zero the trace clock."""
    _tracer.reset()


def get_tracer() -> Tracer:
    """The process-wide tracer behind the module facade."""
    return _tracer


# ---------------------------------------------------------------- recording
def span(name: str, **tags):
    """A context manager timing one wall-clock span (no-op when off)."""
    if not _enabled:
        return NOOP_SPAN
    return _tracer.span(name, tags)


def instant(name: str, **tags) -> None:
    """Record a point-in-time marker (no-op when off)."""
    if _enabled:
        _tracer.instant(name, **tags)


def complete(name: str, start_s: float, dur_s: float, **tags) -> None:
    """Record an already-measured span from tracer-clock values.

    For lifecycles that cannot wrap a ``with`` block (a request measured
    from admission in one task to completion in another).
    """
    if _enabled:
        _tracer.complete(name, start_s, dur_s, **tags)


def sim_complete(name: str, start_ms: float, dur_ms: float,
                 track: str = "device", **tags) -> None:
    """Record one simulated-timeline event (no-op when off)."""
    if _enabled:
        _tracer.sim_complete(name, start_ms, dur_ms, track=track, **tags)


def add_counter(name: str, value: int = 1) -> None:
    """Accumulate a named counter (no-op when off)."""
    if _enabled:
        _tracer.add_counter(name, value)


def current_stack() -> tuple:
    """Open span names in the calling task/thread (empty when off)."""
    return _tracer.current_stack() if _enabled else ()


def emit_launch_records(records, config) -> None:
    """Emit executor launch records as simulated-device trace events.

    ``records`` are :class:`~repro.gpusim.executor.LaunchRecord` objects;
    ``config`` anything with ``cycles_to_ms``.  Host and device (dynamic
    parallelism) launches land on separate tracks so child-launch
    overhead reads directly off the trace.
    """
    if not _enabled or not records:
        return
    to_ms = config.cycles_to_ms
    for rec in records:
        _tracer.sim_complete(
            rec.name,
            start_ms=to_ms(rec.start_cycles),
            dur_ms=to_ms(rec.duration_cycles),
            track="device-launches" if rec.device else "host-launches",
            n_blocks=rec.n_blocks,
        )


# ------------------------------------------------------------------ reading
def summary() -> dict:
    """Aggregated per-span-name timings, sim aggregates and counters."""
    return _tracer.summary()


def export_events() -> dict:
    """A copy of everything recorded: events, simulated events, counters."""
    return _tracer.export_events()


def chrome_trace() -> dict:
    """The recorded events as a Chrome-trace object."""
    return _chrome_trace(_tracer)


def write_chrome_trace(path) -> dict:
    """Export, validate and write the Chrome trace; returns the object."""
    return _write_chrome_trace(_tracer, path)
