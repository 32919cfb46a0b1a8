"""Traced runs: timing wrappers around each layer's public entry points.

The wrappers live here, in the benchmark, not in ``src/``: :data:`TABLE`
names every entry point once, :func:`install` wraps them and
:func:`Installed.remove` puts the originals back; spans are recorded only
while the :class:`Recorder` is active (the timed phase).  A table entry
whose target no longer exists is reported as ``absent`` instead of
failing the run, so a change that deletes a duplicate code path can still
run the benchmark.

``repro.obs`` stays off: turning it on bypasses the disk ``run`` tier, so
a traced run would measure a different program.

Each span records its name, start, end, parent span and op id.  Spans are
kept in memory per thread and merged when the run ends; a span's parent
is the innermost open span *on its own thread*, so work on the service's
worker threads nests under that thread's ``execute_batch`` call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable

from measure import self_times


@dataclass(slots=True)
class Span:
    """One timed call."""

    id: int
    #: id of the enclosing span on the same thread (0 for a root)
    parent: int
    name: str
    start: float
    end: float
    #: op the benchmark was running when the span opened (None on threads
    #: the benchmark does not drive)
    op: int | None
    thread: int
    #: what the entry's note function extracted from the call
    note: object = None


class Recorder:
    """Collects spans in memory, one list per thread."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lists: list[list[Span]] = []
        self._lock = threading.Lock()
        #: current op id, set by the benchmark's driving thread
        self.op: int | None = None
        #: spans are recorded only while active; the wrappers stay in
        #: place around set-up and checks, which they pass straight through
        self.active = False

    def _state(self) -> tuple[list[int], list[Span]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])
            self._local.state = state
            with self._lock:
                self._lists.append(state[1])
        return state

    def call(self, name: str, fn: Callable, args, kwargs, note=None):
        """Run ``fn`` inside a span named ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        stack, spans = self._state()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        op = self.op
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            stack.pop()
            spans.append(Span(sid, parent, name, start, end, op,
                              threading.get_ident()))
            raise
        end = time.perf_counter()
        stack.pop()
        spans.append(Span(sid, parent, name, start, end, op,
                          threading.get_ident(),
                          note(args, result) if note is not None else None))
        return result

    def span(self, name: str, fn: Callable, *args):
        """A span of the benchmark's own (an op), around ``fn(*args)``."""
        return self.call(name, fn, args, {})

    def spans(self) -> list[Span]:
        """Every finished span, from every thread."""
        with self._lock:
            return [span for spans in self._lists for span in spans]


# ------------------------------------------------------------ notes
def _note_run(args, result):
    return result.n_launches


def _note_run_many(args, result):
    return len(result), sum(r.n_launches for r in result)


def _note_get(args, result):
    return args[1], result is not None


def _note_select(args, result):
    # the Selection itself: holding it keeps its id unique for the run
    return result


def _note_group(args, result):
    return [request.created_perf for request, _ in args[1]]


@dataclass(frozen=True)
class Entry:
    """One row of the wrapper table.

    ``attr`` is a dotted path inside ``module``.  With ``each`` set,
    ``attr`` names a mapping of template classes (values may be
    ``(kind, class)`` tuples) and ``each`` is the method wrapped on every
    class in it.
    """

    name: str
    module: str
    attr: str
    note: Callable | None = None
    each: str | None = None


#: span name -> public entry point; the layer names follow ``src/repro/``
TABLE: tuple[Entry, ...] = (
    Entry("gpusim.run", "repro.gpusim.executor", "GpuExecutor.run", _note_run),
    Entry("gpusim.run_many", "repro.gpusim.executor", "GpuExecutor.run_many",
          _note_run_many),
    Entry("plan.specialize", "repro.core.registry", "ALL_TEMPLATES",
          each="specialize"),
    Entry("analysis.build", "repro.core.analysis",
          "WorkloadAnalysis.from_workload"),
    Entry("analysis.build", "repro.core.analysis", "TreeAnalysis.from_workload"),
    Entry("analysis.delta", "repro.core.analysis", "WorkloadAnalysis.apply_delta"),
    Entry("disk.get", "repro.core.artifactcache", "ArtifactCache.get", _note_get),
    Entry("disk.put", "repro.core.artifactcache", "ArtifactCache.put"),
    # auto_select is bound by name in both front doors; wrap each binding
    Entry("ir.select", "repro.api", "auto_select", _note_select),
    Entry("ir.select.admission", "repro.service.request", "auto_select",
          _note_select),
    Entry("gpusim.profile", "repro.core.base", "profile"),
    Entry("mutation.apply", "repro.service.streams", "WorkloadStream.mutate"),
    Entry("service.coalesce", "repro.service.batcher", "MicroBatcher.group",
          _note_group),
    Entry("service.execute", "repro.service.service", "execute_batch"),
    Entry("service.execute_fused", "repro.service.service",
          "execute_batch_fused", lambda args, result: len(result)),
    Entry("service.mutate", "repro.service.service",
          "TemplateService.mutate_workload"),
)

#: spans whose self time is glue between layers rather than a layer's own
#: work: the benchmark's ops and the service calls that only dispatch
CONTAINERS = frozenset({
    "op", "service.execute", "service.execute_fused", "service.mutate",
})


def _wrap(recorder: Recorder, name: str, fn: Callable, note) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, note)

    return wrapper


def _wrapped_attr(recorder, name, raw, note):
    """Wrap a class-dict attribute, keeping its descriptor kind."""
    if isinstance(raw, classmethod):
        return classmethod(_wrap(recorder, name, raw.__func__, note))
    if isinstance(raw, staticmethod):
        return staticmethod(_wrap(recorder, name, raw.__func__, note))
    return _wrap(recorder, name, raw, note)


@dataclass
class Installed:
    """Wrappers currently in place, plus the table rows that were absent."""

    #: (owner, attribute, original, whether the owner defined it itself)
    restore: list[tuple[object, str, object, bool]]
    absent: list[str]

    def remove(self) -> None:
        """Put every original back (idempotent)."""
        for owner, attr, raw, own in reversed(self.restore):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self.restore.clear()


def _resolve(entry: Entry) -> list[tuple[object, str]]:
    """``(owner, attribute)`` pairs an entry wraps; raises LookupError
    when any part of the path is gone."""
    try:
        obj = importlib.import_module(entry.module)
    except ImportError as exc:
        raise LookupError(f"module {entry.module} not importable: {exc}") from exc
    *path, last = entry.attr.split(".")
    for part in path:
        if not hasattr(obj, part):
            raise LookupError(f"{entry.module}.{entry.attr}: no {part!r}")
        obj = getattr(obj, part)
    if entry.each is None:
        if not hasattr(obj, last):
            raise LookupError(f"{entry.module}.{entry.attr}: no {last!r}")
        return [(obj, last)]
    mapping = getattr(obj, last, None)
    if not hasattr(mapping, "values"):
        raise LookupError(f"{entry.module}.{entry.attr} is not a mapping")
    owners = []
    for value in mapping.values():
        cls = value[-1] if isinstance(value, tuple) else value
        if not hasattr(cls, entry.each):
            raise LookupError(f"{cls.__name__} has no {entry.each!r}")
        owners.append((cls, entry.each))
    return owners


def install(recorder: Recorder, table=TABLE) -> Installed:
    """Wrap every entry point of ``table``; absent ones are listed, not
    fatal."""
    installed = Installed(restore=[], absent=[])
    seen: set[tuple[int, str]] = set()
    for entry in table:
        label = f"{entry.module}.{entry.attr}" + (
            f"[*].{entry.each}" if entry.each else "")
        try:
            targets = _resolve(entry)
        except LookupError as exc:
            installed.absent.append(f"{label}: {exc}")
            continue
        for owner, attr in targets:
            if (id(owner), attr) in seen:
                continue
            seen.add((id(owner), attr))
            # an inherited method is wrapped on the subclass and later
            # deleted there again; the class dict keeps classmethods intact
            own = not isinstance(owner, type) or attr in vars(owner)
            raw = (vars(owner)[attr] if isinstance(owner, type) and own
                   else getattr(owner, attr))
            setattr(owner, attr,
                    _wrapped_attr(recorder, entry.name, raw, entry.note))
            installed.restore.append((owner, attr, raw, own))
    return installed


def span_cost_s(n: int = 20000) -> float:
    """Calibrated host cost of one wrapper span, in seconds."""

    def noop():
        return None

    recorder = Recorder()
    wrapped = _wrap(recorder, "calibrate", noop, None)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            wrapped()
        best = min(best, (time.perf_counter() - start - bare) / n)
    return max(best, 0.0)


# ------------------------------------------------------- layer metrics
#: disk cache tiers reported as hit fractions
TIERS = ("analysis", "select", "plan", "run", "lineage")


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, n_ops: int, counters: dict,
                  span_cost: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are milliseconds of self time per op (``service.execute_ms`` and
    ``service.loop_sync_ms`` are wall time of those calls per op).
    ``counters`` carries deltas of the program's own public stats over the
    traced phase (see ``workloads.read_counters``).
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_ms(*names: str) -> float:
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ())) * 1e3

    def wall_ms(*names: str) -> float:
        return sum(s.end - s.start for n in names for s in by_name.get(n, ())) * 1e3

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    per = 1.0 / max(n_ops, 1)
    runs = by_name.get("gpusim.run", [])
    many = by_name.get("gpusim.run_many", [])
    graphs = len(runs) + sum(s.note[0] for s in many if s.note)
    launches = (sum(s.note or 0 for s in runs)
                + sum(s.note[1] for s in many if s.note))
    execute_ms = self_ms("gpusim.run", "gpusim.run_many")

    # a selection served from memory is the object an earlier call returned
    selects = [s for n in ("ir.select", "ir.select.admission")
               for s in by_name.get(n, ()) if s.note is not None]
    seen: set[int] = set()
    misses = race_runs = 0
    for span in sorted(selects, key=lambda s: s.start):
        if id(span.note) not in seen:
            misses += 1
            race_runs += len(span.note.raced)
            seen.add(id(span.note))

    gets = [s for s in by_name.get("disk.get", ()) if s.note]
    tier_hit = {}
    for tier in TIERS:
        probes = [hit for t, hit in (s.note for s in gets) if t == tier]
        tier_hit[tier] = _frac(sum(probes), len(probes))

    waits = [span.start - created
             for span in by_name.get("service.coalesce", ()) if span.note
             for created in span.note if created]
    fused = by_name.get("service.execute_fused", [])
    batches = counters.get("service.batches", 0)

    roots = [s for s in spans if not s.parent]
    root_s = sum(s.end - s.start for s in roots)
    container_s = sum(selfs[s.id] for s in spans if s.name in CONTAINERS)
    builds = count("analysis.build")
    incremental = counters.get("analysis.incremental_hits", 0)

    return {
        "plan.specialize_calls": count("plan.specialize") * per,
        "plan.specialize_ms": self_ms("plan.specialize") * per,
        "plan.cache_hit_frac": counters.get("plan.cache_hit_frac", 0.0),
        "plan.phase_memo_hit_frac": counters.get("plan.phase_memo_hit_frac", 0.0),
        "gpusim.graphs": graphs * per,
        "gpusim.launches": launches * per,
        "gpusim.execute_ms": execute_ms * per,
        "gpusim.us_per_launch": _frac(execute_ms * 1e3, launches),
        "gpusim.fused_graphs_per_pass": _frac(
            sum(s.note[0] for s in many if s.note), len(many)),
        "gpusim.profile_ms": self_ms("gpusim.profile") * per,
        "ir.select.calls": len(selects) * per,
        "ir.select.miss_frac": _frac(misses, len(selects)),
        "ir.select.self_ms": self_ms("ir.select", "ir.select.admission") * per,
        "ir.race.runs": race_runs * per,
        "analysis.builds": builds * per,
        "analysis.build_ms": self_ms("analysis.build") * per,
        "analysis.delta_ms": self_ms("analysis.delta") * per,
        "analysis.incremental_frac": _frac(incremental, incremental + builds),
        "mutation.apply_ms": self_ms("mutation.apply") * per,
        "disk.get_ms": self_ms("disk.get") * per,
        "disk.put_ms": self_ms("disk.put") * per,
        "disk.writes": count("disk.put") * per,
        **{f"disk.{tier}.hit_frac": tier_hit[tier] for tier in TIERS},
        "service.queue_wait_ms": _frac(sum(waits), len(waits)) * 1e3,
        "service.coalesce_ms": self_ms("service.coalesce") * per,
        "service.execute_ms": wall_ms("service.execute",
                                      "service.execute_fused") * per,
        "service.mean_batch": counters.get("service.mean_batch", 0.0),
        "service.fused_frac": _frac(sum(s.note or 0 for s in fused), batches),
        # selection at admission and mutation both run on the event loop
        "service.loop_sync_ms": wall_ms("ir.select.admission",
                                        "service.mutate") * per,
        "service.failed": counters.get("service.failed", 0),
        "service.retries": counters.get("service.retries", 0),
        "gen.late_p99_ms": counters.get("gen.late_p99_ms", 0.0),
        "trace.unattributed_frac": _frac(container_s, root_s),
        "trace.overhead_frac": _frac(len(spans) * span_cost, root_s),
    }
