"""Chrome-trace export and validation.

The exported object follows the Trace Event Format's JSON-object form
(``{"traceEvents": [...]}``), loadable in ``chrome://tracing`` and
Perfetto.  Two process tracks appear:

* the real process — harness wall-clock spans, one thread row per
  recording thread (event loop, ``asyncio.to_thread`` workers);
* a synthetic **simulated-device** process (:data:`SIM_PID`) — per-kernel
  execution on the simulated GPU clock, host-launch and device-launch
  (dynamic parallelism) rows separated.

Wall-clock timestamps are microseconds since the tracer epoch; simulated
timestamps are microseconds of *simulated* time since launch-graph start.
The tracks share one viewer but not one clock — compare durations within
a track, not across tracks.
"""

from __future__ import annotations

import json

__all__ = [
    "SIM_PID",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: synthetic pid carrying the simulated-device track (real pids are
#: process ids, far below this)
SIM_PID = 1_000_000_000


def chrome_trace(tracer) -> dict:
    """Render a :class:`~repro.obs.tracer.Tracer` as a Chrome trace."""
    payload = tracer.export_events()
    events: list[dict] = []
    tid_ids: dict[tuple[int, str], int] = {}

    def tid_for(pid: int, name: str) -> int:
        key = (pid, name)
        tid = tid_ids.get(key)
        if tid is None:
            tid = len(tid_ids) + 1
            tid_ids[key] = tid
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": name},
            })
        return tid

    pids_seen: set[int] = set()
    for ev in payload["events"]:
        pid = ev["pid"]
        if pid not in pids_seen:
            pids_seen.add(pid)
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": f"harness (pid {pid})"},
            })
        args = dict(ev["args"])
        if ev.get("parent"):
            args["parent"] = ev["parent"]
        out = {
            "name": ev["name"],
            "ph": ev["ph"],
            "cat": "harness",
            "ts": round(ev["ts_us"], 3),
            "pid": pid,
            "tid": tid_for(pid, ev["tid"]),
            "args": args,
        }
        if ev["ph"] == "X":
            out["dur"] = round(ev["dur_us"], 3)
        else:
            out["s"] = "t"  # thread-scoped instant
        events.append(out)

    if payload["sim_events"]:
        events.append({
            "ph": "M", "name": "process_name", "pid": SIM_PID, "tid": 0,
            "args": {"name": "simulated-device"},
        })
    for ev in payload["sim_events"]:
        events.append({
            "name": ev["name"],
            "ph": "X",
            "cat": "sim",
            "ts": round(ev["ts_us"], 3),
            "dur": round(ev["dur_us"], 3),
            "pid": SIM_PID,
            "tid": tid_for(SIM_PID, f"sim:{ev['track']}"),
            "args": dict(ev["args"]),
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "counters": payload["counters"],
        },
    }


def validate_chrome_trace(trace: dict, required_names: tuple = ()) -> int:
    """Schema-check a Chrome trace; returns the non-metadata event count.

    Raises :class:`ValueError` naming the first problem: wrong top-level
    shape, a malformed event (missing/ill-typed ``name``/``ph``/``ts``,
    an ``X`` event without a non-negative numeric ``dur``), or a required
    span name with no recorded event.
    """
    if not isinstance(trace, dict) or not isinstance(
        trace.get("traceEvents"), list
    ):
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    seen: set[str] = set()
    count = 0
    for i, ev in enumerate(trace["traceEvents"]):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        name, ph = ev.get("name"), ev.get("ph")
        if not isinstance(name, str) or not name:
            raise ValueError(f"traceEvents[{i}] has no name")
        if ph not in ("X", "i", "M", "C", "B", "E"):
            raise ValueError(f"traceEvents[{i}] ({name}) has bad ph {ph!r}")
        if ph == "M":
            continue
        count += 1
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            raise ValueError(f"traceEvents[{i}] ({name}) has no numeric ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"traceEvents[{i}] ({name}) X event needs dur >= 0"
                )
        seen.add(name)
    missing = [n for n in required_names if n not in seen]
    if missing:
        raise ValueError(
            f"trace has no events named: {', '.join(missing)} "
            f"(names present: {', '.join(sorted(seen)) or 'none'})"
        )
    if count == 0:
        raise ValueError("trace contains no events (only metadata)")
    return count


def write_chrome_trace(tracer, path) -> dict:
    """Export, validate and write the trace JSON; returns the trace."""
    trace = chrome_trace(tracer)
    validate_chrome_trace(trace)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace
