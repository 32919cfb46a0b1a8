#!/usr/bin/env python
"""Smoke-check the tracing layer and the accounting invariants.

Fast end-to-end gate (wired into ``make test`` as ``make trace-smoke``):

1. runs one nested-loop and one tree workload with ``repro.obs`` enabled
   and validates the emitted Chrome trace — JSON schema, the required
   span names (plan build, per-kernel execution, profiling), and a
   non-empty simulated-device track;
2. drives a small request mix through ``repro.serve`` with tracing on and
   checks that the service books balance
   (``submitted == served + admission_rejected`` etc.) and that the
   request-lifecycle spans landed in the trace;
3. re-runs step 1's workload with tracing disabled and asserts nothing
   was recorded (the zero-cost-off contract perfbench relies on).

Exit code 0 = all checks passed.  Keep this under a few seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import obs  # noqa: E402
from repro.core.plancache import default_cache  # noqa: E402
from repro.core.recursive import RecursiveTreeWorkload  # noqa: E402
from repro.core.workload import AccessStream, NestedLoopWorkload  # noqa: E402
from repro.service.handle import serve  # noqa: E402
from repro.trees.generator import generate_tree  # noqa: E402

REQUIRED_SPANS = (
    "plan.build",
    "gpusim.execute",
    "gpusim.profile",
    "bench.unit",  # stands in for the runner's unit span (emitted below)
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def make_workload(outer=500, seed=13):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.8, size=outer).clip(max=80).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name="trace-smoke", trip_counts=trips,
        streams=[AccessStream("x", rng.integers(0, nnz, size=nnz) * 4)],
    )


def check_template_trace() -> None:
    default_cache().clear()  # plan.build must actually fire
    obs.reset()
    obs.set_enabled(True)
    with obs.span("bench.unit", experiment="trace-smoke"):
        repro.run(make_workload(), "dbuf-shared")
        tree = RecursiveTreeWorkload(
            generate_tree(depth=4, outdegree=3, seed=9), "descendants")
        repro.run(tree, "rec-hier")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        obs.write_chrome_trace(path)
        trace = json.loads(path.read_text())
    obs.set_enabled(False)

    count = obs.validate_chrome_trace(trace, required_names=REQUIRED_SPANS)
    sim = [e for e in trace["traceEvents"] if e.get("cat") == "sim"]
    if not sim:
        fail("no simulated-device (per-kernel) events in the trace")
    if any(e["pid"] != obs.SIM_PID for e in sim):
        fail("simulated events leaked off the synthetic device pid")
    summary = obs.summary()
    if summary["wall_ms"]["plan.build"]["count"] != 2:
        fail(f"expected 2 plan builds, saw {summary['wall_ms']['plan.build']}")
    print(f"template trace ok: {count} events, "
          f"{len(sim)} on the simulated track")


def check_service_invariants() -> None:
    obs.reset()
    obs.set_enabled(True)
    workload = make_workload(outer=400, seed=21)
    with serve(max_batch=8, batch_window_s=0.001) as svc:
        for _ in range(6):
            response = svc.request("dual-queue", workload)
            if not response.ok:
                fail(f"smoke request failed: {response.reason}")
        stats = svc.stats()
    obs.set_enabled(False)

    requests = stats["requests"]
    if requests["submitted"] != requests["served"] \
            + requests["admission_rejected"]:
        fail(f"service books do not balance: {requests}")
    terminal = requests["succeeded"] + requests["failed"] \
        + requests["drain_rejected"] + requests["shed"]
    if requests["served"] != terminal:
        fail(f"served != terminal statuses: {requests}")
    if "obs" not in stats:
        fail("service snapshot is missing the obs summary while tracing")
    lifecycle = stats["obs"]["wall_ms"].get("service.request", {})
    if lifecycle.get("count") != 6:
        fail(f"expected 6 service.request spans, saw {lifecycle}")
    print(f"service invariants ok: {requests['served']} served, "
          f"{lifecycle['count']} lifecycle spans")


def check_disabled_is_silent() -> None:
    obs.reset()
    repro.run(make_workload(seed=5), "dual-queue")
    summary = obs.summary()
    if summary["events"] or summary["sim_events"] or summary["counters"]:
        fail(f"tracing disabled but the tracer recorded: {summary}")
    print("zero-cost-off ok: nothing recorded while disabled")


def main() -> int:
    check_template_trace()
    check_service_invariants()
    check_disabled_is_silent()
    print("trace smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
