#!/usr/bin/env python
"""Smoke-check multi-device execution end-to-end.

Fast gate (wired into ``make test`` as ``make multidevice-smoke``) over
the two workload families, comparing a 1-device run against a 4-device
run of the same app workload:

1. **work conservation** — the merged schedule covers every outer
   iteration exactly once, and the per-device work counters
   (``device.<i>.outer`` / ``.pairs`` for loops, ``.nodes`` for trees)
   sum exactly to the single-device totals;
2. **merge semantics** — merged simulated time is the max over devices
   (concurrent execution), aggregate busy cycles are the sum, and the
   4-device run is actually faster than the 1-device run;
3. **devices=1 transparency** — ``repro.run(..., devices=1)`` is
   bit-for-bit identical to the plain single-device call.

Exit code 0 = all checks passed.  Keep this under a few seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import obs  # noqa: E402
from repro.apps import SpMVApp  # noqa: E402
from repro.core.recursive import RecursiveTreeWorkload  # noqa: E402
from repro.graphs import citeseer_like  # noqa: E402
from repro.trees.generator import generate_tree  # noqa: E402

DEVICES = 4


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_with_counters(template: str, workload, devices: int):
    obs.reset()
    obs.set_enabled(True)
    try:
        run = repro.run(workload, template, devices=devices)
        counters = dict(obs.summary()["counters"])
    finally:
        obs.set_enabled(False)
        obs.reset()
    return run, counters


def device_sum(counters: dict, suffix: str) -> int:
    return sum(v for k, v in counters.items()
               if k.startswith("device.") and k.endswith(suffix))


def check_loop_app() -> None:
    workload = SpMVApp(citeseer_like(scale=0.05)).workload()
    single, _ = run_with_counters("dbuf-global", workload, devices=1)
    multi, counters = run_with_counters("dbuf-global", workload,
                                        devices=DEVICES)

    if multi.device_runs is None or len(multi.device_runs) != DEVICES:
        fail(f"expected {DEVICES} device runs, got {multi.device_runs}")

    covered = np.sort(np.concatenate(list(multi.schedule.values())))
    if not np.array_equal(covered, np.arange(workload.outer_size)):
        fail("merged schedule does not cover the workload exactly once")

    outer = device_sum(counters, ".outer")
    pairs = device_sum(counters, ".pairs")
    if outer != workload.outer_size:
        fail(f"device outer counters sum to {outer}, "
             f"expected {workload.outer_size}")
    if pairs != workload.n_pairs:
        fail(f"device pair counters sum to {pairs}, "
             f"expected {workload.n_pairs}")

    per_dev = [r.result.time_ms for r in multi.device_runs]
    if abs(multi.result.time_ms - max(per_dev)) > 1e-9:
        fail(f"merged time {multi.result.time_ms} != max(per-device) "
             f"{max(per_dev)}")
    busy = sum(r.result.sm_busy_cycles for r in multi.device_runs)
    if multi.result.sm_busy_cycles != busy:
        fail("merged busy cycles are not the per-device sum")
    if multi.result.time_ms >= single.result.time_ms:
        fail(f"{DEVICES}-device run not faster: {multi.result.time_ms} "
             f"vs {single.result.time_ms} ms")

    baseline = repro.run(workload, "dbuf-global")
    if baseline.result.cycles != single.result.cycles:
        fail("devices=1 diverged from the plain single-device run")

    print(f"spmv ok: {workload.outer_size} rows / {workload.n_pairs} nnz "
          f"partitioned across {DEVICES} devices, "
          f"{single.result.time_ms / multi.result.time_ms:.2f}x faster")


def check_tree_app() -> None:
    workload = RecursiveTreeWorkload(
        generate_tree(depth=9, outdegree=3, sparsity=0.3, seed=5))
    single, _ = run_with_counters("rec-naive", workload, devices=1)
    multi, counters = run_with_counters("rec-naive", workload,
                                        devices=DEVICES)

    if multi.device_runs is None or len(multi.device_runs) < 2:
        fail("tree workload did not shard")

    # per-shard node counters exclude each shard's synthetic root, so
    # they must sum to the original tree's non-root nodes exactly
    nodes = device_sum(counters, ".nodes")
    if nodes != workload.tree.n_nodes - 1:
        fail(f"device node counters sum to {nodes}, "
             f"expected {workload.tree.n_nodes - 1} non-root nodes")

    if multi.result.time_ms >= single.result.time_ms:
        fail(f"{DEVICES}-device tree run not faster: "
             f"{multi.result.time_ms} vs {single.result.time_ms} ms")

    print(f"tree ok: {workload.tree.n_nodes} nodes across "
          f"{len(multi.device_runs)} devices, "
          f"{single.result.time_ms / multi.result.time_ms:.2f}x faster")


def main() -> int:
    check_loop_app()
    check_tree_app()
    print("multidevice smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
