#!/usr/bin/env python
"""Smoke-check fused batch execution end-to-end.

Fast gate (wired into ``make test`` as ``make fuse-smoke``) over the
batch-fusion invariants:

1. **bit-exact demux** — ``GpuExecutor.run_many`` over a mixed batch
   (different workloads, templates, block-mapped and
   dynamic-parallelism graphs) returns results field-for-field identical
   to sequential ``GpuExecutor.run`` calls, including every profile
   counter;
2. **degenerate shapes** — an empty batch, a singleton batch, and empty
   graphs interleaved with real ones demux at their original positions;
3. **template layer** — ``core.base.run_many`` over the same templates
   and workloads, from a cold cache, executes its run-cache misses as
   one ``GpuExecutor.run_many`` pass, each distinct run once (a repeated
   item shares its result), and every run equals the sequential result;
4. **fusion observability** — a traced fused pass emits the
   ``executor.fused_graphs`` counter.

Exit code 0 = all checks passed.  Keep this under a few seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.core import (  # noqa: E402
    AccessStream,
    NestedLoopWorkload,
    RecursiveTreeWorkload,
    TemplateParams,
)
from repro.core.base import run_many  # noqa: E402
from repro.core.plancache import default_cache  # noqa: E402
from repro.core.registry import resolve  # noqa: E402
from repro.gpusim import KEPLER_K20, GpuExecutor  # noqa: E402
from repro.gpusim.kernels import LaunchGraph  # noqa: E402
from repro.trees.generator import generate_tree  # noqa: E402

#: templates the smoke batch spans — thread/block mapping, double
#: buffering, and both dynamic-parallelism variants, plus a tree template
TEMPLATES = [
    "thread-mapped",
    "dual-queue",
    "dbuf-global",
    "dpar-naive",
    "dpar-opt",
]


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_equal(got, want, label: str) -> None:
    for field in ("cycles", "time_ms", "sm_busy_cycles", "sm_count",
                  "n_launches", "n_device_launches", "pool_overflows"):
        a, b = getattr(got, field), getattr(want, field)
        if a != b:
            fail(f"{label}: {field} diverged — fused {a!r} vs sequential {b!r}")
    if got.counters != want.counters:
        fail(f"{label}: profile counters diverged")


def build_batch():
    """Graphs, their labels and the ``(template, workload)`` items they
    were built from."""
    rng = np.random.default_rng(23)
    graphs, labels, items = [], [], []
    for seed, shape in enumerate(("power", "hot")):
        if shape == "power":
            trips = rng.zipf(1.8, size=500).clip(max=300).astype(np.int64)
        else:
            trips = np.full(500, 2, dtype=np.int64)
            trips[97] = 1500
        nnz = int(trips.sum())
        wl = NestedLoopWorkload(
            name=f"fuse-smoke-{shape}", trip_counts=trips,
            streams=[
                AccessStream("seq", np.arange(nnz, dtype=np.int64) * 4),
                AccessStream("gather", rng.integers(0, nnz, size=nnz) * 4),
            ],
        )
        for name in TEMPLATES:
            built = resolve(name).build(wl, KEPLER_K20, TemplateParams())
            graphs.append(built[0] if isinstance(built, tuple) else built)
            labels.append(f"{name}/{shape}")
            items.append((resolve(name), wl))
    tree = generate_tree(depth=6, outdegree=4, sparsity=0.5, seed=9)
    twl = RecursiveTreeWorkload(tree, "descendants")
    built = resolve("rec-hier").build(twl, KEPLER_K20, TemplateParams())
    graphs.append(built[0] if isinstance(built, tuple) else built)
    labels.append("rec-hier/descendants")
    items.append((resolve("rec-hier"), twl))
    return graphs, labels, items


def main() -> None:
    graphs, labels, items = build_batch()
    executor = GpuExecutor(KEPLER_K20, engine="fast")
    sequential = [executor.run(g) for g in graphs]

    # 1. bit-exact demux over the mixed batch
    fused = executor.run_many(graphs)
    if len(fused) != len(graphs):
        fail(f"fused returned {len(fused)} results for {len(graphs)} graphs")
    for label, got, want in zip(labels, fused, sequential):
        check_equal(got, want, label)
    if not any(r.n_device_launches > 0 for r in fused):
        fail("smoke batch exercised no device-side launches")
    print(f"fused == sequential on {len(graphs)} mixed graphs")

    # 2. degenerate shapes
    if executor.run_many([]) != []:
        fail("empty batch did not return []")
    (single,) = executor.run_many([graphs[0]])
    check_equal(single, sequential[0], "singleton batch")
    mixed = executor.run_many([LaunchGraph(), graphs[1], LaunchGraph()])
    if mixed[0].n_launches != 0 or mixed[2].n_launches != 0:
        fail("empty graphs lost their zero results in a mixed batch")
    check_equal(mixed[1], sequential[1], "empty-graph interleave")
    print("degenerate batches demux correctly")

    # 3. template layer: the run-cache misses of one run_many call are one
    # executor pass, each distinct run once
    default_cache().clear(reset_stats=True)
    passes = []
    executor_run_many = GpuExecutor.run_many

    def counting_run_many(self, batch):
        passes.append(len(batch))
        return executor_run_many(self, batch)

    GpuExecutor.run_many = counting_run_many
    try:
        runs = run_many(items + items[:2], KEPLER_K20, engine="fast")
    finally:
        GpuExecutor.run_many = executor_run_many
    if passes != [len(items)]:
        fail(f"run_many made executor passes of {passes}, "
             f"expected one of {len(items)}")
    for label, run, want in zip(labels + labels[:2], runs,
                                sequential + sequential[:2]):
        check_equal(run.result, want, f"run_many {label}")
    print(f"run_many executes {len(items)} distinct runs of "
          f"{len(items) + 2} items as one pass")

    # 4. fused pass is observable
    obs.reset()
    obs.set_enabled(True)
    try:
        executor.run_many(graphs[:4])
        counters = obs.summary().get("counters", {})
    finally:
        obs.set_enabled(False)
        obs.reset()
    if counters.get("executor.fused_graphs", 0) < 4:
        fail(f"executor.fused_graphs not emitted: {counters}")
    print("traced fused pass emits executor.fused_graphs")

    print("fuse smoke OK")


if __name__ == "__main__":
    main()
