#!/usr/bin/env python
"""Smoke-check the parallelization IR + auto-select layer end-to-end.

Fast gate (wired into ``make test`` as ``make ir-smoke``) over one
irregular nested loop and one recursive tree:

1. **golden decision table** — building the IR and running the pass
   pipeline must reproduce the expected promote/consolidate decisions
   (a split inner loop whose large side consolidates for the loop; both
   child loops demoted below the threshold for the tree) and the
   expected lowering (a load-balancing-family race for the loop, an
   unambiguous ``flat`` pick with no race for the tree);
2. **fingerprint stability** — re-deriving the selection from scratch
   (analysis + selection caches cleared) reproduces the same selection
   fingerprint, the property the disk-cache keys rely on;
3. **warm auto executes nothing** — after one warm auto run and one
   warm named run, ``repro.run(workload)`` makes no executor call, adds
   exactly one memory hit each to the ``select``, ``plan`` and ``run``
   counters of the tiered cache (no other counter moves), and returns
   the named run's ``time_ms`` and metrics.  Work is counted, not
   timed, so the check cannot pass or fail on timer noise.

Exit code 0 = all checks passed.  Keep this under a few seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core.analysis import clear_analysis_cache  # noqa: E402
from repro.core.artifactcache import tiered_cache  # noqa: E402
from repro.core.recursive import RecursiveTreeWorkload  # noqa: E402
from repro.core.workload import NestedLoopWorkload  # noqa: E402
from repro.gpusim import GpuExecutor  # noqa: E402
from repro.ir import auto_select, clear_selection_cache  # noqa: E402
from repro.trees.generator import generate_tree  # noqa: E402

#: expected (pass, node, action) rows per workload — the golden table
GOLDEN_DECISIONS = {
    "loop": [
        ("promote", "inner", "split"),
        ("consolidate", "inner@large", "consolidate-block"),
    ],
    "tree": [
        ("promote", "grandchildren", "demote-thread"),
        ("promote", "children", "demote-thread"),
    ],
}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def build_workloads():
    rng = np.random.default_rng(11)
    loop = NestedLoopWorkload("ir-smoke-loop", rng.integers(0, 40, size=200))
    tree = RecursiveTreeWorkload(generate_tree(depth=5, outdegree=3, seed=3))
    return loop, tree


def check_decisions(tag: str, selection) -> None:
    table = [(d.pass_name, d.node, d.action) for d in selection.decisions]
    if table != GOLDEN_DECISIONS[tag]:
        fail(f"{tag}: decision table {table} != golden {GOLDEN_DECISIONS[tag]}")


def check_loop(loop) -> None:
    selection = auto_select(loop)
    check_decisions("loop", selection)
    if selection.template not in ("dual-queue", "dbuf-global", "dbuf-shared"):
        fail(f"loop: expected a load-balancing pick, got {selection.template}")
    if len(selection.raced) != 12:
        fail(f"loop: expected a 12-candidate race, got {selection.raced}")
    if selection.params.lb_threshold not in (32, 64, 128, 256):
        fail(f"loop: winner threshold {selection.params.lb_threshold} "
             "outside the ladder")
    print(f"loop ok: {selection.template} "
          f"(lbTHRES={selection.params.lb_threshold}) "
          f"from {len(selection.raced)} candidates")


def check_tree(tree) -> None:
    selection = auto_select(tree)
    check_decisions("tree", selection)
    if selection.template != "flat":
        fail(f"tree: expected flat, got {selection.template}")
    if selection.raced:
        fail(f"tree: expected an unambiguous pick, raced {selection.raced}")
    print(f"tree ok: {selection.template} picked without a race")


def check_fingerprint_stability(loop) -> None:
    first = auto_select(loop).fingerprint
    clear_selection_cache()
    clear_analysis_cache()
    second = auto_select(loop).fingerprint
    if first != second:
        fail(f"selection fingerprint unstable: {first} != {second}")
    print(f"fingerprint ok: {first}")


def cache_counters() -> dict:
    """``(kind, level) -> (hits, misses, evictions)`` of the tiered cache."""
    return {key: (st.hits, st.misses, st.evictions)
            for key, st in tiered_cache().stats.items()}


def check_warm_auto(loop) -> None:
    selection = auto_select(loop)
    repro.run(loop)
    named = repro.run(loop, selection.template, params=selection.params)
    before = cache_counters()
    passes = []
    run_many = GpuExecutor.run_many

    def counting_run_many(self, graphs, *args, **kwargs):
        passes.append(len(graphs))
        return run_many(self, graphs, *args, **kwargs)

    GpuExecutor.run_many = counting_run_many
    try:
        auto = repro.run(loop)
    finally:
        GpuExecutor.run_many = run_many
    after = cache_counters()
    if passes:
        fail(f"warm auto run made {len(passes)} executor pass(es) over "
             f"{sum(passes)} graph(s); expected none")
    moved = {key: tuple(a - b for a, b in zip(after[key], before[key]))
             for key in after if after[key] != before[key]}
    expected = {(kind, "memory"): (1, 0, 0)
                for kind in ("select", "plan", "run")}
    if moved != expected:
        fail(f"warm auto run moved cache counters {moved}; "
             f"expected one memory hit each for select, plan and run")
    if auto.time_ms != named.time_ms or auto.metrics != named.metrics:
        fail(f"warm auto run {auto.time_ms} ms != named "
             f"{selection.template} {named.time_ms} ms")
    print(f"warm auto ok: no executor pass, one memory hit each for "
          f"select/plan/run, {auto.time_ms} ms == named")


def main() -> int:
    clear_selection_cache()
    loop, tree = build_workloads()
    check_loop(loop)
    check_tree(tree)
    check_fingerprint_stability(loop)
    check_warm_auto(loop)
    print("ir smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
