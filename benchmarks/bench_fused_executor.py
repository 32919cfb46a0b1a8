#!/usr/bin/env python
"""Fused batch execution benchmark: one event loop for N mixed graphs.

Three measurements around ``GpuExecutor.run_many`` / ``run_many``:

1. **sweep fusion** (the gated headline): the Fig. 4 block-size sweep
   executed as one fused in-process pass per repetition versus the
   two-level pooled pipeline (fast engine + plan/disk caches + worker
   processes) — the strongest pre-fusion configuration recorded in
   BENCH_harness_speed.json.  Table cells must agree **bit-for-bit**
   (``rel_tol=0.0``), proving fusion changes wall time only;
2. **mixed-fingerprint serving**: a request mix over many distinct
   (workload, template) fingerprints driven through ``repro.serve``.
   Identical-fingerprint coalescing handles none of the
   cross-fingerprint traffic — window fusion merges those windows into
   single executor passes; the record keeps the fused-window throughput
   and how many passes and batches fused (no gate reads it);
3. **executor micro-batch**: ``GpuExecutor.run_many`` over a mixed graph
   batch vs sequential ``GpuExecutor.run`` calls, with field-exact demux
   checks (per-graph cycles and counters).

The record lands in ``BENCH_fused_executor.json``::

    python benchmarks/bench_fused_executor.py              # full config
    python benchmarks/bench_fused_executor.py --smoke      # tiny/quick

``--min-speedup`` turns the run into a gate on the sweep-fusion ratio
(nonzero exit below the floor); ``make bench-fuse`` runs the smoke
configuration with a 1.3x floor.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_harness_speed as harness  # noqa: E402

from repro.bench.registry import ExperimentConfig  # noqa: E402
from repro.core.artifactcache import configure_artifact_cache  # noqa: E402
from repro.core.plancache import set_plan_cache_enabled  # noqa: E402
from repro.gpusim.executor import set_default_engine  # noqa: E402
from repro.service.handle import serve  # noqa: E402
from repro.service.loadgen import (  # noqa: E402
    build_request_mix,
    mix_profile,
    run_closed_loop,
)


def _sweep_comparison(args) -> dict:
    """Fused in-process sweep vs the two-level pooled pipeline.

    Each side keeps its best-of-``sweep_trials`` wall (fresh cache dirs
    per trial, so every trial is a cold start) — smoke-scale sweep walls
    are ~1 s and single shots wander with scheduler noise.
    """
    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    two_tables = two_wall = disk_stats = fused_tables = fused_wall = None
    try:
        print(f"two-level mode: fast engine, plan + disk caches, "
              f"{args.jobs} jobs, best of {args.sweep_trials} ...")
        for _ in range(args.sweep_trials):
            two_dir = tempfile.mkdtemp(prefix="bench-fuse-two-")
            try:
                tables, wall, disk = harness._sweep_two_level(
                    config, args.reps, args.jobs, two_dir)
            finally:
                shutil.rmtree(two_dir, ignore_errors=True)
            if two_wall is None or wall < two_wall:
                two_tables, two_wall, disk_stats = tables, wall, disk
        print(f"  {two_wall:.1f}s ({two_wall / args.reps:.1f}s per sweep)")
        print("fused mode: one in-process fused executor pass per sweep, "
              f"best of {args.sweep_trials} ...")
        for _ in range(args.sweep_trials):
            fused_dir = tempfile.mkdtemp(prefix="bench-fuse-one-")
            try:
                tables, wall = harness._sweep_fused(
                    config, args.reps, fused_dir)
            finally:
                shutil.rmtree(fused_dir, ignore_errors=True)
            if fused_wall is None or wall < fused_wall:
                fused_tables, fused_wall = tables, wall
        print(f"  {fused_wall:.1f}s ({fused_wall / args.reps:.1f}s per sweep)")
    finally:
        configure_artifact_cache(None)
        set_default_engine("fast")
        set_plan_cache_enabled(True)
    # both modes run the fast engine; fusion must not move a single bit
    worst = harness._cross_check(two_tables, fused_tables, rel_tol=0.0)
    speedup = two_wall / fused_wall
    print(f"sweep fusion: {speedup:.2f}x over two-level "
          f"(max rel diff {worst:.1e})")
    return {
        "two_level_wall_s": round(two_wall, 3),
        "fused_wall_s": round(fused_wall, 3),
        "disk": disk_stats,
        "speedup": round(speedup, 3),
        "max_rel_diff": worst,
    }


def _service_comparison(args) -> dict:
    """Mixed-fingerprint closed-loop serving through fused windows.

    ``hot_fraction`` is kept low and ``distinct`` high so most windows
    gather *different* fingerprints — traffic the identical-fingerprint
    coalescer cannot batch.  Keeps the best-of-``trials`` throughput
    (serving walls this short are scheduler-noisy).
    """
    mix = build_request_mix(
        args.requests, distinct=args.distinct, hot_fraction=0.5,
        hot_count=max(2, args.distinct // 4), outer_size=args.outer_size,
        seed=args.seed,
    )
    profile = mix_profile(mix)
    print(f"service mix: {json.dumps(profile)}")
    best = best_stats = None
    for _ in range(args.trials):
        with serve(workers=1, max_batch=args.max_batch,
                   batch_window_s=args.window_ms / 1e3,
                   inline_cost_threshold=10**9) as svc:
            run = run_closed_loop(svc, mix, clients=args.clients)
            stats = svc.stats()
        if run.get("failed"):
            raise SystemExit(f"{run['failed']} requests failed")
        if best is None or run["throughput_rps"] > best["throughput_rps"]:
            best, best_stats = run, stats
    batching = best_stats.get("batching", {})
    print(f"service: fused windows {best['wall_s']:.2f}s wall, "
          f"{best['throughput_rps']:.0f} req/s "
          f"({batching.get('fused_passes', 0)} fused passes covering "
          f"{batching.get('fused_batches', 0)} batches)")
    return {
        "mix": profile,
        "fused": best,
        "fused_passes": batching.get("fused_passes", 0),
        "fused_batches": batching.get("fused_batches", 0),
    }


def _micro_comparison(args) -> dict:
    """``run_many`` vs sequential runs on one mixed in-memory batch."""
    import numpy as np

    from repro.core import AccessStream, NestedLoopWorkload, TemplateParams
    from repro.core.registry import resolve
    from repro.gpusim import KEPLER_K20, GpuExecutor

    rng = np.random.default_rng(args.seed)
    graphs = []
    for i in range(args.micro_workloads):
        trips = rng.zipf(1.8, size=args.micro_outer).clip(max=300)
        trips = trips.astype(np.int64)
        nnz = int(trips.sum())
        wl = NestedLoopWorkload(
            f"micro-{i}", trips,
            streams=[AccessStream("g", rng.integers(0, nnz, size=nnz) * 4)],
        )
        for name in ("thread-mapped", "dual-queue", "dbuf-global",
                     "dpar-opt"):
            built = resolve(name).build(wl, KEPLER_K20, TemplateParams())
            graphs.append(built[0] if isinstance(built, tuple) else built)
    executor = GpuExecutor(KEPLER_K20, engine="fast")
    executor.run(graphs[0])  # warm import/caches out of the timing
    t0 = time.perf_counter()
    sequential = [executor.run(g) for g in graphs]
    seq_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    fused = executor.run_many(graphs)
    fused_wall = time.perf_counter() - t0
    for i, (a, b) in enumerate(zip(fused, sequential)):
        if (a.cycles != b.cycles or a.sm_busy_cycles != b.sm_busy_cycles
                or a.counters != b.counters):
            raise SystemExit(f"fused demux diverged on graph {i}")
    speedup = seq_wall / fused_wall if fused_wall else 0.0
    print(f"micro-batch: {len(graphs)} graphs, sequential {seq_wall:.3f}s, "
          f"fused {fused_wall:.3f}s ({speedup:.2f}x), demux exact")
    return {
        "graphs": len(graphs),
        "sequential_wall_s": round(seq_wall, 4),
        "fused_wall_s": round(fused_wall, 4),
        "speedup": round(speedup, 3),
        "max_rel_diff": 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=2,
                        help="sweep repetitions per mode (default 2)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="two-level worker processes (default 4)")
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--distinct", type=int, default=10,
                        help="distinct (workload, template) fingerprints")
    parser.add_argument("--outer-size", type=int, default=2500)
    parser.add_argument("--clients", type=int, default=24)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--window-ms", type=float, default=4.0)
    parser.add_argument("--trials", type=int, default=3,
                        help="serving trials per side (best kept)")
    parser.add_argument("--sweep-trials", type=int, default=1,
                        help="sweep trials per side, best wall kept "
                             "(--smoke raises this to 3: sub-second "
                             "smoke sweeps are scheduler-noisy)")
    parser.add_argument("--micro-workloads", type=int, default=40)
    parser.add_argument("--micro-outer", type=int, default=300)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail when the fused sweep's speedup over the "
                             "two-level pipeline falls below this ratio "
                             "(make bench-fuse: 1.3)")
    parser.add_argument("--smoke", action="store_true",
                        help="preset: scale 0.01, tiny serving mix")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_fused_executor.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.reps, args.jobs = 0.01, 2, 2
        args.sweep_trials = max(args.sweep_trials, 3)
        args.requests = min(args.requests, 120)
        args.outer_size = min(args.outer_size, 1200)
        args.micro_workloads = min(args.micro_workloads, 15)
        if args.out == REPO_ROOT / "BENCH_fused_executor.json":
            args.out = REPO_ROOT / ".bench_fuse_smoke.json"

    print(f"fused executor benchmark, scale={args.scale}, "
          f"{args.reps} rep(s)")
    configure_artifact_cache(None)
    sweep = _sweep_comparison(args)
    service = _service_comparison(args)
    micro = _micro_comparison(args)

    record = {
        "benchmark": "fused_executor",
        "description": "heterogeneous batch fusion: fused sweep vs "
                       "two-level pipeline, mixed-fingerprint serving "
                       "with window fusion, micro-batch demux",
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            "scale": args.scale, "seed": args.seed, "reps": args.reps,
            "jobs": args.jobs, "requests": args.requests,
            "distinct": args.distinct, "outer_size": args.outer_size,
            "clients": args.clients, "max_batch": args.max_batch,
            "window_ms": args.window_ms, "trials": args.trials,
            "sweep_trials": args.sweep_trials,
        },
        "sweep_fusion": sweep,
        "service_mixed_fingerprints": service,
        "micro_batch": micro,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_speedup and sweep["speedup"] < args.min_speedup:
        print(f"FAIL: sweep-fusion speedup {sweep['speedup']:.2f}x below "
              f"the --min-speedup {args.min_speedup:g}x floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
