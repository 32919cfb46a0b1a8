#!/usr/bin/env python
"""Harness speed benchmark: the Fig. 4 sweep, seed vs fast vs two-level.

Times repeated regenerations of the Fig. 4 block-size sweep three ways:

* **seed mode** — how the harness ran at the repo seed: the reference
  event-per-block executor engine, no plan cache, one process;
* **fast mode** — the cohort-batched fast engine, plan cache on,
  ``--jobs`` worker processes with repetitions of the same sweep cell
  chunked onto the same worker so its plan cache stays warm;
* **two-level mode** — fast mode plus the two-level plan pipeline's disk
  artifact cache (``--cache-dir``): workers share workload analyses,
  built plans and deterministic run results through one directory, so
  repeated sweeps skip the simulation entirely and cold builds are paid
  once across the whole pool (see docs/performance.md);
* **fused mode** — one process, plan + disk caches, and every sweep's
  run-tier misses executed as a **single fused event-loop pass**
  (``repro.core.base.run_many`` over all 49 template runs of the sweep)
  instead of one executor pass per cell — no worker startup, no
  per-worker dataset regeneration, one merge-path-vectorized scheduler
  pass over the whole batch.  Bit-exact: the fused tables are required
  to match seed mode with **zero** relative difference.

Each mode runs ``--reps`` full sweeps; realistic regeneration sessions
re-run experiments repeatedly (scale/seed tweaks, plot iterations), which
is exactly where the caches pay.  All modes produce the merged result
tables; the script requires them to equal the exact seed mode cell by
cell before trusting the timing, then verifies that a traced
cross-process warm sweep reports nonzero disk-cache hits and writes a
``BENCH_harness_speed.json`` record::

    python benchmarks/bench_harness_speed.py                 # full config
    python benchmarks/bench_harness_speed.py --scale 0.01 --reps 2 --jobs 2

The full config is the acceptance configuration (scale 0.05, 4 jobs);
``make bench-smoke`` runs the tiny one.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.registry import ExperimentConfig, get_experiment  # noqa: E402
from repro.bench.runner import _run_unit, run_units  # noqa: E402
from repro.core.artifactcache import configure_artifact_cache  # noqa: E402
from repro.core.plancache import set_plan_cache_enabled  # noqa: E402
from repro.gpusim.executor import set_default_engine  # noqa: E402


def _sweep_inline(config: ExperimentConfig, reps: int, engine: str,
                  plan_cache: bool):
    """``reps`` serial sweeps in this process; returns (tables, wall_s)."""
    exp = get_experiment("fig4")
    start = time.perf_counter()
    for _ in range(reps):
        tables = [
            _run_unit("fig4", key, config, engine, plan_cache)[0]
            for key in exp.variants(config)
        ]
        merged = exp.merge(config, tables)
    return merged, time.perf_counter() - start


def _sweep_pooled(config: ExperimentConfig, reps: int, jobs: int,
                  engine: str, plan_cache: bool):
    """``reps`` sweeps through one persistent pool; returns (tables, wall_s).

    All repetitions of one sweep cell are submitted as one chunk, so they
    land on one worker and repetitions 2..n hit that worker's plan cache.
    """
    exp = get_experiment("fig4")
    keys = exp.variants(config)
    tasks = [(key, "fig4") for key in keys for _ in range(reps)]
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(
            _run_unit,
            [t[1] for t in tasks],
            [t[0] for t in tasks],
            [config] * len(tasks),
            [engine] * len(tasks),
            [plan_cache] * len(tasks),
            chunksize=reps,
        ))
    wall = time.perf_counter() - start
    # last repetition of each variant, in variants() order
    parts = [results[i * reps + reps - 1][0] for i in range(len(keys))]
    return exp.merge(config, parts), wall


def _sweep_two_level(config: ExperimentConfig, reps: int, jobs: int,
                     cache_dir: str):
    """``reps`` sweeps through one pool sharing a disk artifact cache.

    Same shape as :func:`_sweep_pooled`, plus every unit points at
    ``cache_dir``: workers share workload analyses and plans through it,
    and repetitions 2..n of a cell skip the simulation via the ``run``
    tier.  Returns ``(tables, wall_s, disk_stats)`` where ``disk_stats``
    sums the per-unit artifact-cache deltas across the whole pool.
    """
    exp = get_experiment("fig4")
    keys = exp.variants(config)
    tasks = [(key, "fig4") for key in keys for _ in range(reps)]
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(
            _run_unit,
            [t[1] for t in tasks],
            [t[0] for t in tasks],
            [config] * len(tasks),
            ["fast"] * len(tasks),
            [True] * len(tasks),
            [False] * len(tasks),       # trace
            [cache_dir] * len(tasks),
            chunksize=reps,
        ))
    wall = time.perf_counter() - start
    parts = [results[i * reps + reps - 1][0] for i in range(len(keys))]
    disk = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0}
    for r in results:
        if r[4] is not None:
            for k in disk:
                disk[k] += r[4][k]
    return exp.merge(config, parts), wall, disk


def _sweep_fused(config: ExperimentConfig, reps: int, cache_dir: str):
    """``reps`` fused in-process sweeps; returns (tables, wall_s).

    The whole Fig. 4 sweep — the baseline plus every (lbTHRES, block,
    template) cell — is prepared through the normal plan/disk cache
    ladder, then every run-tier miss executes as **one** fused executor
    pass.  Repetitions 2..n hit the run tier.  The dataset is built once
    in this process (the pooled modes pay it once per worker).
    """
    from repro.apps.spmv import SpMVApp
    from repro.bench.experiments.common import (
        FIG6_TEMPLATES,
        citeseer_for,
        params_for,
    )
    from repro.bench.experiments.fig4_spmv_blocksize import (
        BLOCK_SIZES,
        LB_SETTINGS,
    )
    from repro.core.base import run_many
    from repro.core.params import TemplateParams
    from repro.core.registry import resolve

    set_default_engine("fast")
    set_plan_cache_enabled(True)
    configure_artifact_cache(cache_dir)
    exp = get_experiment("fig4")
    start = time.perf_counter()
    workload = None
    for _ in range(reps):
        if workload is None:
            # built once and reused across reps — the same policy as the
            # pooled modes, whose workers cache the app across their chunk
            app = SpMVApp(citeseer_for(config), seed=config.seed)
            workload = app.workload()
        cells = [(lbt, block) for lbt in LB_SETTINGS
                 for block in BLOCK_SIZES]
        items = [(resolve("baseline", kind="nested-loop"), workload,
                  TemplateParams())]
        for lbt, block in cells:
            for name in FIG6_TEMPLATES:
                items.append((resolve(name, kind="nested-loop"), workload,
                              params_for(lbt, lb_block=block)))
        runs = run_many(items, config.device)
        parts = [("base", runs[0].time_ms)]
        pos = 1
        for lbt, block in cells:
            times = [runs[pos + i].time_ms for i in range(len(FIG6_TEMPLATES))]
            parts.append(("cell", lbt, block, times))
            pos += len(FIG6_TEMPLATES)
        merged = exp.merge(config, parts)
    return merged, time.perf_counter() - start


def _traced_disk_hits(config: ExperimentConfig, jobs: int,
                      cache_dir: str) -> dict:
    """Disk-cache counters of one traced warm cross-process sweep.

    Runs the sweep once more with tracing on and ``--jobs`` workers; the
    workers' ``cache.<kind>.disk.*`` counters merge into this process's
    tracer, so the returned map proves the disk cache was actually shared
    across processes (nonzero hits), not just warm in one.
    """
    from repro import obs

    exp = get_experiment("fig4")
    units = [("fig4", key) for key in exp.variants(config)]
    obs.reset()
    obs.set_enabled(True)
    try:
        run_units(units, config, jobs, engine="fast", plan_cache=True,
                  trace=True, cache_dir=cache_dir)
        counters = obs.summary().get("counters", {})
    finally:
        obs.set_enabled(False)
        obs.reset()
    return {
        name: count for name, count in counters.items()
        if name.startswith("cache.") and name.endswith(".disk.hits")
    }


def _cross_check(seed_tables, fast_tables) -> float:
    """Largest relative difference between the two modes' table cells;
    exits unless it is zero (every mode is bit-exact against seed mode)."""
    worst = 0.0
    for ts, tf in zip(seed_tables, fast_tables):
        for row_s, row_f in zip(ts.rows, tf.rows):
            for a, b in zip(row_s, row_f):
                if isinstance(a, float):
                    worst = max(worst, abs(a - b) / max(abs(a), 1e-12))
    if worst > 0.0:
        raise SystemExit(
            f"mode diverged from seed mode: max rel diff {worst:.3e} "
            "(must be 0)"
        )
    return worst


def _baseline_for(baseline: dict, scale: float, reps: int, jobs: int):
    """The baseline record matching this run's configuration, or None.

    The recorded JSON carries the full-configuration record at top level
    and (optionally) a ``smoke_baseline`` block recorded at the smoke
    configuration; speedups are only comparable at matching configs.
    """
    for candidate in (baseline, baseline.get("smoke_baseline")):
        if not candidate:
            continue
        config = candidate.get("config", {})
        if (
            config.get("scale") == scale
            and config.get("reps") == reps
            and candidate.get("fast_mode", {}).get("jobs") == jobs
        ):
            return candidate
    return None


def _apply_gate(record: dict, gate_path: Path, tolerance: float) -> int:
    """Regression gate: fail loudly on a >``tolerance`` speedup drop.

    Compares this run's seed-vs-fast speedup against the recorded
    baseline at the *same* configuration — the ratio normalizes machine
    load, which raw wall times would not.  Returns a process exit code.
    """
    if not gate_path.exists():
        print(f"gate: no baseline at {gate_path}; skipping (record one "
              f"with --out / --as-smoke-baseline)")
        return 0
    baseline = json.loads(gate_path.read_text())
    matched = _baseline_for(
        baseline, record["config"]["scale"], record["config"]["reps"],
        record["fast_mode"]["jobs"],
    )
    if matched is None:
        print(f"gate: {gate_path} has no record at this configuration "
              f"(scale={record['config']['scale']}, "
              f"reps={record['config']['reps']}, "
              f"jobs={record['fast_mode']['jobs']}); skipping")
        return 0
    status = 0
    checks = [("speedup", "fast path")]
    if "two_level_speedup" in matched:
        checks.append(("two_level_speedup", "two-level pipeline"))
    if "fused_speedup" in matched:
        checks.append(("fused_speedup", "fused executor path"))
    for field, label in checks:
        floor = matched[field] * (1 - tolerance)
        verdict = "PASS" if record[field] >= floor else "FAIL"
        print(f"gate: {label} {record[field]:.2f}x vs baseline "
              f"{matched[field]:.2f}x (floor {floor:.2f}x after "
              f"{tolerance:.0%} tolerance) -> {verdict}")
        if verdict == "FAIL":
            print(f"gate: the {label} regressed by more than "
                  f"{tolerance:.0%}; investigate before merging "
                  f"(baseline recorded {matched.get('date', 'unknown')})",
                  file=sys.stderr)
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=6,
                        help="sweep repetitions per mode (default 6)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="fast-mode worker processes (default 4)")
    parser.add_argument("--smoke", action="store_true",
                        help="preset: scale 0.01, 2 reps, 2 jobs (the "
                             "make bench-smoke configuration)")
    parser.add_argument("--gate", type=Path, default=None, metavar="JSON",
                        help="compare against this recorded baseline and "
                             "fail on a regression")
    parser.add_argument("--gate-tolerance", type=float, default=0.25,
                        help="allowed fractional speedup drop before the "
                             "gate fails (default 0.25)")
    parser.add_argument("--as-smoke-baseline", action="store_true",
                        help="store this run as the smoke_baseline block "
                             "of the recorded BENCH json instead of "
                             "overwriting the full record")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_harness_speed.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.reps, args.jobs = 0.01, 2, 2
        if args.out == REPO_ROOT / "BENCH_harness_speed.json" \
                and not args.as_smoke_baseline:
            args.out = REPO_ROOT / ".bench_smoke.json"
    if not 0 < args.gate_tolerance < 1:
        parser.error("--gate-tolerance must be in (0, 1)")

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    print(f"fig4 sweep, scale={args.scale}, {args.reps} rep(s) per mode")

    # keep the seed/fast modes honest: no inherited disk cache
    configure_artifact_cache(None)

    print(f"seed mode: exact engine, no plan cache, 1 process ...")
    seed_tables, seed_wall = _sweep_inline(
        config, args.reps, engine="exact", plan_cache=False)
    print(f"  {seed_wall:.1f}s ({seed_wall / args.reps:.1f}s per sweep)")

    print(f"fast mode: fast engine, plan cache, {args.jobs} jobs ...")
    fast_tables, fast_wall = _sweep_pooled(
        config, args.reps, args.jobs, engine="fast", plan_cache=True)
    print(f"  {fast_wall:.1f}s ({fast_wall / args.reps:.1f}s per sweep)")

    print(f"two-level mode: fast mode + shared disk artifact cache ...")
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    fused_cache_dir = tempfile.mkdtemp(prefix="repro-bench-fused-")
    try:
        two_tables, two_wall, disk_stats = _sweep_two_level(
            config, args.reps, args.jobs, cache_dir)
        print(f"  {two_wall:.1f}s ({two_wall / args.reps:.1f}s per sweep); "
              f"disk cache {disk_stats['hits']} hit(s) / "
              f"{disk_stats['misses']} miss(es)")
        traced_hits = _traced_disk_hits(config, max(args.jobs, 2), cache_dir)

        print("fused mode: in-process, plan + disk caches, one fused "
              "executor pass per sweep ...")
        fused_tables, fused_wall = _sweep_fused(
            config, args.reps, fused_cache_dir)
        print(f"  {fused_wall:.1f}s ({fused_wall / args.reps:.1f}s per "
              f"sweep)")
    finally:
        configure_artifact_cache(None)
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(fused_cache_dir, ignore_errors=True)
        # the benchmark toggled process-global engine/cache state; restore
        set_default_engine("fast")
        set_plan_cache_enabled(True)
    if not traced_hits or sum(traced_hits.values()) == 0:
        raise SystemExit(
            "two-level mode verification failed: the traced cross-process "
            "sweep reported no disk-cache hits in the obs summary"
        )
    print(f"  traced cross-process disk hits: {traced_hits}")

    worst = _cross_check(seed_tables, fast_tables)
    worst_two = _cross_check(seed_tables, two_tables)
    worst_fused = _cross_check(seed_tables, fused_tables)
    speedup = seed_wall / fast_wall
    two_speedup = seed_wall / two_wall
    two_vs_fast = fast_wall / two_wall
    fused_speedup = seed_wall / fused_wall
    fused_vs_two = two_wall / fused_wall
    print(f"modes agree (max rel diff {max(worst, worst_two):.2e}, "
          f"fused {worst_fused:.1e}); "
          f"wall-time reduction: fast {speedup:.2f}x, "
          f"two-level {two_speedup:.2f}x ({two_vs_fast:.2f}x over fast), "
          f"fused {fused_speedup:.2f}x ({fused_vs_two:.2f}x over two-level)")

    record = {
        "benchmark": "harness_speed",
        "description": "Fig. 4 block-size sweep regeneration, seed path "
                       "vs fast path vs two-level plan pipeline",
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {"scale": args.scale, "seed": args.seed,
                   "reps": args.reps, "device": config.device.name},
        "seed_mode": {"engine": "exact", "plan_cache": False, "jobs": 1,
                      "wall_s": round(seed_wall, 3)},
        "fast_mode": {"engine": "fast", "plan_cache": True,
                      "jobs": args.jobs, "wall_s": round(fast_wall, 3)},
        "two_level_mode": {"engine": "fast", "plan_cache": True,
                           "disk_cache": True, "jobs": args.jobs,
                           "wall_s": round(two_wall, 3),
                           "disk": disk_stats,
                           "traced_cross_process_hits": traced_hits},
        "fused_mode": {"engine": "fast", "plan_cache": True,
                       "disk_cache": True, "jobs": 1, "fused": True,
                       "wall_s": round(fused_wall, 3)},
        "speedup": round(speedup, 3),
        "two_level_speedup": round(two_speedup, 3),
        "two_level_vs_fast": round(two_vs_fast, 3),
        "fused_speedup": round(fused_speedup, 3),
        "fused_vs_two_level": round(fused_vs_two, 3),
        "max_rel_diff": worst,
        "max_rel_diff_two_level": worst_two,
        "max_rel_diff_fused": worst_fused,
    }
    bench_path = REPO_ROOT / "BENCH_harness_speed.json"
    if args.as_smoke_baseline:
        # fold this run into the recorded file's smoke_baseline block
        recorded = (
            json.loads(bench_path.read_text()) if bench_path.exists() else {}
        )
        recorded["smoke_baseline"] = record
        bench_path.write_text(json.dumps(recorded, indent=2) + "\n")
        print(f"recorded smoke baseline in {bench_path}")
    else:
        if args.out == bench_path and bench_path.exists():
            # a full re-record must not drop the smoke baseline block
            smoke = json.loads(bench_path.read_text()).get("smoke_baseline")
            if smoke is not None:
                record["smoke_baseline"] = smoke
        args.out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.out}")

    if args.gate:
        return _apply_gate(record, args.gate, args.gate_tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
