"""Command-line benchmark runner.

Usage::

    python -m repro.bench --list
    python -m repro.bench fig5
    python -m repro.bench fig5 fig6 --scale 0.05 --out results/
    python -m repro.bench all --scale 0.02 --profile

(also installed as the ``repro-bench`` console script.)

Experiments run one after another in this process; a sweep that batches
its runs (fig4) does so through :func:`repro.core.base.run_many`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import obs
from repro.bench.registry import (
    ExperimentConfig,
    all_experiments,
    get_experiment,
)
from repro.core.artifactcache import (
    configure_artifact_cache,
    get_artifact_cache,
)
from repro.core.plancache import default_cache
from repro.errors import ConfigError
from repro.gpusim.config import preset
from repro.gpusim.executor import resolve_engine, set_default_engine

__all__ = ["main"]


def _run_experiment(exp_id: str, config: ExperimentConfig):
    """Run one experiment; returns ``(tables, elapsed_s, (plan hits,
    plan misses), disk_stats)`` where ``disk_stats`` is the run's
    artifact-cache snapshot delta (None when no disk cache is active)."""
    disk = get_artifact_cache()
    disk0 = disk.snapshot() if disk is not None else None
    stats = default_cache().stats
    hits0, misses0 = stats.hits, stats.misses
    start = time.perf_counter()
    with obs.span("bench.unit", experiment=exp_id):
        tables = get_experiment(exp_id).run(config)
    elapsed = time.perf_counter() - start
    disk_stats = None
    if disk is not None:
        disk_stats = disk.snapshot()
        for name, tier in disk_stats["tiers"].items():
            for k in tier:
                tier[k] -= disk0["tiers"][name][k]
        for k in ("hits", "misses", "writes", "corrupt"):
            disk_stats[k] -= disk0[k]
    return (tables, elapsed, (stats.hits - hits0, stats.misses - misses0),
            disk_stats)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures on the "
                    "simulated device.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (fig2..fig9, table1, table2, baselines) or 'all'",
    )
    parser.add_argument("--experiment", action="append", default=[],
                        metavar="ID", dest="experiment_flags",
                        help="experiment id (repeatable; same as the "
                             "positional form)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale vs the paper (default 0.05)")
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument("--device", default="k20",
                        help="device preset: k20 (default), k40, c2050")
    parser.add_argument("--profile", action="store_true",
                        help="print per-experiment wall time and plan-cache "
                             "hit/miss counts")
    parser.add_argument("--engine", default=None, metavar="NAME",
                        help="executor engine: fast (cohort-batched, the "
                             "default) or exact (reference event-per-block)")
    parser.add_argument("--exact", action="store_true",
                        help="shorthand for --engine exact")
    parser.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                        help="persist workload analyses, plans and run "
                             "results under DIR so repeat runs share them "
                             "(see docs/performance.md)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="disable the disk artifact cache even if "
                             "REPRO_CACHE_DIR is set in the environment")
    parser.add_argument("--trace", type=Path, default=None, metavar="JSON",
                        help="enable the repro.obs tracing layer and write "
                             "a Chrome-trace (chrome://tracing / Perfetto) "
                             "of the run; see docs/observability.md")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write CSV/JSON results into")
    parser.add_argument("--plot", action="store_true",
                        help="render numeric tables as ASCII charts")
    parser.add_argument("--log-y", action="store_true",
                        help="log10 y-axis for --plot (Fig. 2/9 style)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    registry = all_experiments()
    requested = args.experiments + args.experiment_flags
    if args.list or not requested:
        print("available experiments:")
        for exp in registry.values():
            print(f"  {exp.id:10s} {exp.paper_ref:16s} {exp.title}")
        return 0

    ids = list(registry) if "all" in requested else requested
    config = ExperimentConfig(
        scale=args.scale, seed=args.seed, device=preset(args.device),
    )
    if args.exact and args.engine not in (None, "exact"):
        print("--exact conflicts with --engine "
              f"{args.engine}", file=sys.stderr)
        return 2
    try:
        # same validation (and message) as repro.run and the service
        engine = resolve_engine("exact" if args.exact else args.engine) or "fast"
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.cache_dir and args.no_disk_cache:
        print("--cache-dir and --no-disk-cache are mutually exclusive",
              file=sys.stderr)
        return 2

    set_default_engine(engine)
    if args.no_disk_cache:
        configure_artifact_cache(None)
    elif args.cache_dir:
        configure_artifact_cache(args.cache_dir)
    if args.trace:
        obs.reset()
        obs.set_enabled(True)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    for exp_id in ids:
        exp = get_experiment(exp_id)
        print(f"\n### {exp.id}: {exp.title} ({exp.paper_ref})")
        tables, elapsed, (hits, misses), disk = _run_experiment(exp_id, config)
        for i, table in enumerate(tables):
            print()
            print(table.format(), end="")
            if args.plot:
                from repro.bench.plots import ascii_chart, plottable

                if plottable(table):
                    print()
                    print(ascii_chart(table, log_y=args.log_y), end="")
            if args.out:
                stem = f"{exp.id}_{i}" if len(tables) > 1 else exp.id
                table.to_csv(args.out / f"{stem}.csv")
                (args.out / f"{stem}.json").write_text(table.to_json())
        print(f"  [{exp.id} completed in {elapsed:.1f}s]")
        if args.profile:
            print(f"  [{exp.id} profile: plan cache {hits} hit(s) / "
                  f"{misses} miss(es), engine={engine}]")
            if disk is not None:
                per_tier = ", ".join(
                    f"{tier} {disk['tiers'][tier]['hits']}h/"
                    f"{disk['tiers'][tier]['misses']}m"
                    for tier in ("analysis", "plan", "run")
                )
                print(f"  [{exp.id} disk cache: {disk['hits']} hit(s) / "
                      f"{disk['misses']} miss(es) / {disk['writes']} "
                      f"write(s) / {disk['corrupt']} corrupt ({per_tier})]")
    if args.trace:
        trace = obs.write_chrome_trace(args.trace)
        summary = obs.summary()
        print(f"\ntrace: wrote {args.trace} "
              f"({len(trace['traceEvents'])} events, "
              f"{summary['dropped']} dropped)")
        if args.profile:
            print("span summary (wall-clock, aggregated per name):")
            for name, agg in summary["wall_ms"].items():
                print(f"  {name:20s} x{agg['count']:<6d} "
                      f"total {agg['total_ms']:10.1f} ms  "
                      f"max {agg['max_ms']:8.2f} ms")
        obs.set_enabled(False)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
