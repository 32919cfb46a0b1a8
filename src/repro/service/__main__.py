"""CLI demo of the serving layer.

Runs a fingerprint-heavy closed-loop load through a service and prints
the throughput/latency comparison against the per-request baseline plus
the full metrics snapshot::

    python -m repro.service
    python -m repro.service --requests 400 --clients 32 --max-batch 32
    python -m repro.service --skip-baseline      # service numbers only
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.service.handle import serve
from repro.service.loadgen import (
    build_request_mix,
    mix_profile,
    run_closed_loop,
    run_unbatched,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a synthetic template-query load and report "
                    "throughput, latency percentiles and service metrics.",
    )
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--distinct", type=int, default=6,
                        help="distinct (workload, template) identities")
    parser.add_argument("--hot-fraction", type=float, default=0.75,
                        help="request share of the hot identities")
    parser.add_argument("--outer-size", type=int, default=6000,
                        help="outer iterations per generated workload")
    parser.add_argument("--clients", type=int, default=16,
                        help="closed-loop client threads")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--window-ms", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-baseline", action="store_true",
                        help="skip the sequential per-request baseline")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist analyses/plans/run results under DIR "
                             "(see docs/performance.md)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="disable the disk artifact cache even if "
                             "REPRO_CACHE_DIR is set in the environment")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cache_dir and args.no_disk_cache:
        print("--cache-dir and --no-disk-cache are mutually exclusive",
              file=sys.stderr)
        return 2
    cache_dir = "" if args.no_disk_cache else args.cache_dir
    mix = build_request_mix(
        args.requests,
        distinct=args.distinct,
        hot_fraction=args.hot_fraction,
        outer_size=args.outer_size,
        seed=args.seed,
    )
    print("request mix:", json.dumps(mix_profile(mix)))

    if not args.skip_baseline:
        baseline = run_unbatched(mix)
        print("\nper-request repro.run baseline:")
        print(json.dumps(baseline, indent=2))

    with serve(
        max_batch=args.max_batch,
        batch_window_s=args.window_ms / 1e3,
        cache_dir=cache_dir,
    ) as svc:
        batched = run_closed_loop(svc, mix, clients=args.clients)
        stats = svc.stats()

    print("\nmicro-batched service:")
    print(json.dumps(batched, indent=2))
    print("\nservice stats:")
    print(json.dumps(stats, indent=2))
    if not args.skip_baseline and batched["wall_s"]:
        speedup = baseline["wall_s"] / batched["wall_s"]
        print(f"\nthroughput: {speedup:.2f}x the per-request baseline")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
