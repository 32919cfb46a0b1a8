#!/usr/bin/env python
"""Serving-layer throughput benchmark: micro-batched vs per-request.

Drives a fingerprint-heavy request mix (a few hot workload/template
identities dominate — the traffic shape micro-batching exploits) through

* the **per-request baseline**: sequential ``repro.run`` per request,
  plan cache warm — the status quo before the serving layer; and
* the **micro-batched service**: ``clients`` closed-loop callers against
  ``repro.serve``, which coalesces requests sharing a plan-cache
  identity into one executor pass.

Both sides report throughput and p50/p95/p99 latency; the record lands in
``BENCH_service_throughput.json``::

    python benchmarks/bench_service_throughput.py              # full config
    python benchmarks/bench_service_throughput.py --smoke      # tiny/quick

``--min-speedup`` turns the run into a gate (nonzero exit when the
micro-batched throughput advantage falls below the floor); the acceptance
configuration requires >= 2x.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.handle import serve  # noqa: E402
from repro.service.loadgen import (  # noqa: E402
    build_request_mix,
    mix_profile,
    run_closed_loop,
    run_unbatched,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--distinct", type=int, default=6,
                        help="distinct (workload, template) identities")
    parser.add_argument("--hot-fraction", type=float, default=0.75)
    parser.add_argument("--outer-size", type=int, default=12000)
    parser.add_argument("--clients", type=int, default=32,
                        help="closed-loop client threads")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--window-ms", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail when batched/unbatched throughput falls "
                             "below this ratio (acceptance: 2.0)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke")
    parser.add_argument("--trace", type=Path, default=None, metavar="JSON",
                        help="enable repro.obs tracing for the batched run "
                             "and write a Chrome trace; the aggregated span "
                             "summary is folded into the BENCH record")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_service_throughput.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests = min(args.requests, 80)
        args.outer_size = min(args.outer_size, 1500)
        args.clients = min(args.clients, 8)

    mix = build_request_mix(
        args.requests,
        distinct=args.distinct,
        hot_fraction=args.hot_fraction,
        outer_size=args.outer_size,
        seed=args.seed,
    )
    profile = mix_profile(mix)
    print(f"request mix: {json.dumps(profile)}")

    print("per-request baseline (sequential repro.run, plan cache warm) ...")
    t0 = time.perf_counter()
    unbatched = run_unbatched(mix)
    print(f"  {unbatched['wall_s']:.2f}s wall, "
          f"{unbatched['throughput_rps']:.0f} req/s "
          f"(measured in {time.perf_counter() - t0:.1f}s)")

    if args.trace:
        from repro import obs

        obs.reset()
        obs.set_enabled(True)
    print(f"micro-batched service ({args.clients} closed-loop clients, "
          f"max_batch={args.max_batch}, window={args.window_ms}ms) ...")
    with serve(
        max_batch=args.max_batch,
        batch_window_s=args.window_ms / 1e3,
    ) as svc:
        batched = run_closed_loop(svc, mix, clients=args.clients)
        stats = svc.stats()
    print(f"  {batched['wall_s']:.2f}s wall, "
          f"{batched['throughput_rps']:.0f} req/s, "
          f"mean batch {batched['mean_batch']:.1f}")

    if batched.get("failed"):
        raise SystemExit(f"{batched['failed']} requests failed")
    speedup = (
        batched["throughput_rps"] / unbatched["throughput_rps"]
        if unbatched["throughput_rps"] else 0.0
    )
    print(f"throughput: micro-batched is {speedup:.2f}x per-request "
          f"(p50 {batched['latency_ms']['p50']:.1f}ms, "
          f"p95 {batched['latency_ms']['p95']:.1f}ms, "
          f"p99 {batched['latency_ms']['p99']:.1f}ms)")

    record = {
        "benchmark": "service_throughput",
        "description": "closed-loop fingerprint-heavy request mix: "
                       "micro-batched repro.serve vs sequential repro.run",
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            "requests": args.requests, "distinct": args.distinct,
            "hot_fraction": args.hot_fraction, "outer_size": args.outer_size,
            "clients": args.clients, "max_batch": args.max_batch, "window_ms": args.window_ms,
            "seed": args.seed,
        },
        "mix": profile,
        "unbatched": unbatched,
        "batched": batched,
        "speedup": round(speedup, 3),
        "service_stats": stats,
    }
    if args.trace:
        from repro import obs

        obs.write_chrome_trace(args.trace)
        record["obs"] = obs.summary()
        obs.set_enabled(False)
        print(f"trace: wrote {args.trace}")
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_speedup and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below the "
              f"--min-speedup {args.min_speedup:g}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
