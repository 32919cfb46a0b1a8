#!/usr/bin/env python
"""SLO-aware serving benchmark: priority/deadline scheduling under overload.

Drives one multi-tenant request mix (three tenants, high/normal/low
priority classes, per-class deadlines) through the **same overloaded
arrival process** twice:

* the **no-SLO baseline** — a plain FIFO service: no priorities, no
  deadlines, no per-class bounds.  Every request waits behind the whole
  backlog, so the intended-high-priority traffic inherits the queue's
  tail latency.
* the **SLO-aware service** — strict priority scheduling, per-class
  admission bounds, per-tenant quotas, deadline-aware shedding of work
  that cannot meet its budget, proactive degradation of low-priority
  dynamic-parallelism batches, and (optionally) device-group
  autoscaling.

Arrivals are open-loop at ``--overload`` times the service's measured
closed-loop capacity, so a real backlog builds and tail latency means
something.  Both runs are scored per *intended* class — the baseline is
handed no SLO metadata but its responses are still grouped by what class
each request would have carried.

The headline metric is the high-priority p99 ratio (baseline / SLO-aware)
with shed/degraded/rejected counts per class; the record lands in
``BENCH_slo_serving.json``::

    python benchmarks/bench_slo_serving.py                # full (10k+ reqs)
    python benchmarks/bench_slo_serving.py --smoke        # tiny/quick

``--min-p99-ratio`` turns the run into a gate (nonzero exit when the
high-priority p99 improvement falls below the floor); the acceptance
configuration requires >= 3x.
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
    build_slo_mix,
    mix_profile,
    run_closed_loop,
    run_open_loop,
)

#: per-class deadline budgets (seconds) for the SLO-aware run: high gets
#: a generous budget (it should essentially never shed), low a tight one
#: (under overload its backlog is the first thing deadline-aware
#: scheduling reclaims)
DEADLINES_S = {"high": 30.0, "normal": 5.0, "low": 1.0}

#: the mix cycles these over its distinct identities; ``dpar-opt`` uses
#: dynamic parallelism, giving the overload-degradation path real work
MIX_TEMPLATES = ("dbuf-global", "dual-queue", "dpar-opt", "thread-mapped")


def measure_capacity(mix, probe: int, max_pending: int) -> float:
    """Peak served throughput of a plain service over a burst probe.

    A closed-loop probe would *under*-measure: micro-batching coalesces
    harder the deeper the backlog, so the service speeds up under load.
    Instead the probe is fired open-loop at an unpayable rate and the
    drain throughput — coalescing fully engaged — is the capacity the
    overload multiplier applies to.  The probe also warms every
    plan-cache identity, so the two measured runs start from the same
    cache state.
    """
    probe_mix = [(t, w) for t, w, _ in mix[:probe]]
    with serve(max_batch=32, batch_window_s=0.002,
               max_pending=max_pending) as svc:
        # closed-loop warmup touches every identity without overload
        run_closed_loop(svc, probe_mix[: len(probe_mix) // 2], clients=8)
        result = run_open_loop(svc, probe_mix, rate_rps=1e9)
    return result["throughput_rps"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=10_000)
    parser.add_argument("--distinct", type=int, default=6,
                        help="distinct (workload, template) identities")
    parser.add_argument("--outer-size", type=int, default=3000)
    parser.add_argument("--overload", type=float, default=2.0,
                        help="offered rate as a multiple of measured "
                             "closed-loop capacity")
    parser.add_argument("--probe", type=int, default=400,
                        help="requests used to measure capacity (and warm "
                             "the plan caches)")
    parser.add_argument("--max-pending", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--autoscale", action="store_true", default=True)
    parser.add_argument("--no-autoscale", dest="autoscale",
                        action="store_false")
    parser.add_argument("--min-p99-ratio", type=float, default=0.0,
                        help="fail when baseline_p99 / slo_p99 for the "
                             "high class falls below this (acceptance: 3.0)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_slo_serving.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests = min(args.requests, 800)
        args.outer_size = min(args.outer_size, 1200)
        args.probe = min(args.probe, 120)
        args.max_pending = min(args.max_pending, 600)

    mix = build_slo_mix(
        args.requests,
        deadlines_s=DEADLINES_S,
        distinct=args.distinct,
        outer_size=args.outer_size,
        templates=MIX_TEMPLATES,
        seed=args.seed,
    )
    labels = [kwargs["priority"] for _, _, kwargs in mix]
    profile = mix_profile(mix)
    print(f"request mix: {json.dumps(profile)}")

    print(f"measuring capacity ({args.probe}-request burst probe) ...")
    capacity = measure_capacity(mix, args.probe, args.max_pending)
    rate = capacity * args.overload
    print(f"  capacity ~{capacity:.0f} req/s -> offering {rate:.0f} req/s "
          f"({args.overload:g}x)")

    # ---- no-SLO baseline: same arrivals, FIFO, no metadata ------------
    print("no-SLO baseline (FIFO, no priorities/deadlines) ...")
    stripped = [(t, w) for t, w, _ in mix]
    t0 = time.perf_counter()
    with serve(max_pending=args.max_pending, max_batch=32,
               batch_window_s=0.002) as svc:
        baseline = run_open_loop(svc, stripped, rate_rps=rate, labels=labels)
        baseline_stats = svc.stats()
    print(f"  {baseline['wall_s']:.2f}s wall, ok={baseline['ok']}, "
          f"high-class p99 "
          f"{baseline['classes']['high']['latency_ms']['p99']:.1f}ms "
          f"(measured in {time.perf_counter() - t0:.1f}s)")

    # ---- SLO-aware service: same arrivals, full policy ----------------
    print("SLO-aware service (priorities, quotas, deadlines, "
          f"autoscale={'on' if args.autoscale else 'off'}) ...")
    slo_config = dict(
        max_pending=args.max_pending,
        max_batch=32,
        batch_window_s=0.002,
        # low/normal may not fill the whole queue: high always has room
        max_pending_per_class={
            "normal": args.max_pending // 2,
            "low": args.max_pending // 4,
        },
        tenant_quota=args.max_pending,  # generous; exercised, not binding
        shed_deadlines=True,
        degrade_pending_threshold=args.max_pending // 4,
    )
    if args.autoscale:
        slo_config.update(
            devices=1, autoscale=True, max_devices=4,
            scale_up_pending_per_device=max(8, args.max_pending // 8),
            scale_check_interval_s=0.05, scale_cooldown_s=0.2,
        )
    t0 = time.perf_counter()
    with serve(**slo_config) as svc:
        slo = run_open_loop(svc, mix, rate_rps=rate)
        slo_stats = svc.stats()
    print(f"  {slo['wall_s']:.2f}s wall, ok={slo['ok']}, "
          f"high-class p99 {slo['classes']['high']['latency_ms']['p99']:.1f}ms"
          f" (measured in {time.perf_counter() - t0:.1f}s)")

    base_high = baseline["classes"]["high"]["latency_ms"]["p99"]
    slo_high = slo["classes"]["high"]["latency_ms"]["p99"]
    ratio = base_high / slo_high if slo_high else float("inf")
    print(f"high-priority p99: {base_high:.1f}ms (FIFO) -> "
          f"{slo_high:.1f}ms (SLO-aware) = {ratio:.2f}x better")
    for name, cls in slo["classes"].items():
        print(f"  {name:>6}: ok={cls['ok']} shed={cls['shed']} "
              f"rejected={cls['rejected']} degraded={cls['degraded']} "
              f"p99={cls['latency_ms']['p99']:.1f}ms")
    scaler = slo_stats["autoscaler"]
    print(f"  autoscaler: {scaler['scale_ups']} up / "
          f"{scaler['scale_downs']} down")

    record = {
        "benchmark": "slo_serving",
        "description": "open-loop overloaded multi-tenant mix: SLO-aware "
                       "(priority/quota/deadline/autoscale) service vs "
                       "no-SLO FIFO baseline, scored per intended class",
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            "requests": args.requests, "distinct": args.distinct,
            "outer_size": args.outer_size, "overload": args.overload, "max_pending": args.max_pending,
            "autoscale": args.autoscale, "deadlines_s": DEADLINES_S,
            "seed": args.seed, "smoke": args.smoke,
        },
        "mix": profile,
        "capacity_rps": round(capacity, 2),
        "offered_rps": round(rate, 2),
        "baseline": baseline,
        "slo": slo,
        "high_p99_ratio": round(ratio, 3),
        "baseline_service_stats": baseline_stats,
        "slo_service_stats": slo_stats,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    violations = []
    for side, stats in (("baseline", baseline_stats), ("slo", slo_stats)):
        reqs = stats["requests"]
        if reqs["submitted"] != reqs["served"] + reqs["admission_rejected"]:
            violations.append(f"{side}: books do not balance: {reqs}")
    if violations:
        print("FAIL: " + "; ".join(violations), file=sys.stderr)
        return 1
    if args.min_p99_ratio and ratio < args.min_p99_ratio:
        print(f"FAIL: high-priority p99 ratio {ratio:.2f}x below the "
              f"--min-p99-ratio {args.min_p99_ratio:g}x floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
