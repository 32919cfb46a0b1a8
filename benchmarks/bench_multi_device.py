#!/usr/bin/env python
"""Multi-device scaling benchmark on the Fig. 5 nested-loop sweep.

Drives the fig5 workload population — every SSSP relaxation round on
CiteSeer, under each load-balancing template at each lbTHRES — through a
:class:`~repro.backends.DeviceGroup` and measures two things:

* **aggregate throughput** (the gated number): the sweep's units are
  routed whole to the least-loaded of N simulated devices, heaviest
  first — the same routing the serving layer uses.  The simulator is
  deterministic, so one device's total is exactly the sum of the unit
  times and the group's makespan is the busiest member; aggregate
  speedup is their ratio.  Acceptance requires >= 2.5x at ``--devices
  4``.
* **sharded per-run latency** (reported, not gated): each heavy unit is
  also run sharded across the group (``repro.run(..., devices=N)``
  semantics).  Per-run scaling is physics-bound by the heaviest rows —
  a block-per-row phase's critical path does not shrink with more
  devices — which is why latency speedups sit below the throughput
  number.  While sharding, the per-device work counters
  (``device.<i>.outer`` / ``device.<i>.pairs``) are asserted to sum
  exactly to the single-device totals: the equivalence invariant.

The record lands in ``BENCH_multi_device.json``::

    python benchmarks/bench_multi_device.py                # full config
    python benchmarks/bench_multi_device.py --smoke        # tiny/quick

``--min-speedup`` turns the run into a gate (nonzero exit when the
aggregate throughput advantage falls below the floor); the acceptance
configuration requires >= 2.5x.
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

from repro import obs  # noqa: E402
from repro.apps.sssp import SSSPApp  # noqa: E402
from repro.backends import DeviceGroup  # noqa: E402
from repro.core.params import TemplateParams  # noqa: E402
from repro.core.registry import LOAD_BALANCING_TEMPLATES, resolve  # noqa: E402
from repro.core.sharding import clear_shard_cache  # noqa: E402
from repro.gpusim.config import KEPLER_K20  # noqa: E402
from repro.graphs import citeseer_like  # noqa: E402

LB_SWEEP = (32, 64, 128, 256)


def fig5_units(scale: float, lb_sweep: tuple[int, ...]) -> list[dict]:
    """The fig5 sweep as independent work units, heaviest first."""
    app = SSSPApp(citeseer_like(scale=scale))
    workloads = [
        app.round_workload(frontier, edge_idx, targets, improving)
        for frontier, edge_idx, targets, improving, _ in app._rounds()
    ]
    units = [
        {"template": tmpl, "lbt": lbt, "round": i, "workload": wl}
        for tmpl in LOAD_BALANCING_TEMPLATES
        for lbt in lb_sweep
        for i, wl in enumerate(workloads)
    ]
    units.sort(key=lambda u: u["workload"].n_pairs, reverse=True)
    return units


def run_routed(units: list[dict], devices: int) -> dict:
    """Route whole units across the group, least-loaded first.

    One pass yields both sides of the comparison: the single-device
    total is the sum of the (deterministic) unit times, the group
    makespan is the busiest member's accumulated simulated time.
    """
    group = DeviceGroup(KEPLER_K20, devices)
    total_pairs = 0
    for unit in units:
        tmpl = resolve(unit["template"], kind="nested-loop")
        idx = group.acquire()
        run = tmpl.run(unit["workload"], KEPLER_K20,
                       TemplateParams(lb_threshold=unit["lbt"]),
                       backend=group.members[idx])
        group.complete(idx, busy_ms=run.result.time_ms)
        total_pairs += unit["workload"].n_pairs
    busy = [member.busy_ms for member in group.members]
    single_ms = sum(busy)
    makespan_ms = max(busy)
    return {
        "units": len(units),
        "total_pairs": total_pairs,
        "single_device_ms": round(single_ms, 6),
        "makespan_ms": round(makespan_ms, 6),
        "per_device_busy_ms": [round(b, 6) for b in busy],
        "per_device_units": [m.submissions for m in group.members],
        "throughput_single_pairs_per_ms": round(total_pairs / single_ms, 1),
        "throughput_group_pairs_per_ms": round(total_pairs / makespan_ms, 1),
        "aggregate_speedup": round(single_ms / makespan_ms, 3),
    }


def run_sharded_check(units: list[dict], devices: int) -> dict:
    """Shard each unit across the group; verify the counter invariant."""
    group = DeviceGroup(KEPLER_K20, devices)
    by_template: dict[str, dict[str, float]] = {}
    for unit in units:
        tmpl = resolve(unit["template"], kind="nested-loop")
        params = TemplateParams(lb_threshold=unit["lbt"])
        wl = unit["workload"]
        single = tmpl.run(wl, KEPLER_K20, params)

        obs.reset()
        obs.set_enabled(True)
        try:
            multi = tmpl.run(wl, KEPLER_K20, params, backend=group)
            counters = dict(obs.summary()["counters"])
        finally:
            obs.set_enabled(False)
            obs.reset()

        if multi.device_runs is not None:
            outer = sum(v for k, v in counters.items()
                        if k.startswith("device.") and k.endswith(".outer"))
            pairs = sum(v for k, v in counters.items()
                        if k.startswith("device.") and k.endswith(".pairs"))
            if outer != wl.outer_size or pairs != wl.n_pairs:
                raise SystemExit(
                    f"device counter invariant violated for "
                    f"{unit['template']} lbt={unit['lbt']} "
                    f"round={unit['round']}: outer {outer} vs "
                    f"{wl.outer_size}, pairs {pairs} vs {wl.n_pairs}")

        agg = by_template.setdefault(
            unit["template"], {"single_ms": 0.0, "sharded_ms": 0.0,
                               "runs": 0})
        agg["single_ms"] += single.result.time_ms
        agg["sharded_ms"] += multi.result.time_ms
        agg["runs"] += 1
    return {
        tmpl: {
            "runs": agg["runs"],
            "single_ms": round(agg["single_ms"], 6),
            "sharded_ms": round(agg["sharded_ms"], 6),
            "latency_speedup": round(agg["single_ms"] / agg["sharded_ms"], 3),
        }
        for tmpl, agg in sorted(by_template.items())
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--devices", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="CiteSeer dataset scale (fig5 default)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail when the aggregate throughput advantage "
                             "falls below this ratio (acceptance: 2.5)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_multi_device.json")
    args = parser.parse_args(argv)
    if args.devices < 1:
        parser.error("--devices must be >= 1")
    lb_sweep = LB_SWEEP
    if args.smoke:
        args.scale = min(args.scale, 0.02)
        lb_sweep = (32, 128)

    units = fig5_units(args.scale, lb_sweep)
    n_rounds = len({u["round"] for u in units})
    print(f"fig5 sweep: {len(units)} units "
          f"({len(LOAD_BALANCING_TEMPLATES)} templates x {len(lb_sweep)} "
          f"lbTHRES x {n_rounds} SSSP rounds, scale {args.scale:g})")

    t0 = time.perf_counter()
    print(f"routing whole units across {args.devices} devices "
          f"(least-loaded, heaviest first) ...")
    routed = run_routed(units, args.devices)
    print(f"  single device {routed['single_device_ms']:.3f} ms, "
          f"{args.devices}-device makespan {routed['makespan_ms']:.3f} ms "
          f"-> {routed['aggregate_speedup']:.2f}x aggregate throughput "
          f"({routed['throughput_group_pairs_per_ms']:,.0f} pairs/ms)")

    clear_shard_cache()
    print("sharding each unit across the group (counter invariant) ...")
    sharded = run_sharded_check(units, args.devices)
    for tmpl, row in sharded.items():
        print(f"  {tmpl}: {row['latency_speedup']:.2f}x per-run "
              f"({row['runs']} runs)")
    print(f"  device.<i>.outer/pairs counters sum to single-device totals "
          f"on every sharded run (measured in {time.perf_counter()-t0:.1f}s)")

    record = {
        "benchmark": "multi_device",
        "description": "fig5 SSSP sweep through a DeviceGroup: aggregate "
                       "throughput via least-loaded whole-unit routing, "
                       "plus sharded per-run latency and the per-device "
                       "counter equivalence invariant",
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            "devices": args.devices, "scale": args.scale,
            "templates": list(LOAD_BALANCING_TEMPLATES),
            "lb_sweep": list(lb_sweep), "rounds": n_rounds,
        },
        "routed": routed,
        "sharded": sharded,
        "aggregate_speedup": routed["aggregate_speedup"],
        "counter_invariant": "device.<i>.outer/pairs sum to single-device "
                             "totals on every sharded run (verified)",
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_speedup and routed["aggregate_speedup"] < args.min_speedup:
        print(f"FAIL: aggregate speedup {routed['aggregate_speedup']:.2f}x "
              f"below the --min-speedup {args.min_speedup:g}x floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
