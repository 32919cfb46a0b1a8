"""The repo benchmark: three workloads through ``repro.run`` and ``repro.serve``.

    python3 perfbench/run.py --workload loops --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing added to the
program.  ``--trace 1`` runs the same workload with timing wrappers around
each layer's entry points (``spans.TABLE``) and prints per-layer metrics
instead.  Both check the simulated outputs and print a detail record
(environment stamp, output digests, tail percentile, problems found)
followed, as the last line, by the result::

    {"correct": true, "attempted": 5, "failed": 0,
     "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, ...}}

Run from the repository root; the program under test is ``src/repro``.
See ``perfbench/README.md`` for the workloads, the metrics and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("loops", "recursion", "serve")

#: end-to-end metrics (``--trace 0``) and their units
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "runs_per_s": "1/s",
    "auto_p50_ms": "ms",
    "lat_p50_ms": "ms",
    "slo_ok_frac": "fraction",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics (``--trace 1``) and their units, from their names."""
    from spans import layer_metrics

    units = {}
    for name in layer_metrics([], 1, {}, 0.0):
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_frac"):
            units[name] = "fraction"
        elif name.endswith("us_per_launch"):
            units[name] = "us"
        else:
            units[name] = "count"
    return units


def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """Content hash of ``src/``: names the code when there is no commit."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _calibration_s() -> float:
    """Median time of a fixed pure-Python loop: machine speed, so runs
    that disagree can be checked against it."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def environment() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "src_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "calibration_s": round(_calibration_s(), 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed phase runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2

    # hermetic: no inherited disk cache; obs stays off.  One CPU: the
    # service's threads share one interpreter lock anyway, and handing it
    # between cores made latencies swing with whatever ran on the other
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(1, str(SRC))
    from repro import obs

    import workloads
    from spans import Recorder, layer_metrics, span_cost_s

    if obs.enabled():
        print("perfbench: repro.obs must be off", file=sys.stderr)
        return 2
    env = environment()
    recorder = Recorder() if args.trace else None
    seed = args.seed % (1 << 64)  # numpy seeds must be non-negative
    if args.workload == "serve":
        outcome = workloads.run_serve(seed, args.seconds, ROOT, recorder)
    else:
        outcome = workloads.run_ops(args.workload, seed, args.seconds, recorder)
    if obs.enabled() or obs.summary().get("events", 0):
        print("perfbench: repro.obs was switched on during the run",
              file=sys.stderr)
        return 2

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              **outcome.detail}
    if recorder is None:
        values, units = outcome.metrics, END_TO_END
    else:
        values = layer_metrics(recorder.spans(), outcome.ops, outcome.counters,
                               span_cost_s())
        units = per_layer_units()
        detail["spans"] = len(recorder.spans())
    print(json.dumps({"detail": detail}))
    failed = outcome.failed
    print(json.dumps({
        "correct": failed == 0 and not outcome.detail.get("problems"),
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
