#!/usr/bin/env python
"""Streaming mutation throughput: incremental analysis + live serving.

Two measurements of the streaming-graph pipeline (docs/streaming.md), in
one process:

* **analysis maintenance** — a workload absorbs a stream of small edge
  batches; every step we time the incremental path (delta replay through
  ``get_analysis``) against a from-scratch ``WorkloadAnalysis`` of the
  same mutated workload.  The acceptance gate: sustained incremental
  maintenance must be at least ``--min-speedup`` (3x) faster than
  re-analysis — the whole point of carrying deltas instead of
  recomputing histograms, sort orders and segment ids per mutation.
* **live serving** — one ``repro.serve`` process with a registered
  :class:`~repro.service.WorkloadStream`: a mutator thread applies
  batches as fast as the service absorbs them while query threads pin
  requests to a snapshot version.  Reported: sustained updates/sec,
  query throughput, and the torn-read count — queries pinned to version
  0 must reproduce the version-0 reference timing *exactly* regardless
  of how many mutations landed mid-flight (acceptance: zero torn reads).

The record lands in ``BENCH_streaming.json``::

    python benchmarks/bench_streaming.py                  # full run
    python benchmarks/bench_streaming.py --smoke          # tiny/quick
    python benchmarks/bench_streaming.py --min-speedup 3  # gate
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core.analysis import (  # noqa: E402
    WorkloadAnalysis,
    analysis_stats,
    clear_analysis_cache,
    get_analysis,
)
from repro.core.artifactcache import configure_artifact_cache  # noqa: E402
from repro.core.mutation import MutationBatch, PairInserts  # noqa: E402
from repro.core.workload import AccessStream, NestedLoopWorkload  # noqa: E402


def build_workload(n_rows: int, seed: int) -> NestedLoopWorkload:
    # sparse, high-row-count shape (avg degree ~5): the streaming-graph
    # regime — road networks, social deltas — where per-mutation
    # re-analysis pays an O(n log n) re-sort the delta path avoids
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.5, size=n_rows).clip(max=12).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=f"stream-bench-{n_rows}",
        trip_counts=trips,
        streams=[
            AccessStream("col-index", rng.integers(0, 1 << 22, nnz) * 4,
                         "load", 4),
            AccessStream("gather", rng.integers(0, 1 << 22, nnz) * 8,
                         "load", 8),
        ],
        atomic_targets=rng.integers(-1, n_rows, nnz),
    )


def small_batch(rng: np.random.Generator, wl: NestedLoopWorkload,
                edges: int) -> MutationBatch:
    """An insert+delete batch touching ~``edges`` pairs — the steady-state
    trickle the incremental path is built for."""
    n, nnz = wl.outer_size, wl.n_pairs
    k = min(edges, max(1, nnz // 50))
    delete = rng.choice(nnz, size=k, replace=False)
    rows = rng.integers(0, n, edges)
    inserts = PairInserts(
        outer_ids=rows,
        stream_addresses=[rng.integers(0, 1 << 22, edges) * 4,
                          rng.integers(0, 1 << 22, edges) * 8],
        atomic_targets=rng.integers(-1, n, edges),
    )
    return MutationBatch(inserts=inserts, delete_pairs=delete)


# ------------------------------------------------------ analysis maintenance
def bench_analysis(n_rows: int, n_batches: int, edges: int,
                   seed: int) -> dict:
    wl = build_workload(n_rows, seed)
    rng = np.random.default_rng(seed + 1)
    clear_analysis_cache(reset_stats=True)
    get_analysis(wl)  # the base the delta chain grows from

    inc_s = scratch_s = 0.0
    for _ in range(n_batches):
        wl.apply_mutations(small_batch(rng, wl, edges))
        t0 = time.perf_counter()
        inc = get_analysis(wl)
        inc_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        scratch = WorkloadAnalysis.from_workload(wl)
        scratch_s += time.perf_counter() - t0
        if inc.fingerprint != scratch.fingerprint:
            raise SystemExit("incremental analysis drifted from workload")
    stats = analysis_stats()
    return {
        "rows": wl.outer_size,
        "pairs": wl.n_pairs,
        "batches": n_batches,
        "edges_per_batch": edges,
        "incremental_ms": round(inc_s * 1e3, 3),
        "from_scratch_ms": round(scratch_s * 1e3, 3),
        "speedup": round(scratch_s / inc_s, 2) if inc_s else float("inf"),
        "updates_per_sec": round(n_batches / inc_s, 1) if inc_s else None,
        "incremental_hits": stats.get("incremental_hits", 0),
        "delta_fallbacks": stats.get("delta_fallbacks", 0),
    }


# ------------------------------------------------------------- live serving
def bench_service(n_rows: int, duration_s: float, seed: int,
                  queriers: int = 2) -> dict:
    wl = build_workload(n_rows, seed)
    stop = threading.Event()
    mutations = 0
    torn = 0
    query_ok = 0
    evicted = 0

    with repro.serve(max_batch=8, workers=1) as svc:
        svc.register_workload("stream", wl, keep_versions=64)

        def mutator():
            nonlocal mutations
            rng = np.random.default_rng(seed + 2)
            while not stop.is_set():
                svc.mutate_workload("stream", small_batch(rng, wl, 16))
                mutations += 1

        def querier(qseed: int):
            nonlocal torn, query_ok, evicted
            from repro.errors import ServiceError

            while not stop.is_set():
                # pin a recently retained snapshot and read it twice: the
                # two answers must be identical no matter how many
                # mutations land between them
                head = svc.stats()["streams"]["stream"]["version"]
                version = max(0, head - 4)
                try:
                    first = svc.request(None, "stream", version=version)
                    second = svc.request(None, "stream", version=version)
                except ServiceError:
                    evicted += 1  # snapshot aged out of the window: retry
                    continue
                if (first.status != "ok" or second.status != "ok"
                        or first.time_ms != second.time_ms):
                    torn += 1
                else:
                    query_ok += 2

        threads = [threading.Thread(target=mutator)]
        threads += [threading.Thread(target=querier, args=(q,))
                    for q in range(queriers)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        time.sleep(duration_s)
        stop.set()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        snap = svc.stats()

    head_version = snap["streams"]["stream"]["version"]
    return {
        "rows": n_rows,
        "duration_s": round(elapsed, 3),
        "queriers": queriers,
        "mutations": mutations,
        "updates_per_sec": round(mutations / elapsed, 1),
        "queries": query_ok + torn,
        "queries_per_sec": round((query_ok + torn) / elapsed, 1),
        "torn_reads": torn,
        "evicted_retries": evicted,
        "head_version": head_version,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, default=100000,
                        help="outer loop count of the streamed workload")
    parser.add_argument("--batches", type=int, default=200,
                        help="mutation batches in the analysis phase")
    parser.add_argument("--edges", type=int, default=16,
                        help="edges touched per mutation batch")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="serving phase wall budget (seconds)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail when incremental maintenance is less "
                             "than this much faster than re-analysis "
                             "(acceptance: 3.0)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_streaming.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows = min(args.rows, 60000)
        args.batches = min(args.batches, 60)
        args.duration = min(args.duration, 0.8)

    configure_artifact_cache(None)  # keep timings hermetic: no disk reuse
    t0 = time.perf_counter()
    analysis = bench_analysis(args.rows, args.batches, args.edges, seed=7)
    print(
        f"analysis maintenance: {analysis['batches']} batches x "
        f"{analysis['edges_per_batch']} edges over {analysis['pairs']} pairs "
        f"-> incremental {analysis['incremental_ms']:.1f} ms vs from-scratch "
        f"{analysis['from_scratch_ms']:.1f} ms ({analysis['speedup']:.2f}x, "
        f"{analysis['updates_per_sec']:.0f} updates/s, "
        f"{analysis['delta_fallbacks']} fallbacks)"
    )
    serving = bench_service(max(args.rows // 10, 1000), args.duration, seed=7)
    print(
        f"live serving: {serving['updates_per_sec']:.0f} updates/s "
        f"sustained with {serving['queries_per_sec']:.0f} pinned queries/s "
        f"({serving['queriers']} queriers), head at v{serving['head_version']}"
        f", torn reads {serving['torn_reads']}"
    )

    record = {
        "benchmark": "streaming",
        "description": "incremental WorkloadAnalysis maintenance vs "
                       "from-scratch re-analysis under a mutation stream, "
                       "plus sustained mutate+query throughput of one "
                       "serving process with snapshot-pinned reads",
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            "rows": args.rows,
            "batches": args.batches,
            "edges_per_batch": args.edges,
            "serving_duration_s": args.duration,
        },
        "analysis": analysis,
        "serving": serving,
        "incremental_speedup": analysis["speedup"],
        "torn_reads": serving["torn_reads"],
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out} ({time.perf_counter() - t0:.1f}s)")

    failed = False
    if args.min_speedup and analysis["speedup"] < args.min_speedup:
        print(f"GATE FAILED: incremental speedup {analysis['speedup']:.2f}x "
              f"< required {args.min_speedup:g}x")
        failed = True
    if serving["torn_reads"]:
        print(f"GATE FAILED: {serving['torn_reads']} torn snapshot reads "
              f"(pinned version-0 queries must be immutable)")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
