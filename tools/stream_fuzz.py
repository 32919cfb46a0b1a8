#!/usr/bin/env python
"""Differential fuzz of streaming workload mutations.

Fast gate (wired into ``make test`` as ``make stream-smoke``) over the
snapshot contract (docs/streaming.md): for random workloads under random
mutation chains,

1. **snapshots are immutable** — every ``mutated`` step leaves the parent
   snapshot's arrays and fingerprint untouched, gives the child a new
   fingerprint one version up, and returns a delta naming both;
2. **no version is served another's artifacts** — after each chain, every
   nested-loop template runs on the first and the last snapshot with the
   caches warm from the whole chain (every version's analysis, then the
   first snapshot's plans and runs); then the same runs repeat cold, with
   every memory kind of the tiered cache cleared before each snapshot.
   Both passes must give equal ``ExecutionResult``\ s.

Exit code 0 = all checks passed across all seeds.  Keep this under a few
seconds: sizes are smoke-scale, coverage comes from seeds x steps.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core.analysis import get_analysis  # noqa: E402
from repro.core.artifactcache import (  # noqa: E402
    KINDS,
    configure_artifact_cache,
    tiered_cache,
)
from repro.core.mutation import MutationBatch, PairInserts  # noqa: E402
from repro.core.registry import NESTED_LOOP_TEMPLATES  # noqa: E402
from repro.core.workload import AccessStream, NestedLoopWorkload  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def random_workload(rng: np.random.Generator, seed: int) -> NestedLoopWorkload:
    n = int(rng.integers(96, 192))
    trips = rng.zipf(1.7, size=n).clip(max=80).astype(np.int64)
    trips[rng.random(n) < 0.15] = 0  # empty rows are a real streaming state
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=f"fuzz-{seed}",
        trip_counts=trips,
        streams=[
            AccessStream("a", rng.integers(0, 1 << 20, nnz) * 4, "load", 4),
            AccessStream("b", rng.integers(0, 1 << 20, nnz) * 8, "load", 8),
        ],
        atomic_targets=rng.integers(-1, n, nnz),
    )


def random_batch(rng: np.random.Generator, wl: NestedLoopWorkload) -> MutationBatch:
    n, nnz = wl.outer_size, wl.n_pairs
    delete = None
    if nnz and rng.random() < 0.7:
        k = int(rng.integers(1, max(2, nnz // 10)))
        delete = rng.choice(nnz, size=min(k, nnz), replace=False)
    isolate = None
    if rng.random() < 0.3:
        isolate = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
    append = int(rng.integers(0, 3)) if rng.random() < 0.4 else 0
    inserts = None
    if rng.random() < 0.8:
        k = int(rng.integers(1, 13))
        rows = rng.integers(0, n + append, k)
        inserts = PairInserts(
            outer_ids=rows,
            stream_addresses=[rng.integers(0, 1 << 20, k) * 4,
                              rng.integers(0, 1 << 20, k) * 8],
            atomic_targets=rng.integers(-1, n + append, k),
        )
    batch = MutationBatch(inserts=inserts, delete_pairs=delete,
                          isolate_outer=isolate, append_outer=append)
    if batch.is_empty():  # degenerate roll: force a minimal insert
        batch = MutationBatch(inserts=PairInserts(
            outer_ids=np.array([int(rng.integers(0, n))]),
            stream_addresses=[np.array([4]), np.array([8])],
            atomic_targets=np.array([-1]),
        ))
    return batch


def trace_of(wl: NestedLoopWorkload) -> list[np.ndarray]:
    """Copies of every per-row and per-pair array of ``wl``."""
    arrays = [wl.trip_counts, wl.pair_offsets]
    arrays += [stream.addresses for stream in wl.streams]
    if wl.atomic_targets is not None:
        arrays.append(wl.atomic_targets)
    return [a.copy() for a in arrays]


def mutate_chain(rng: np.random.Generator, first: NestedLoopWorkload,
                 steps: int, label: str) -> list[NestedLoopWorkload]:
    """``steps`` random ``mutated`` steps from ``first``; checks that each
    leaves its parent untouched and warms every version's analysis."""
    snapshots = [first]
    get_analysis(first)
    for step in range(steps):
        parent = snapshots[-1]
        fingerprint, trace = parent.fingerprint(), trace_of(parent)
        child, delta = parent.mutated(random_batch(rng, parent))
        where = f"{label} step {step}"
        if parent.fingerprint() != fingerprint or not all(
                np.array_equal(a, b) for a, b in zip(trace, trace_of(parent))):
            fail(f"{where}: mutated() changed the parent snapshot")
        if (child.fingerprint() in {s.fingerprint() for s in snapshots}
                or child.version != parent.version + 1):
            fail(f"{where}: the child did not get a new identity")
        if (delta.parent_fingerprint, delta.fingerprint, delta.version_to) != (
                fingerprint, child.fingerprint(), child.version):
            fail(f"{where}: the delta does not name parent and child")
        get_analysis(child)
        snapshots.append(child)
    return snapshots


def run_all(wl: NestedLoopWorkload, cold: bool) -> list:
    """Every nested-loop template on ``wl``; ``cold`` first clears every
    memory kind, so each artifact is built from ``wl``'s own trace."""
    if cold:
        cache = tiered_cache()
        for kind in KINDS:
            cache.clear(kind)
    return [repro.run(wl, name).result for name in NESTED_LOOP_TEMPLATES]


def fuzz_seed(seed: int, steps: int) -> None:
    rng = np.random.default_rng(seed)
    snapshots = mutate_chain(rng, random_workload(rng, seed), steps,
                             f"seed {seed}")
    ends = (snapshots[0], snapshots[-1])
    warm = [r for wl in ends for r in run_all(wl, cold=False)]
    cold = [r for wl in ends for r in run_all(wl, cold=True)]
    names = [f"v{wl.version} {name}" for wl in ends
             for name in NESTED_LOOP_TEMPLATES]
    for name, a, b in zip(names, warm, cold):
        if a != b:
            fail(f"seed {seed}: {name} differs between warm and cold caches "
                 f"({a.cycles} vs {b.cycles} cycles)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=6,
                        help="number of fuzz seeds (default 6)")
    parser.add_argument("--steps", type=int, default=10,
                        help="mutation steps per seed (default 10)")
    args = parser.parse_args()
    if args.seeds < 5:
        fail("--seeds must be >= 5 (the gate's minimum coverage)")

    configure_artifact_cache(None)  # keep the fuzz hermetic: no disk reuse
    for seed in range(args.seeds):
        fuzz_seed(seed, args.steps)
    print(
        f"stream fuzz OK: {args.seeds} seeds x {args.steps} steps, every "
        f"parent snapshot untouched, {len(NESTED_LOOP_TEMPLATES)} templates "
        f"equal on the first and last snapshot with warm and cleared caches"
    )


if __name__ == "__main__":
    main()
