"""Shard planner: split one workload across N simulated devices.

Multi-device execution partitions the *workload*, not the launch graph —
each device gets a self-contained sub-workload, builds and runs its own
plan, and the :class:`~repro.backends.group.DeviceGroup` merges the
results.  This module owns the partitioning policy:

* **Nested loops** — outer iterations are dealt round-robin over the
  degree-sorted order from the cached
  :class:`~repro.core.analysis.WorkloadAnalysis` (heaviest first), so
  every device receives the same mix of heavy and light rows.  A plain
  block split would hand one device the skewed tail of a power-law
  workload and serialize the group on it.
* **Recursive trees** — the root's child subtrees are packed onto devices
  by LPT (largest subtree first onto the least-loaded device); each shard
  gets a synthetic root adopting its subtrees, rebuilt in BFS level
  order so it is a valid :class:`~repro.trees.structure.Tree`.

Shard workloads carry **derived fingerprints** —
``blake2b(parent_fingerprint | kind | i/n)`` — so every plan/run/analysis
cache key downstream automatically incorporates the shard layout: a
4-device run can never collide with a 1-device run (or a 2-device one) in
the plan cache or on disk, and single-device keys are untouched.

Shard plans are memoized per ``(workload fingerprint, n_shards)``: the
subset arrays are built once per sweep, like the analysis artifacts they
derive from.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.analysis import get_analysis
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import PlanError

__all__ = ["Shard", "shard_workload", "clear_shard_cache"]


@dataclass
class Shard:
    """One device's slice of a sharded workload."""

    #: shard position within the group (0-based device index)
    index: int
    #: total shards in the plan this shard belongs to
    n_shards: int
    #: the self-contained sub-workload this device runs
    workload: object
    #: original outer-iteration ids (loops) or node ids (trees, aligned
    #: with the shard tree's BFS ids; -1 marks the synthetic root)
    members: np.ndarray
    #: "nested-loop" | "tree"
    kind: str

    @property
    def n_members(self) -> int:
        """Original iterations/nodes owned by this shard."""
        return int(np.count_nonzero(self.members >= 0))


def _derived_fingerprint(parent_fp: str, kind: str, index: int, n: int) -> str:
    """Shard fingerprint: parent fingerprint + shard coordinates.

    Derived (not recomputed from the subset arrays) for two reasons: it is
    free, and it guarantees shard cache keys differ from — and can never
    collide with — whole-workload keys even if a shard happens to contain
    every iteration.
    """
    h = hashlib.blake2b(f"{parent_fp}|{kind}-shard|{index}/{n}".encode(),
                        digest_size=16)
    return h.hexdigest()


# --------------------------------------------------------------- nested loops

def _shard_loop(workload: NestedLoopWorkload, n: int) -> list[Shard] | None:
    """Round-robin deal over the degree-sorted outer order."""
    analysis = get_analysis(workload)
    desc = analysis.order[::-1]  # heaviest outer iterations first
    parent_fp = workload.fingerprint()
    shards: list[Shard] = []
    for i in range(n):
        ids = np.sort(desc[i::n])
        if ids.size == 0:
            continue
        pair_idx, _ = workload.pairs_of(ids)
        streams = [
            AccessStream(
                name=s.name,
                addresses=s.addresses[pair_idx],
                kind=s.kind,
                element_bytes=s.element_bytes,
                staged_in_shared=s.staged_in_shared,
            )
            for s in workload.streams
        ]
        sub = NestedLoopWorkload(
            name=f"{workload.name}@dev{i}/{n}",
            trip_counts=workload.trip_counts[ids],
            streams=streams,
            atomic_targets=(
                workload.atomic_targets[pair_idx]
                if workload.atomic_targets is not None else None
            ),
            inner_insts=workload.inner_insts,
            outer_insts=workload.outer_insts,
            outer_load_bytes=workload.outer_load_bytes,
            outer_store_bytes=workload.outer_store_bytes,
        )
        sub._fingerprint = _derived_fingerprint(parent_fp, "loop", i, n)
        shards.append(Shard(index=i, n_shards=n, workload=sub,
                            members=ids, kind="nested-loop"))
    if len(shards) < 2:
        return None
    return shards


# ----------------------------------------------------------------------- trees

def _lpt_bins(weights: np.ndarray, n: int) -> list[list[int]]:
    """Longest-processing-time packing of item indices into n bins."""
    bins: list[list[int]] = [[] for _ in range(n)]
    totals = np.zeros(n, dtype=np.int64)
    for item in np.argsort(weights, kind="stable")[::-1]:
        b = int(np.argmin(totals))
        bins[b].append(int(item))
        totals[b] += int(weights[item])
    return [sorted(b) for b in bins if b]


def _shard_tree(workload, n: int) -> list[Shard] | None:
    """Cut the tree at the root: pack child subtrees onto devices by LPT."""
    from repro.core.recursive import RecursiveTreeWorkload
    from repro.trees.metrics import subtree_sizes
    from repro.trees.structure import Tree

    tree = workload.tree
    root_children = tree.children_of(0)
    if root_children.size < 2:
        return None
    sizes = subtree_sizes(tree)[root_children]
    bins = _lpt_bins(sizes, n)
    if len(bins) < 2:
        return None
    parent_fp = workload.fingerprint()
    parents = tree.parents
    depth = tree.depth
    shards: list[Shard] = []
    for i, bin_items in enumerate(bins):
        roots = root_children[bin_items]
        # membership mask, propagated level by level (BFS ids make each
        # level contiguous and every parent precede its children)
        mask = np.zeros(tree.n_nodes, dtype=bool)
        mask[roots] = True
        for level in range(2, depth):
            ids = tree.level_nodes(level)
            mask[ids] = mask[parents[ids]]
        # new BFS order: synthetic root, then original levels filtered by
        # the mask (ascending original id within each level)
        per_level = [np.flatnonzero(
            mask[tree.level_offsets[lv]:tree.level_offsets[lv + 1]]
        ) + tree.level_offsets[lv] for lv in range(1, depth)]
        per_level = [ids for ids in per_level if ids.size]
        orig_ids = np.concatenate(
            [np.array([-1], dtype=np.int64)] + per_level
        )
        m = orig_ids.size
        old2new = np.full(tree.n_nodes, -1, dtype=np.int64)
        old2new[orig_ids[1:]] = np.arange(1, m, dtype=np.int64)
        new_parents = np.empty(m, dtype=np.int64)
        new_parents[0] = -1
        old_parents = parents[orig_ids[1:]]
        new_parents[1:] = np.where(
            old_parents == 0, 0, old2new[old_parents]
        )
        level_counts = [1] + [ids.size for ids in per_level]
        level_offsets = np.zeros(len(level_counts) + 1, dtype=np.int64)
        np.cumsum(level_counts, out=level_offsets[1:])
        # child CSR: new ids 1..m-1 grouped by (new) parent
        child_order = np.argsort(new_parents[1:], kind="stable") + 1
        child_offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_parents[1:], minlength=m),
                  out=child_offsets[1:])
        sub_tree = Tree(
            parents=new_parents,
            level_offsets=level_offsets,
            child_offsets=child_offsets,
            children=child_order.astype(np.int64),
            name=f"{tree.name}@dev{i}/{n}",
        )
        sub = RecursiveTreeWorkload(
            tree=sub_tree, kind=workload.kind,
            inner_insts=workload.inner_insts,
        )
        sub._fingerprint = _derived_fingerprint(parent_fp, "tree", i, n)
        shards.append(Shard(index=i, n_shards=n, workload=sub,
                            members=orig_ids, kind="tree"))
    return shards


# ------------------------------------------------------------------ dispatch

_plans: dict[tuple[str, int], list[Shard] | None] = {}
_MAX_PLANS = 64


def shard_workload(workload, n: int) -> list[Shard] | None:
    """Split ``workload`` into up to ``n`` per-device shards.

    Returns ``None`` when the workload cannot usefully shard (fewer than
    two non-empty shards) — callers fall back to single-device execution.
    Plans are memoized by ``(fingerprint, n)``.
    """
    if n < 2:
        return None
    key = (workload.fingerprint(), n)
    if key in _plans:
        return _plans[key]
    if isinstance(workload, NestedLoopWorkload):
        plan = _shard_loop(workload, n)
    elif hasattr(workload, "tree"):
        plan = _shard_tree(workload, n)
    else:
        raise PlanError(
            f"cannot shard workload of type {type(workload).__name__}"
        )
    if len(_plans) >= _MAX_PLANS:
        _plans.pop(next(iter(_plans)))
    _plans[key] = plan
    return plan


def clear_shard_cache() -> None:
    """Drop memoized shard plans (tests and long-lived services)."""
    _plans.clear()
