"""The paper's synthetic tree generator.

Section III.C: "Our tree generator produces trees with different shapes
based on three parameters: tree depth, node outdegree and sparsity. [...]
All non-leaf nodes have the same number of children, which is given by the
node outdegree parameter.  The probability rho of the non-leaf nodes
having children is defined as rho = (1/2)^sparsity."

sparsity = 0 therefore yields a regular tree where every leaf sits at
maximum depth; larger sparsity values prune subtrees at random, producing
increasingly irregular trees.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.trees.structure import Tree

__all__ = ["generate_tree", "branch_probability", "expected_level_sizes"]


def branch_probability(sparsity: float) -> float:
    """The paper's rho = (1/2)^sparsity."""
    if sparsity < 0:
        raise DatasetError("sparsity cannot be negative")
    return 0.5 ** sparsity


def expected_level_sizes(
    depth: int, outdegree: int, sparsity: float
) -> list[float]:
    """Expected node count per level: n_{L+1} = n_L * rho * outdegree.

    Used to size experiments and as a statistical test oracle.
    """
    if depth < 1:
        raise DatasetError("depth must be >= 1")
    if outdegree < 0:
        raise DatasetError("outdegree cannot be negative")
    rho = branch_probability(sparsity)
    sizes = [1.0]
    for level in range(1, depth):
        # The root always branches (otherwise the tree is trivially empty);
        # deeper internal nodes branch with probability rho.
        p = 1.0 if level == 1 else rho
        sizes.append(sizes[-1] * p * outdegree)
    return sizes


def generate_tree(
    depth: int,
    outdegree: int,
    sparsity: float = 0.0,
    seed: int = 0,
    max_nodes: int = 5_000_000,
) -> Tree:
    """Generate a synthetic tree with the paper's three parameters.

    ``depth`` counts levels (the paper's "depth 4" trees have levels
    0..3).  The root always gets children (a childless root would make
    every run on sparse settings degenerate); every other non-leaf
    candidate branches with probability ``rho = (1/2)**sparsity``.

    Raises :class:`DatasetError` if the expected tree exceeds
    ``max_nodes`` — outdegree 512 at depth 4 means 135 million nodes,
    which is why the benchmark defaults sweep scaled outdegrees (see
    DESIGN.md §2).
    """
    if depth < 1:
        raise DatasetError("depth must be >= 1")
    if outdegree < 1 and depth > 1:
        raise DatasetError("outdegree must be >= 1 for multi-level trees")
    expected = sum(expected_level_sizes(depth, outdegree, sparsity))
    if expected > max_nodes:
        raise DatasetError(
            f"expected ~{expected:.0f} nodes exceeds max_nodes={max_nodes}; "
            "reduce depth/outdegree or raise max_nodes"
        )
    rho = branch_probability(sparsity)
    rng = np.random.default_rng(seed)

    parents_chunks: list[np.ndarray] = [np.array([-1], dtype=np.int64)]
    level_sizes = [1]
    degrees_chunks: list[np.ndarray] = []
    current_ids = np.array([0], dtype=np.int64)
    next_id = 1
    for level in range(1, depth):
        if current_ids.size == 0:
            degrees_chunks.append(np.zeros(0, dtype=np.int64))
            level_sizes.append(0)
            break
        if level == 1:
            branching = np.ones(current_ids.size, dtype=bool)
        else:
            branching = rng.random(current_ids.size) < rho
        degs = np.where(branching, outdegree, 0).astype(np.int64)
        degrees_chunks.append(degs)
        n_new = int(degs.sum())
        if next_id + n_new > max_nodes:
            raise DatasetError(
                f"tree exceeded max_nodes={max_nodes} at level {level}"
            )
        parents_chunks.append(np.repeat(current_ids[branching], outdegree))
        level_sizes.append(n_new)
        current_ids = np.arange(next_id, next_id + n_new, dtype=np.int64)
        next_id += n_new
    # nodes of the last generated level are leaves
    degrees_chunks.append(np.zeros(current_ids.size, dtype=np.int64))

    parents = np.concatenate(parents_chunks)
    degrees = np.concatenate(degrees_chunks)[: parents.size]
    n = parents.size
    child_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=child_offsets[1:])
    children = np.arange(1, n, dtype=np.int64)  # BFS order property
    level_sizes = [s for s in level_sizes if s > 0] or [1]
    level_offsets = np.zeros(len(level_sizes) + 1, dtype=np.int64)
    np.cumsum(np.array(level_sizes), out=level_offsets[1:])
    return Tree(
        parents=parents,
        level_offsets=level_offsets,
        child_offsets=child_offsets,
        children=children,
        name=f"tree-d{depth}-o{outdegree}-s{sparsity:g}",
    )
