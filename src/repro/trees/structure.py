"""Level-array tree representation.

Trees are stored in BFS order: node ids are assigned level by level, so
each level is a contiguous id range and each node's children form a
contiguous slice.  :class:`Tree` enforces that order, and the package
relies on what follows from it: ``children`` is ``1 .. n-1``, so the
internal nodes and their out-degrees determine ``parents`` (the workload
fingerprint hashes just those); the ``k``-th ancestors of the nodes
``level_offsets[k] .. n`` are non-decreasing, so the flat template costs
its ancestor walk level by level without a sort; and a node's level is
its depth, which the level sweeps (tree descendants / heights) read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError

__all__ = ["Tree"]


@dataclass
class Tree:
    """A rooted tree in BFS (level) order.

    ``parents[i]`` is the parent id of node ``i`` (-1 for the root);
    ``level_offsets`` delimits levels (nodes of level ``L`` are ids
    ``level_offsets[L] .. level_offsets[L+1]``); ``child_offsets`` /
    ``children`` form a CSR adjacency over children.

    Construction raises :class:`GraphError` unless the arrays are in BFS
    order: ``children`` is ``1 .. n-1``, ``parents[1:]`` is non-decreasing
    and agrees with ``child_offsets``, level 0 is the root alone, and
    every other level's parents are in the level before it.
    """

    parents: np.ndarray
    level_offsets: np.ndarray
    child_offsets: np.ndarray
    children: np.ndarray
    name: str = "tree"

    def __post_init__(self) -> None:
        self.parents = np.asarray(self.parents, dtype=np.int64)
        self.level_offsets = np.asarray(self.level_offsets, dtype=np.int64)
        self.child_offsets = np.asarray(self.child_offsets, dtype=np.int64)
        self.children = np.asarray(self.children, dtype=np.int64)
        n = self.parents.size
        if n == 0:
            raise GraphError("a tree needs at least a root node")
        if self.parents[0] != -1:
            raise GraphError("node 0 must be the root (parent -1)")
        if np.count_nonzero(self.parents == -1) != 1:
            raise GraphError("exactly one root expected")
        offsets = self.level_offsets
        if offsets.size < 2 or offsets[0] != 0 or offsets[-1] != n:
            raise GraphError("level_offsets must span [0, n_nodes]")
        if np.any(np.diff(offsets) < 0):
            raise GraphError("level_offsets must be non-decreasing")
        co = self.child_offsets
        if co.size != n + 1:
            raise GraphError("child_offsets must have n_nodes + 1 entries")
        if co[-1] != self.children.size:
            raise GraphError("child_offsets end must equal len(children)")
        if self.children.size != n - 1:
            raise GraphError(
                f"a tree over {n} nodes must have exactly {n - 1} child edges, "
                f"got {self.children.size}"
            )
        if co[0] != 0 or np.any(co[1:] < co[:-1]):
            raise GraphError("child_offsets must start at 0 and be "
                             "non-decreasing")
        if not np.array_equal(self.children, np.arange(1, n)):
            raise GraphError("children must list nodes 1 .. n-1 in BFS order")
        if np.any(self.parents[2:] < self.parents[1:-1]):
            raise GraphError("parents[1:] must be non-decreasing (BFS order)")
        # parents[] is monotone, so each child slice agrees with it iff
        # its first and last node name the slice's owner
        internal = np.flatnonzero(co[1:] > co[:-1])
        if not (np.array_equal(self.parents[co[internal] + 1], internal)
                and np.array_equal(self.parents[co[internal + 1]], internal)):
            raise GraphError("child_offsets/children disagree with parents[]")
        # the same monotonicity puts a level's parents in the level above
        # iff its first and last node's parents are there
        if offsets[1] != 1:
            raise GraphError("level 0 must hold the root alone")
        starts, ends = offsets[1:-1], offsets[2:]
        filled = np.flatnonzero(starts < ends)
        if not (np.all(self.parents[starts[filled]] >= offsets[filled])
                and np.all(self.parents[ends[filled] - 1]
                           < offsets[filled + 1])):
            raise GraphError("every level's parents must be in the level "
                             "before it (BFS order)")

    # ------------------------------------------------------------- properties
    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return self.parents.size

    @property
    def depth(self) -> int:
        """Number of levels (root = level 0)."""
        return self.level_offsets.size - 1

    @property
    def out_degrees(self) -> np.ndarray:
        """Children count per node."""
        return np.diff(self.child_offsets)

    @property
    def levels(self) -> np.ndarray:
        """Level of every node (vectorized from the level offsets)."""
        counts = np.diff(self.level_offsets)
        return np.repeat(np.arange(self.depth, dtype=np.int64), counts)

    def level_nodes(self, level: int) -> np.ndarray:
        """Node ids of one level."""
        if not (0 <= level < self.depth):
            raise GraphError(f"level {level} out of range [0, {self.depth})")
        return np.arange(
            self.level_offsets[level], self.level_offsets[level + 1],
            dtype=np.int64,
        )

    def level_size(self, level: int) -> int:
        """Number of nodes at one level."""
        if not (0 <= level < self.depth):
            raise GraphError(f"level {level} out of range [0, {self.depth})")
        return int(self.level_offsets[level + 1] - self.level_offsets[level])

    def children_of(self, node: int) -> np.ndarray:
        """Children slice of one node."""
        if not (0 <= node < self.n_nodes):
            raise GraphError(f"node {node} out of range")
        return self.children[self.child_offsets[node]: self.child_offsets[node + 1]]

    @property
    def n_leaves(self) -> int:
        """Number of nodes without children."""
        return int(np.count_nonzero(self.out_degrees == 0))

    @property
    def n_internal(self) -> int:
        """Number of nodes with at least one child."""
        return self.n_nodes - self.n_leaves
