"""Tests for the tree substrate: structure, generator, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError, GraphError
from repro.trees.generator import (
    branch_probability,
    expected_level_sizes,
    generate_tree,
)
from repro.trees.metrics import (
    ancestor_pairs,
    flat_atomic_count,
    node_heights,
    rec_hier_kernel_calls,
    rec_naive_kernel_calls,
    subtree_sizes,
)
from repro.trees.structure import Tree


class TestStructure:
    def test_minimal_tree(self):
        t = Tree(
            parents=np.array([-1]),
            level_offsets=np.array([0, 1]),
            child_offsets=np.array([0, 0]),
            children=np.array([], dtype=np.int64),
        )
        assert t.n_nodes == 1
        assert t.depth == 1
        assert t.n_leaves == 1

    def test_three_level_tree(self):
        # 0 -> 1,2 ; 1 -> 3
        t = Tree(
            parents=np.array([-1, 0, 0, 1]),
            level_offsets=np.array([0, 1, 3, 4]),
            child_offsets=np.array([0, 2, 3, 3, 3]),
            children=np.array([1, 2, 3]),
        )
        assert t.depth == 3
        assert t.children_of(0).tolist() == [1, 2]
        assert t.children_of(1).tolist() == [3]
        assert t.levels.tolist() == [0, 1, 1, 2]
        assert t.level_nodes(1).tolist() == [1, 2]
        assert t.level_size(1) == 2
        assert t.n_internal == 2

    def test_rejects_two_roots(self):
        with pytest.raises(GraphError):
            Tree(
                parents=np.array([-1, -1]),
                level_offsets=np.array([0, 2]),
                child_offsets=np.array([0, 0, 0]),
                children=np.array([], dtype=np.int64),
            )

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(GraphError):
            Tree(
                parents=np.array([-1, 0]),
                level_offsets=np.array([0, 1, 2]),
                child_offsets=np.array([0, 0, 0]),
                children=np.array([], dtype=np.int64),
            )

    def test_rejects_inconsistent_children(self):
        with pytest.raises(GraphError):
            Tree(
                parents=np.array([-1, 0, 1]),
                level_offsets=np.array([0, 1, 2, 3]),
                child_offsets=np.array([0, 2, 2, 2]),
                children=np.array([1, 2]),  # claims 2 is a child of 0
            )

    @pytest.mark.parametrize("parents, level_offsets, child_offsets, children", [
        # node 3's child listed before node 2: subtree sizes and heights
        # came out wrong on this tree
        ([-1, 0, 3, 0], [0, 1, 4], [0, 2, 2, 2, 3], [1, 3, 2]),
        # a chain whose last node sits in its parent's level
        ([-1, 0, 1], [0, 1, 3], [0, 1, 2, 2], [1, 2]),
        # the root's children listed out of order
        ([-1, 0, 0], [0, 1, 3], [0, 2, 2, 2], [2, 1]),
        # level 0 holding a second node besides the root
        ([-1, 0], [0, 2], [0, 1, 1], [1]),
        # a negative out-degree (was a bare ValueError from np.repeat)
        ([-1, 0, 0], [0, 1, 3], [0, 3, 1, 2], [1, 2]),
        # no level offsets at all (was a bare IndexError)
        ([-1], [], [0, 0], []),
    ], ids=["child-before-parent", "parent-in-own-level", "children-reversed",
            "root-level-shared", "negative-degree", "no-levels"])
    def test_rejects_trees_out_of_bfs_order(self, parents, level_offsets,
                                            child_offsets, children):
        with pytest.raises(GraphError):
            Tree(parents=np.array(parents),
                 level_offsets=np.array(level_offsets),
                 child_offsets=np.array(child_offsets),
                 children=np.array(children))

    def test_level_out_of_range(self):
        t = generate_tree(2, 2)
        with pytest.raises(GraphError):
            t.level_nodes(5)


class TestGenerator:
    def test_regular_tree_shape(self):
        t = generate_tree(depth=4, outdegree=3, sparsity=0.0)
        assert t.n_nodes == 1 + 3 + 9 + 27
        assert t.depth == 4
        assert [t.level_size(i) for i in range(4)] == [1, 3, 9, 27]
        # all non-leaf nodes have exactly `outdegree` children
        deg = t.out_degrees
        assert set(deg.tolist()) == {0, 3}

    def test_depth_one(self):
        t = generate_tree(1, 5)
        assert t.n_nodes == 1

    def test_sparsity_zero_is_full(self):
        assert branch_probability(0) == 1.0
        t = generate_tree(3, 4, sparsity=0.0)
        assert t.n_nodes == 1 + 4 + 16

    def test_sparsity_prunes(self):
        full = generate_tree(5, 4, sparsity=0.0, seed=1)
        sparse = generate_tree(5, 4, sparsity=2.0, seed=1)
        assert sparse.n_nodes < full.n_nodes

    def test_branch_probability_values(self):
        assert branch_probability(1) == 0.5
        assert branch_probability(4) == 0.0625
        with pytest.raises(DatasetError):
            branch_probability(-1)

    def test_expected_sizes_statistically(self):
        sizes = np.zeros(4)
        n_trials = 30
        for s in range(n_trials):
            t = generate_tree(4, 8, sparsity=1.0, seed=s)
            for lvl in range(t.depth):
                sizes[lvl] += t.level_size(lvl)
        sizes /= n_trials
        expected = expected_level_sizes(4, 8, 1.0)
        # root always branches; deeper levels are rho-thinned
        assert sizes[1] == pytest.approx(expected[1])
        assert sizes[2] == pytest.approx(expected[2], rel=0.35)

    def test_max_nodes_guard(self):
        with pytest.raises(DatasetError, match="max_nodes"):
            generate_tree(4, 512, sparsity=0.0)  # 135M nodes

    def test_determinism(self):
        a = generate_tree(4, 6, sparsity=1.0, seed=42)
        b = generate_tree(4, 6, sparsity=1.0, seed=42)
        assert np.array_equal(a.parents, b.parents)

    def test_validation(self):
        with pytest.raises(DatasetError):
            generate_tree(0, 4)
        with pytest.raises(DatasetError):
            generate_tree(3, 0)


class TestMetrics:
    def test_ancestor_pairs_full_tree(self):
        t = generate_tree(4, 3, sparsity=0.0)
        # 3*1 + 9*2 + 27*3 = 102
        assert ancestor_pairs(t) == 102
        assert flat_atomic_count(t) == 102

    def test_paper_closed_forms_at_scale(self):
        # the paper's full-scale counts, computed from the closed forms the
        # generator obeys (without materializing a 134M-node tree)
        d = 512
        pairs = d * 1 + d**2 * 2 + d**3 * 3
        assert pairs == 403_177_984  # "403 m" in Fig. 7(c)
        naive_calls = 1 + d + d**2
        assert naive_calls == 262_657  # "263k"
        hier_calls = 1 + d
        assert hier_calls == 513  # "513"

    def test_rec_naive_calls_small(self):
        t = generate_tree(4, 3, sparsity=0.0)
        # 1 + internal-below-root = 1 + 3 + 9
        assert rec_naive_kernel_calls(t) == 13

    def test_rec_hier_calls_small(self):
        t = generate_tree(4, 3, sparsity=0.0)
        # 1 + nodes below root with grandchildren = 1 + 3
        assert rec_hier_kernel_calls(t) == 4

    def test_subtree_sizes_regular(self):
        t = generate_tree(3, 2, sparsity=0.0)
        sizes = subtree_sizes(t)
        assert sizes[0] == 7
        assert sizes[1] == sizes[2] == 3
        assert np.all(sizes[3:] == 1)

    def test_node_heights_regular(self):
        t = generate_tree(3, 2, sparsity=0.0)
        h = node_heights(t)
        assert h[0] == 3
        assert h[1] == h[2] == 2
        assert np.all(h[3:] == 1)

    def test_matches_recursive_oracle(self):
        from repro.cpu.trees import descendants_recursive_py, heights_recursive_py

        for seed in range(3):
            t = generate_tree(5, 3, sparsity=1.0, seed=seed)
            assert np.array_equal(subtree_sizes(t), descendants_recursive_py(t))
            assert np.array_equal(node_heights(t), heights_recursive_py(t))

    @given(st.integers(2, 5), st.integers(1, 5), st.integers(0, 3), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_invariants(self, depth, outdegree, sparsity, seed):
        t = generate_tree(depth, outdegree, float(sparsity), seed=seed)
        sizes = subtree_sizes(t)
        # the root's subtree is the whole tree
        assert sizes[0] == t.n_nodes
        # subtree sizes sum to ancestor pairs + n (each node counted once
        # per ancestor-or-self)
        assert int(sizes.sum()) == ancestor_pairs(t) + t.n_nodes
        h = node_heights(t)
        assert h[0] == t.depth or t.n_nodes == 1
        assert np.all(h >= 1)
        # kernel-call counts are bounded by node counts
        assert rec_hier_kernel_calls(t) <= rec_naive_kernel_calls(t) + 1
        assert rec_naive_kernel_calls(t) <= t.n_nodes + 1
