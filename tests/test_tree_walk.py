"""The flat template's level-by-level ancestor walk and the per-node tree
analysis, against the pair-array oracles they replaced.

The oracles store every (node, ancestor) pair of the walk, hop-major, and
cost it with the general sort-based helpers
(:func:`~repro.gpusim.coalesce.transaction_counts`,
:func:`~repro.gpusim.atomics.flat_atomic_cycles`); the per-node oracle
builds each :class:`TreeAnalysis` array with scatter-adds.  Plans must be
bit-identical: graphs are compared as pickles.
"""

import pickle
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.analysis import TreeAnalysis
from repro.core.params import TemplateParams
from repro.core.recursive import (
    FlatTreeTemplate,
    RecHierTreeTemplate,
    RecNaiveTreeTemplate,
    RecursiveTreeWorkload,
)
from repro.gpusim import atomics, coalesce
from repro.gpusim.coalesce import TRACE_SEGMENT_BYTES
from repro.gpusim.config import KEPLER_K20
from repro.gpusim.costmodel import KernelCostBuilder
from repro.gpusim.kernels import LaunchGraph
from repro.trees.generator import generate_tree
from repro.trees.structure import Tree

BLOCKS = (32, 48, 64, 100, 192)


# ------------------------------------------------------------------ oracles
def pair_walk(tree):
    """``(nodes, ancestors, hops)``: every (node, k-th ancestor) pair of
    the flat kernel's walk, hop-major, ascending node within a hop."""
    nodes, ancestors, hops = [], [], []
    current = tree.parents.copy()
    hop = 0
    alive = np.flatnonzero(current >= 0)
    while alive.size:
        nodes.append(alive)
        ancestors.append(current[alive])
        hops.append(np.full(alive.size, hop, dtype=np.int64))
        nxt = np.full(tree.n_nodes, -1, dtype=np.int64)
        nxt[alive] = tree.parents[current[alive]]
        current = nxt
        alive = np.flatnonzero(current >= 0)
        hop += 1
    if not nodes:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return (np.concatenate(nodes), np.concatenate(ancestors),
            np.concatenate(hops))


def flat_graph_oracle(workload, config, params):
    """The flat kernel costed from stored, sorted (node, ancestor) pairs."""
    tree = workload.tree
    n = tree.n_nodes
    builder = KernelCostBuilder(
        config, f"{workload.name}/flat",
        block_size=params.thread_block,
        n_blocks=max(1, -(-n // params.thread_block)),
        registers_per_thread=params.registers_per_thread,
    )
    builder.add_uniform(n, insts=8.0)
    builder.add_loop(tree.levels, insts_per_iter=workload.inner_insts)
    nodes, ancestors, hops = pair_walk(tree)
    if nodes.size:
        warp = builder.warp_of_thread(nodes)
        max_hop = int(hops.max()) + 1
        group = warp * max_hop + hops
        tx = coalesce.transaction_counts(
            warp, group, None, builder.n_warps, agg_divisor=max_hop,
            segments=ancestors * 8 // TRACE_SEGMENT_BYTES)
        builder.add_traffic(tx, int(nodes.size) * 8, "load")
        cycles, stats = atomics.flat_atomic_cycles(
            warp, group, ancestors, builder.n_warps, config)
        builder.add_atomic_cycles(cycles, stats)
        builder.add_hot_address_tail(np.bincount(ancestors, minlength=n))
    graph = LaunchGraph()
    graph.add(builder.build())
    return graph


def per_node_oracle(tree):
    """The :class:`TreeAnalysis` arrays, built with scatter-adds."""
    n = tree.n_nodes
    degrees = tree.out_degrees
    internal = np.flatnonzero(degrees > 0)
    child_internal = np.zeros(n, dtype=np.int64)
    if internal.size:
        non_root = internal[internal != 0]
        np.add.at(child_internal, tree.parents[non_root], 1)
    sibling_rank = np.zeros(n, dtype=np.int64)
    if internal.size:
        sibling_rank[tree.children] = np.concatenate(
            [np.arange(d, dtype=np.int64) for d in degrees[internal].tolist()])
    child_deg_sum = np.zeros(n, dtype=np.int64)
    if n > 1:
        np.add.at(child_deg_sum, tree.parents[1:], degrees[1:])
    needs = np.flatnonzero(child_deg_sum > 0)
    if 0 not in needs:
        needs = np.union1d(needs, np.array([0]))
    return {"degrees": degrees, "internal": internal,
            "spawns": child_internal[internal], "sibling_rank": sibling_rank,
            "child_deg_sum": child_deg_sum, "needs_launch": needs}


# ------------------------------------------------------------------ inputs
def tree_from_degrees(level_degrees):
    """A BFS-order :class:`Tree` whose level ``L`` nodes have out-degrees
    ``level_degrees[L]`` (the last level's are implied zeros)."""
    degrees = np.concatenate(
        [np.asarray(d, dtype=np.int64) for d in level_degrees]
        + [np.zeros(int(np.sum(level_degrees[-1])), dtype=np.int64)])
    n = degrees.size
    child_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=child_offsets[1:])
    sizes = [1] + [int(np.sum(d)) for d in level_degrees]
    sizes = [s for s in sizes if s]
    level_offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=level_offsets[1:])
    parents = np.concatenate(([-1], np.repeat(np.arange(n), degrees)))
    return Tree(parents=parents, level_offsets=level_offsets,
                child_offsets=child_offsets, children=np.arange(1, n),
                name="random-bfs")


@st.composite
def bfs_trees(draw):
    """Random BFS trees from random degree sequences: depth 1-6, up to a
    few thousand nodes, branching rate and fan-out varied per level."""
    depth = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level_degrees = []
    width = 1
    for _ in range(depth - 1):
        max_degree = draw(st.integers(1, 40))
        leaf_frac = draw(st.sampled_from([0.0, 0.3, 0.7, 0.95]))
        degrees = rng.integers(1, max_degree + 1, width)
        degrees[rng.random(width) < leaf_frac] = 0
        if not level_degrees:
            degrees[:] = np.maximum(degrees, 1)  # the root branches
        if degrees.sum() + sum(int(np.sum(d)) for d in level_degrees) > 4000:
            break
        level_degrees.append(degrees)
        width = int(degrees.sum())
        if width == 0:
            break
    # depth 1: the root alone
    return tree_from_degrees(level_degrees or [np.zeros(1, dtype=np.int64)])


def assert_same_flat_plan(tree, block, kind="descendants"):
    workload = RecursiveTreeWorkload(tree, kind)
    params = TemplateParams(thread_block=block)
    analysis = TreeAnalysis.from_workload(workload)
    got = FlatTreeTemplate().specialize(workload, analysis, KEPLER_K20,
                                        params)
    want = flat_graph_oracle(workload, KEPLER_K20, params)
    assert pickle.dumps(got) == pickle.dumps(want)


def assert_same_analysis(tree):
    analysis = TreeAnalysis("fp", tree)
    for name, want in per_node_oracle(tree).items():
        got = getattr(analysis, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


# ------------------------------------------------------------------- tests
class TestLevelWalk:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tree=bfs_trees(), block=st.sampled_from(BLOCKS))
    def test_flat_plan_matches_pair_oracle(self, tree, block):
        assert_same_flat_plan(tree, block)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tree=bfs_trees())
    def test_analysis_matches_scatter_oracle(self, tree):
        assert_same_analysis(tree)

    @pytest.mark.parametrize("sparsity", [0.5, 1.5])
    def test_perfbench_shaped_trees(self, sparsity):
        # depth 4, outdegree 64: the recursion benchmark's tree shape
        tree = generate_tree(4, 64, sparsity=sparsity, seed=11)
        assert_same_analysis(tree)
        for block, kind in ((192, "descendants"), (100, "heights")):
            assert_same_flat_plan(tree, block, kind)

    @pytest.mark.parametrize("outdegree", [1, 2])
    def test_deep_narrow_trees(self, outdegree):
        # a path (one node per level) and a binary tree: long hop chains
        tree = generate_tree(40 if outdegree == 1 else 9, outdegree)
        assert_same_analysis(tree)
        for block in BLOCKS:
            assert_same_flat_plan(tree, block)

    def test_recursive_templates_read_equal_facts(self):
        # rec-naive and rec-hier read only per-node facts: a plan built
        # from the oracle's arrays is the plan built from the analysis
        tree = generate_tree(4, 12, sparsity=1.0, seed=5)
        workload = RecursiveTreeWorkload(tree)
        oracle = SimpleNamespace(**per_node_oracle(tree))
        analysis = TreeAnalysis.from_workload(workload)
        params = TemplateParams(streams_per_block=2)
        for template in (RecNaiveTreeTemplate(), RecHierTreeTemplate()):
            got = template.specialize(workload, analysis, KEPLER_K20, params)
            want = template.specialize(workload, oracle, KEPLER_K20, params)
            assert pickle.dumps(got) == pickle.dumps(want)

    def test_flat_specialize_sorts_nothing(self, monkeypatch):
        # the walk counts segments and conflicts from neighbour
        # comparisons: no sort-based helper and no NumPy sort runs
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name, fn in (("transaction_counts", coalesce.transaction_counts),
                         ("flat_atomic_cycles", atomics.flat_atomic_cycles)):
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, name, None) is fn):
                    monkeypatch.setattr(module, name, spy(name, fn))
        for name in ("sort", "lexsort", "argsort", "unique"):
            monkeypatch.setattr(np, name, spy(name, getattr(np, name)))
        tree = generate_tree(4, 16, sparsity=0.5, seed=3)
        workload = RecursiveTreeWorkload(tree)
        analysis = TreeAnalysis.from_workload(workload)
        FlatTreeTemplate().specialize(workload, analysis, KEPLER_K20,
                                      TemplateParams())
        assert calls == []
        # the spies are live: the oracle's costing trips them
        flat_graph_oracle(workload, KEPLER_K20, TemplateParams())
        assert {"transaction_counts", "flat_atomic_cycles"} <= set(calls)
