"""Property-based tests of the executor's global invariants.

Random launch graphs (host streams + nested launches) must always satisfy:

* work conservation — busy SM-cycles equal the total block work;
* a physical lower bound — makespan >= total work / SM count, and
  >= the largest single block (floor included);
* monotonicity — adding work never shortens the makespan;
* completion — every launch instance executes (counts match);
* one-block children — graphs of one-block child grids (the fast
  engine's lone-block placement path) run bit-identically on the fast
  and exact engines, alone and fused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    KEPLER_K20,
    GpuExecutor,
    KernelCosts,
    Launch,
    LaunchGraph,
)


def block_cycles(upper: float):
    """Per-block cycle costs: exact zeros are legal (empty blocks), but
    sub-cycle costs are not physically meaningful and sit below the
    resolution of float64 absolute-time accounting at makespan scale —
    so snap anything under one cycle to zero."""
    return st.floats(0.0, upper, allow_nan=False).map(
        lambda x: 0.0 if x < 1.0 else x)


@st.composite
def launch_graphs(draw):
    """A random, valid launch graph (host launches + nested children)."""
    graph = LaunchGraph()
    n_host = draw(st.integers(1, 4))
    host_ids = []
    total_blocks = 0
    for h in range(n_host):
        n_blocks = draw(st.integers(1, 6))
        cycles = draw(st.lists(
            block_cycles(50_000.0),
            min_size=n_blocks, max_size=n_blocks,
        ))
        stream = draw(st.integers(0, 2))
        idx = graph.add(Launch(
            name=f"h{h}", block_size=draw(st.sampled_from([32, 64, 192])),
            costs=KernelCosts(block_cycles=np.array(cycles)),
            stream=stream,
        ))
        host_ids.append((idx, n_blocks))
        total_blocks += n_blocks
    n_children = draw(st.integers(0, 3))
    for c in range(n_children):
        parent, parent_blocks = draw(st.sampled_from(host_ids))
        n_blocks = draw(st.integers(1, 3))
        cycles = draw(st.lists(
            block_cycles(20_000.0),
            min_size=n_blocks, max_size=n_blocks,
        ))
        count = draw(st.integers(1, 3))
        graph.add(Launch(
            name=f"c{c}", block_size=64,
            costs=KernelCosts(block_cycles=np.array(cycles)),
            parent=parent,
            parent_block=draw(st.integers(0, parent_blocks - 1)),
            device_stream=draw(st.integers(0, 1)),
            count=count,
        ))
        total_blocks += n_blocks * count
    return graph, total_blocks


class TestExecutorProperties:
    @given(launch_graphs())
    @settings(max_examples=60, deadline=None)
    def test_work_conservation(self, case):
        graph, _ = case
        result = GpuExecutor(KEPLER_K20).run(graph)
        total_work = sum(
            l.costs.total_cycles * l.count for l in graph.launches
        )
        assert result.sm_busy_cycles == pytest.approx(total_work, rel=1e-6)

    @given(launch_graphs())
    @settings(max_examples=60, deadline=None)
    def test_physical_lower_bounds(self, case):
        graph, _ = case
        result = GpuExecutor(KEPLER_K20).run(graph)
        total_work = sum(
            l.costs.total_cycles * l.count for l in graph.launches
        )
        assert result.cycles >= total_work / KEPLER_K20.sm_count - 1e-6
        biggest = max(
            float(l.costs.block_cycles.max()) for l in graph.launches
        )
        assert result.cycles >= biggest - 1e-6

    @given(launch_graphs())
    @settings(max_examples=60, deadline=None)
    def test_all_instances_execute(self, case):
        graph, _ = case
        result = GpuExecutor(KEPLER_K20).run(graph)
        expected = sum(l.count for l in graph.launches)
        assert result.n_launches == expected
        expected_device = sum(
            l.count for l in graph.launches if l.is_device
        )
        assert result.n_device_launches == expected_device

    @given(launch_graphs(), st.floats(10.0, 100_000.0))
    @settings(max_examples=40, deadline=None)
    def test_adding_work_never_helps(self, case, extra):
        graph, _ = case
        base = GpuExecutor(KEPLER_K20).run(graph).cycles
        graph.add(Launch(
            name="extra", block_size=64,
            costs=KernelCosts(block_cycles=np.array([extra])),
            stream=0,
        ))
        grown = GpuExecutor(KEPLER_K20).run(graph).cycles
        assert grown >= base - 1e-6

    @given(launch_graphs())
    @settings(max_examples=40, deadline=None)
    def test_utilization_bounded(self, case):
        graph, _ = case
        result = GpuExecutor(KEPLER_K20).run(graph)
        assert 0.0 <= result.sm_utilization <= 1.0 + 1e-9


@st.composite
def one_block_child_graphs(draw):
    """A host launch whose blocks spawn nested one-block grids (which may
    spawn more): zero work, zero floor and floors above the work, on 1-3
    device streams per parent block."""
    graph = LaunchGraph()
    streams = draw(st.integers(1, 3))
    n_blocks = draw(st.integers(1, 4))
    parents = [(graph.add(Launch(
        name="root", block_size=draw(st.sampled_from([32, 64, 192])),
        costs=KernelCosts(block_cycles=np.array(draw(st.lists(
            block_cycles(20_000.0), min_size=n_blocks, max_size=n_blocks)))),
    )), n_blocks)]
    for c in range(draw(st.integers(1, 20))):
        parent, parent_blocks = draw(st.sampled_from(parents))
        work = draw(st.one_of(st.just(0.0), block_cycles(20_000.0)))
        floor = draw(st.sampled_from(["zero", "below", "above"]))
        floor = {"zero": 0.0, "below": work / 2,
                 "above": work + draw(st.floats(1.0, 30_000.0))}[floor]
        row = graph.add(Launch(
            name=f"c{c}", block_size=draw(st.sampled_from([32, 64, 256])),
            costs=KernelCosts(block_cycles=np.array([work]),
                              block_floor=np.array([floor])),
            parent=parent,
            parent_block=draw(st.integers(0, parent_blocks - 1)),
            device_stream=draw(st.integers(0, streams - 1)),
        ))
        parents.append((row, 1))
    return graph


class TestOneBlockChildren:
    @given(one_block_child_graphs(), one_block_child_graphs(),
           st.sampled_from([1, 32]))
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_exact_alone_and_fused(self, graph, other, cap):
        config = KEPLER_K20.replace(max_concurrent_kernels=cap)
        exact = [GpuExecutor(config, engine="exact", record_timeline=True)
                 .run(g) for g in (graph, other)]
        fast = GpuExecutor(config, engine="fast", record_timeline=True)
        assert fast.run(graph) == exact[0]
        assert fast.run(other) == exact[1]
        assert fast.run_many([graph, other, graph]) == [*exact, exact[0]]
