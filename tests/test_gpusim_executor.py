"""Unit/integration tests for the event-driven executor."""

import numpy as np
import pytest

from repro.errors import LaunchError, WorkloadError
from repro.gpusim.config import FERMI_C2050, KEPLER_K20
from repro.gpusim.executor import GpuExecutor
from repro.gpusim.kernels import KernelCosts, Launch, LaunchGraph


def _launch(name="k", blocks=None, block_size=64, tail=0.0, floor=None, **kw):
    if blocks is None:
        blocks = [1000.0]
    return Launch(
        name=name,
        block_size=block_size,
        costs=KernelCosts(
            block_cycles=np.array(blocks, dtype=float),
            block_floor=None if floor is None else np.array(floor, dtype=float),
            serial_tail=tail,
        ),
        **kw,
    )


def _run(*launches, config=KEPLER_K20, **kw):
    graph = LaunchGraph()
    for l in launches:
        graph.add(l)
    return GpuExecutor(config, **kw).run(graph), graph


class TestBasicExecution:
    def test_empty_graph(self):
        result = GpuExecutor(KEPLER_K20).run(LaunchGraph())
        assert result.cycles == 0.0
        assert result.n_launches == 0

    def test_single_block_duration(self):
        result, _ = _run(_launch(blocks=[10_000.0]))
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 10_000.0)

    def test_blocks_spread_over_sms(self):
        # 13 equal blocks on 13 SMs run concurrently
        result, _ = _run(_launch(blocks=[5000.0] * 13))
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 5000.0)

    def test_processor_sharing_within_sm(self):
        # 26 equal blocks: 2 per SM sharing issue bandwidth -> 2x duration
        result, _ = _run(_launch(blocks=[5000.0] * 26))
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 10_000.0)

    def test_single_large_block_underutilizes(self):
        # one huge block: the paper's block-level imbalance story
        result, _ = _run(_launch(blocks=[13_000.0] + [10.0] * 12))
        assert result.sm_utilization < 0.15

    def test_floor_enforced(self):
        result, _ = _run(_launch(blocks=[100.0], floor=[50_000.0]))
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 50_000.0)

    def test_serial_tail_extends_kernel(self):
        r1, _ = _run(_launch(blocks=[100.0]))
        r2, _ = _run(_launch(blocks=[100.0], tail=9000.0))
        assert r2.cycles == pytest.approx(r1.cycles + 9000.0)

    def test_zero_work_blocks_complete(self):
        result, _ = _run(_launch(blocks=[0.0, 0.0, 0.0]))
        assert result.cycles > 0  # just the launch overhead
        assert result.n_launches == 1

    def test_records_disabled_by_default(self):
        result, _ = _run(_launch())
        assert result.records == []

    def test_records_enabled(self):
        result, _ = _run(_launch(name="probe"), record_timeline=True)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.name == "probe"
        assert rec.end_cycles > rec.start_cycles


class TestStreams:
    def test_same_stream_serializes(self):
        a = _launch(name="a", blocks=[8000.0], stream=0)
        b = _launch(name="b", blocks=[8000.0], stream=0)
        result, _ = _run(a, b)
        assert result.cycles > 16_000.0

    def test_different_streams_overlap(self):
        a = _launch(name="a", blocks=[8000.0], stream=0)
        b = _launch(name="b", blocks=[8000.0], stream=1)
        result, _ = _run(a, b)
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 8000.0, rel=0.01)

    def test_stream_order_preserved(self):
        launches = [
            _launch(name=f"k{i}", blocks=[1000.0], stream=0) for i in range(4)
        ]
        result, _ = _run(*launches, record_timeline=True)
        starts = {r.name: r.start_cycles for r in result.records}
        assert starts["k0"] < starts["k1"] < starts["k2"] < starts["k3"]


class TestDynamicParallelism:
    def test_child_runs_after_parent_block(self):
        graph = LaunchGraph()
        parent = graph.add(_launch(name="parent", blocks=[1000.0]))
        graph.add(_launch(name="child", blocks=[500.0], parent=parent))
        result = GpuExecutor(KEPLER_K20, record_timeline=True).run(graph)
        recs = {r.name: r for r in result.records}
        assert recs["child"].start_cycles >= recs["parent"].end_cycles - 1e-6
        assert result.n_device_launches == 1

    def test_children_overlap_remaining_parent_blocks(self):
        # Parent has one fast block (issues child) and one slow block;
        # the child should start long before the slow block finishes.
        graph = LaunchGraph()
        parent = graph.add(_launch(name="parent", blocks=[100.0, 500_000.0]))
        graph.add(_launch(name="child", blocks=[100.0], parent=parent,
                          parent_block=0))
        result = GpuExecutor(KEPLER_K20, record_timeline=True).run(graph)
        recs = {r.name: r for r in result.records}
        assert recs["child"].end_cycles < recs["parent"].end_cycles

    def test_launch_overhead_dominates_small_children(self):
        # 100 tiny children each pay GMU service + latency
        graph = LaunchGraph()
        parent = graph.add(_launch(name="parent", blocks=[100.0]))
        graph.add(_launch(name="child", blocks=[1.0], parent=parent,
                          count=100, device_stream=1))
        # separate graph: one child doing all the work at once
        graph2 = LaunchGraph()
        parent2 = graph2.add(_launch(name="parent", blocks=[100.0]))
        graph2.add(_launch(name="bigchild", blocks=[100.0], parent=parent2))
        many = GpuExecutor(KEPLER_K20).run(graph)
        one = GpuExecutor(KEPLER_K20).run(graph2)
        assert many.cycles > 5 * one.cycles

    def test_same_device_stream_serializes_children(self):
        def build(streams):
            graph = LaunchGraph()
            parent = graph.add(_launch(name="p", blocks=[100.0]))
            for i in range(8):
                graph.add(_launch(
                    name=f"c{i}", blocks=[200_000.0], parent=parent,
                    device_stream=i % streams,
                ))
            return graph
        serial = GpuExecutor(KEPLER_K20).run(build(1))
        concurrent = GpuExecutor(KEPLER_K20).run(build(8))
        assert serial.cycles > 3 * concurrent.cycles

    def test_parent_completion_waits_for_children(self):
        graph = LaunchGraph()
        parent = graph.add(_launch(name="p", blocks=[100.0], stream=0))
        graph.add(_launch(name="c", blocks=[900_000.0], parent=parent))
        graph.add(_launch(name="after", blocks=[10.0], stream=0))
        result = GpuExecutor(KEPLER_K20, record_timeline=True).run(graph)
        recs = {r.name: r for r in result.records}
        assert recs["after"].start_cycles >= recs["c"].end_cycles - 1e-6

    def test_fermi_rejects_device_launches(self):
        graph = LaunchGraph()
        parent = graph.add(_launch(name="p", blocks=[100.0]))
        graph.add(_launch(name="c", blocks=[100.0], parent=parent))
        with pytest.raises(LaunchError, match="dynamic parallelism"):
            GpuExecutor(FERMI_C2050).run(graph)

    def test_instance_limit(self):
        graph = LaunchGraph()
        parent = graph.add(_launch(name="p", blocks=[100.0]))
        graph.add(_launch(name="c", blocks=[1.0], parent=parent, count=100))
        with pytest.raises(LaunchError, match="instance limit"):
            GpuExecutor(KEPLER_K20, max_launch_instances=50).run(graph)

    def test_nesting_depth_validated(self):
        shallow = KEPLER_K20.replace(max_launch_depth=1)
        graph = LaunchGraph()
        a = graph.add(_launch(name="a", blocks=[10.0]))
        b = graph.add(_launch(name="b", blocks=[10.0], parent=a))
        graph.add(_launch(name="c", blocks=[10.0], parent=b))
        with pytest.raises(LaunchError, match="nesting depth"):
            GpuExecutor(shallow).run(graph)


class TestLaunchGraphValidation:
    def test_unknown_parent_rejected(self):
        graph = LaunchGraph()
        with pytest.raises(LaunchError, match="unknown parent"):
            graph.add(_launch(parent=5))

    def test_parent_block_out_of_range(self):
        graph = LaunchGraph()
        p = graph.add(_launch(blocks=[1.0]))
        with pytest.raises(LaunchError, match="block"):
            graph.add(_launch(parent=p, parent_block=3))

    def test_bulk_host_launch_rejected(self):
        graph = LaunchGraph()
        graph.add(_launch(count=4))
        with pytest.raises(LaunchError, match="bulk"):
            GpuExecutor(KEPLER_K20).run(graph)

    def test_counters_aggregate_includes_replicas(self):
        graph = LaunchGraph()
        p = graph.add(_launch(name="p", blocks=[10.0]))
        child = _launch(name="c", blocks=[1.0], parent=p, count=10)
        child.counters.host_launches = 0
        child.counters.device_launches = 1
        graph.add(child)
        agg = graph.aggregate_counters()
        assert agg.device_launches == 10

    @pytest.mark.parametrize("make,error", [
        (lambda: KernelCosts(np.array([1.0, np.nan])), WorkloadError),
        (lambda: KernelCosts(np.array([np.inf])), WorkloadError),
        (lambda: KernelCosts(np.ones(1), np.array([np.nan])), WorkloadError),
        (lambda: KernelCosts(np.ones(1), np.array([np.inf])), WorkloadError),
        (lambda: KernelCosts(np.ones(1), serial_tail=np.nan), WorkloadError),
        (lambda: KernelCosts(np.ones(1), serial_tail=np.inf), WorkloadError),
        (lambda: LaunchGraph().add(_launch(resident_warps_hint=np.nan)),
         LaunchError),
        (lambda: LaunchGraph().add(_launch(resident_warps_hint=np.inf)),
         LaunchError),
        (lambda: LaunchGraph().add(_launch(resident_warps_hint=-1.0)),
         LaunchError),
    ], ids=["work-nan", "work-inf", "floor-nan", "floor-inf", "tail-nan",
            "tail-inf", "hint-nan", "hint-inf", "hint-negative"])
    def test_non_finite_numbers_rejected_at_construction(self, make, error):
        with pytest.raises(error):
            make()


class TestUtilization:
    def test_full_utilization_many_blocks(self):
        result, _ = _run(_launch(blocks=[100_000.0] * 130))
        assert result.sm_utilization > 0.9

    def test_conservation_of_work(self):
        blocks = [1234.0, 777.0, 2.0, 90_000.0]
        result, _ = _run(_launch(blocks=blocks))
        assert result.sm_busy_cycles == pytest.approx(sum(blocks), rel=1e-6)
