"""Unit + property tests for the nested-loop parallelization templates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LOAD_BALANCING_TEMPLATES,
    NESTED_LOOP_TEMPLATES,
    AccessStream,
    NestedLoopWorkload,
    RecursiveTreeWorkload,
    TemplateParams,
    check_schedule,
    resolve,
    split_by_threshold,
)
from repro.errors import ConfigError, LaunchError, PlanError, WorkloadError
from repro.gpusim import FERMI_C2050, KEPLER_K20
from repro.trees.generator import generate_tree


def make_workload(trips, seed=0, atomics=False, name="wl"):
    trips = np.asarray(trips, dtype=np.int64)
    nnz = int(trips.sum())
    rng = np.random.default_rng(seed)
    streams = [
        AccessStream("seq", np.arange(nnz, dtype=np.int64) * 4, "load", 4),
        AccessStream("gather", rng.integers(0, max(nnz, 1) * 4, size=nnz) * 4,
                     "load", 4),
        AccessStream("scatter", rng.integers(0, max(nnz, 1), size=nnz) * 4,
                     "store", 4, staged_in_shared=True),
    ]
    atomic_targets = None
    if atomics:
        atomic_targets = rng.integers(0, max(trips.size, 1), size=nnz)
    return NestedLoopWorkload(
        name=name, trip_counts=trips, streams=streams,
        atomic_targets=atomic_targets,
    )


def irregular_trips(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.7, size=n).clip(max=800)
    return trips.astype(np.int64)


class TestWorkloadValidation:
    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            NestedLoopWorkload("w", np.array([], dtype=np.int64))

    def test_rejects_negative_trips(self):
        with pytest.raises(WorkloadError):
            NestedLoopWorkload("w", np.array([-1]))

    def test_rejects_stream_length_mismatch(self):
        with pytest.raises(WorkloadError):
            NestedLoopWorkload(
                "w", np.array([2, 2]),
                streams=[AccessStream("s", np.zeros(3, dtype=np.int64))],
            )

    def test_rejects_atomic_shape_mismatch(self):
        with pytest.raises(WorkloadError):
            NestedLoopWorkload("w", np.array([2]), atomic_targets=np.zeros(5))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1])
    @pytest.mark.parametrize("kind", ["nested-loop", "tree"])
    def test_rejects_bad_weight(self, kind, weight):
        """A weight that cannot cost a run fails at construction."""
        with pytest.raises(WorkloadError, match="finite and non-negative"):
            if kind == "nested-loop":
                NestedLoopWorkload("w", np.array([2, 1]), outer_insts=weight)
            else:
                RecursiveTreeWorkload(
                    generate_tree(depth=3, outdegree=2, seed=1),
                    inner_insts=weight)

    def test_pairs_of_row_major(self):
        wl = make_workload([2, 0, 3])
        pairs, steps = wl.pairs_of(np.array([0, 2]))
        assert pairs.tolist() == [0, 1, 2, 3, 4]
        assert steps.tolist() == [0, 1, 0, 1, 2]

    def test_pairs_of_with_caps(self):
        wl = make_workload([5, 5])
        pairs, steps = wl.pairs_of(np.array([0, 1]), np.array([2, 1]))
        assert pairs.tolist() == [0, 1, 5]
        assert steps.tolist() == [0, 1, 0]

    def test_pairs_of_rejects_excess_caps(self):
        wl = make_workload([2])
        with pytest.raises(WorkloadError):
            wl.pairs_of(np.array([0]), np.array([5]))


class TestSplit:
    def test_split_partition(self):
        trips = np.array([1, 50, 32, 33, 0])
        small, large = split_by_threshold(trips, 32)
        assert small.tolist() == [0, 2, 4]
        assert large.tolist() == [1, 3]

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200),
           st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_split_is_partition(self, trips, threshold):
        trips = np.array(trips)
        small, large = split_by_threshold(trips, threshold)
        assert small.size + large.size == trips.size
        assert np.all(trips[small] <= threshold)
        assert np.all(trips[large] > threshold)


class TestCheckSchedule:
    def test_valid(self):
        check_schedule({"a": np.array([0, 2]), "b": np.array([1])}, 3)

    def test_missing_iteration(self):
        with pytest.raises(PlanError, match="covers"):
            check_schedule({"a": np.array([0])}, 2)

    def test_duplicate_iteration(self):
        with pytest.raises(PlanError):
            check_schedule({"a": np.array([0, 0])}, 2)

    def test_out_of_range(self):
        with pytest.raises(PlanError):
            check_schedule({"a": np.array([0, 5])}, 2)


class TestRegistry:
    def test_all_templates_instantiable(self):
        for name in NESTED_LOOP_TEMPLATES:
            assert resolve(name, kind="nested-loop").name == name

    def test_unknown_template(self):
        with pytest.raises(PlanError, match="unknown template"):
            resolve("magic", kind="nested-loop")

    def test_load_balancing_subset(self):
        assert set(LOAD_BALANCING_TEMPLATES) <= set(NESTED_LOOP_TEMPLATES)


class TestTemplateRuns:
    @pytest.mark.parametrize("name", sorted(NESTED_LOOP_TEMPLATES))
    def test_schedule_conserves_iterations(self, name):
        wl = make_workload(irregular_trips(500, seed=3), atomics=True)
        run = resolve(name, kind="nested-loop").run(wl, KEPLER_K20, TemplateParams(lb_threshold=16))
        # check_schedule already ran inside run(); sanity-check the result
        total = sum(v.size for v in run.schedule.values())
        assert total == wl.outer_size
        assert run.time_ms > 0
        assert 0 < run.metrics.warp_execution_efficiency <= 1

    @pytest.mark.parametrize("trip", [1, 40])
    @pytest.mark.parametrize("insts", [
        {"inner_insts": 2.5}, {"inner_insts": 0.5}, {"outer_insts": 10.5},
    ], ids=["inner-2.5", "inner-0.5", "outer-10.5"])
    @pytest.mark.parametrize("name", sorted(NESTED_LOOP_TEMPLATES))
    def test_fractional_instruction_counts(self, name, insts, trip):
        """A full warp of rows with fractional per-step instruction counts:
        issued steps round up and active lane-slots down, so the
        ``active <= issued * warp_size`` check holds (trip 40 puts every
        row in the load-balanced phase)."""
        wl = NestedLoopWorkload("frac", np.full(32, trip, dtype=np.int64),
                                **insts)
        run = resolve(name, kind="nested-loop").run(
            wl, KEPLER_K20, TemplateParams(lb_threshold=16))
        warp = run.result.counters.warp
        assert 0 < warp.active_slots <= warp.issued_steps * warp.warp_size
        assert run.time_ms > 0

    @pytest.mark.parametrize("name", sorted(LOAD_BALANCING_TEMPLATES))
    def test_threshold_respected(self, name):
        wl = make_workload(irregular_trips(500, seed=4))
        params = TemplateParams(lb_threshold=24)
        run = resolve(name, kind="nested-loop").run(wl, KEPLER_K20, params)
        phases = run.schedule
        # the "fast path" phase only holds small iterations
        small_key = [k for k in phases if k in ("small-queue", "inline")][0]
        large_key = [k for k in phases if k in ("large-queue", "buffered", "nested")][0]
        assert np.all(wl.trip_counts[phases[small_key]] <= 24)
        assert np.all(wl.trip_counts[phases[large_key]] > 24)

    def test_baseline_single_kernel(self):
        wl = make_workload(irregular_trips(300, seed=5))
        run = resolve("baseline", kind="nested-loop").run(wl, KEPLER_K20)
        assert run.metrics.kernel_calls == 1

    def test_dbuf_global_two_kernels(self):
        wl = make_workload(irregular_trips(300, seed=6))
        run = resolve("dbuf-global", kind="nested-loop").run(wl, KEPLER_K20)
        assert run.metrics.kernel_calls == 2

    def test_dbuf_shared_single_kernel(self):
        wl = make_workload(irregular_trips(300, seed=6))
        run = resolve("dbuf-shared", kind="nested-loop").run(wl, KEPLER_K20)
        assert run.metrics.kernel_calls == 1

    def test_dual_queue_three_kernels(self):
        wl = make_workload(irregular_trips(300, seed=7))
        run = resolve("dual-queue", kind="nested-loop").run(wl, KEPLER_K20)
        assert run.metrics.kernel_calls == 3

    def test_dpar_naive_child_count(self):
        wl = make_workload(irregular_trips(300, seed=8))
        params = TemplateParams(lb_threshold=16)
        _, large = split_by_threshold(wl.trip_counts, 16)
        run = resolve("dpar-naive", kind="nested-loop").run(wl, KEPLER_K20, params)
        assert run.metrics.device_kernel_calls == large.size

    def test_dpar_opt_fewer_children_than_naive(self):
        wl = make_workload(irregular_trips(2000, seed=9))
        params = TemplateParams(lb_threshold=16)
        naive = resolve("dpar-naive", kind="nested-loop").run(wl, KEPLER_K20, params)
        opt = resolve("dpar-opt", kind="nested-loop").run(wl, KEPLER_K20, params)
        assert 0 < opt.metrics.device_kernel_calls
        assert opt.metrics.device_kernel_calls < naive.metrics.device_kernel_calls

    def test_dpar_rejected_on_fermi(self):
        wl = make_workload(irregular_trips(100, seed=10))
        with pytest.raises(LaunchError, match="dynamic parallelism"):
            resolve("dpar-naive", kind="nested-loop").run(wl, FERMI_C2050)
        with pytest.raises(LaunchError, match="dynamic parallelism"):
            resolve("dpar-opt", kind="nested-loop").run(wl, FERMI_C2050)

    def test_dbuf_templates_work_on_fermi(self):
        # the paper's motivation: delayed buffers bring load balancing to
        # devices without nested launch support
        wl = make_workload(irregular_trips(300, seed=11))
        run = resolve("dbuf-shared", kind="nested-loop").run(wl, FERMI_C2050)
        assert run.time_ms > 0


class TestPerformanceShapes:
    """The qualitative results of §III.B must hold on irregular input."""

    @pytest.fixture(scope="class")
    def runs(self):
        wl = make_workload(irregular_trips(4000, seed=12), atomics=True)
        params = TemplateParams(lb_threshold=32)
        return {
            name: resolve(name, kind="nested-loop").run(wl, KEPLER_K20, params)
            for name in NESTED_LOOP_TEMPLATES
        }

    def test_load_balancing_beats_baseline(self, runs):
        base = runs["baseline"].time_ms
        for name in ("dual-queue", "dbuf-global", "dbuf-shared"):
            assert runs[name].time_ms < base, name

    def test_dpar_naive_is_worst(self, runs):
        worst = max(runs.values(), key=lambda r: r.time_ms)
        assert worst.template == "dpar-naive"

    def test_templates_raise_warp_efficiency(self, runs):
        base = runs["baseline"].metrics.warp_execution_efficiency
        for name in ("dual-queue", "dbuf-global", "dbuf-shared", "dpar-opt"):
            assert runs[name].metrics.warp_execution_efficiency > base, name

    def test_lb_threshold_controls_warp_efficiency(self):
        wl = make_workload(irregular_trips(3000, seed=13))
        effs = []
        for lbt in (32, 64, 256, 1024):
            run = resolve("dbuf-shared", kind="nested-loop").run(
                wl, KEPLER_K20, TemplateParams(lb_threshold=lbt)
            )
            effs.append(run.metrics.warp_execution_efficiency)
        # Table II: warp efficiency decreases as lbTHRES grows
        assert effs[0] > effs[-1]

    def test_regular_workload_gains_little(self):
        # On a regular nested loop, load balancing has nothing to fix.
        wl = make_workload(np.full(3000, 24), seed=14, name="regular")
        base = resolve("baseline", kind="nested-loop").run(wl, KEPLER_K20)
        dbuf = resolve("dbuf-shared", kind="nested-loop").run(wl, KEPLER_K20)
        assert base.metrics.warp_execution_efficiency > 0.9
        assert dbuf.time_ms == pytest.approx(base.time_ms, rel=0.25)


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TemplateParams(lb_threshold=0)
        with pytest.raises(ConfigError):
            TemplateParams(thread_block=8)
        with pytest.raises(ConfigError):
            TemplateParams(streams_per_block=0)

    @pytest.mark.parametrize("field,floor", [
        ("lb_threshold", 1), ("thread_block", 32), ("lb_block", 1),
        ("registers_per_thread", 1), ("streams_per_block", 1),
        ("max_grid_blocks", 1),
    ])
    @pytest.mark.parametrize("value", ["floor", 64.5, float("nan"),
                                       float("inf"), True, "1"])
    def test_malformed_number_fails_fast(self, field, floor, value):
        value = floor - 1 if value == "floor" else value
        with pytest.raises(ConfigError, match=rf"^{field} "):
            TemplateParams(**{field: value})
        with pytest.raises(ConfigError, match=rf"^{field} "):
            TemplateParams().replace(**{field: value})

    def test_numpy_integers_accepted(self):
        params = TemplateParams(lb_threshold=np.int64(64), lb_block=np.int32(128))
        assert params.lb_threshold == 64

    def test_replace(self):
        p = TemplateParams().replace(lb_threshold=128)
        assert p.lb_threshold == 128

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            TemplateParams(64)

    def test_grid_clamp_error_names_the_knob(self):
        from repro.core import NestedLoopTemplate

        # the message must point at a real attribute users can enlarge
        assert hasattr(TemplateParams(), "max_grid_blocks")
        with pytest.raises(PlanError, match="max_grid_blocks"):
            NestedLoopTemplate._grid_for(10_000, 32, 8)
        # non-overflowing grids still round up
        assert NestedLoopTemplate._grid_for(100, 32, 8) == 4
