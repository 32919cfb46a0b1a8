"""Backend seam + multi-device sharding invariants.

The contracts the tentpole refactor rests on:

* ``SimBackend`` is a transparent wrapper — a single-device run through
  the backend seam is bit-for-bit identical to the pre-refactor inline
  ``GpuExecutor`` path, and its fingerprint equals the bare device
  fingerprint (so plan/run cache keys are unchanged at ``devices=1``).
* ``DeviceGroup`` sharding preserves the work: merged schedules cover
  every outer iteration exactly once, per-device work counters sum to
  the single-device totals, and merged timing is the max (concurrent
  devices), not the sum.
* Shard fingerprints are disjoint from whole-workload fingerprints so
  multi-device cache entries never collide with single-device ones.
* Whole runs routed to the least-loaded member spread the Fig. 5 sweep
  over a 4-device group with at least 2.5x aggregate throughput.
"""

import numpy as np
import pytest

import repro
from repro import obs
from repro.apps.sssp import SSSPApp
from repro.backends import (
    DeviceGroup,
    SimBackend,
    backend_for,
    coerce_backend,
    set_default_devices,
)
from repro.backends.base import BackendCapabilities, capabilities_of
from repro.backends.group import run_sharded
from repro.core.base import plan_key
from repro.core.params import TemplateParams
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.registry import LOAD_BALANCING_TEMPLATES, resolve
from repro.core.sharding import clear_shard_cache, shard_workload
from repro.core.workload import NestedLoopWorkload
from repro.errors import ConfigError
from repro.gpusim.config import KEPLER_K20
from repro.gpusim.executor import GpuExecutor
from repro.graphs import citeseer_like
from repro.ir.select import Selection, auto_select
from repro.trees.generator import generate_tree
from test_executor_fused import assert_result_equal


@pytest.fixture()
def loop_wl():
    rng = np.random.default_rng(42)
    trips = rng.zipf(1.6, size=400).clip(max=300)
    return NestedLoopWorkload("backend-loop", trips.astype(np.int64))


@pytest.fixture()
def tree_wl():
    return RecursiveTreeWorkload(generate_tree(depth=7, outdegree=3,
                                               sparsity=0.2, seed=9))


@pytest.fixture(autouse=True)
def _reset_devices():
    yield
    set_default_devices(1)
    clear_shard_cache()


class TestSimBackend:
    def test_single_device_is_bit_for_bit(self, loop_wl):
        tmpl = resolve("dbuf-global")
        via_backend = tmpl.run(loop_wl, KEPLER_K20,
                               backend=SimBackend(KEPLER_K20))
        graph, _ = tmpl.build(loop_wl, KEPLER_K20, TemplateParams())
        via_executor = GpuExecutor(KEPLER_K20).run(graph)
        assert via_backend.result.cycles == via_executor.cycles
        assert via_backend.result.counters == via_executor.counters
        default = tmpl.run(loop_wl, KEPLER_K20)
        assert via_backend.metrics.as_dict() == default.metrics.as_dict()

    def test_fingerprint_matches_bare_device(self):
        assert SimBackend(KEPLER_K20).fingerprint() == KEPLER_K20.fingerprint()

    def test_capabilities_reflect_device(self):
        caps = SimBackend(KEPLER_K20).capabilities
        assert caps.devices == 1
        assert caps.shared_mem_per_block == KEPLER_K20.shared_mem_per_block
        assert caps.supports(resolve("dpar-opt")) == caps.dynamic_parallelism

    def test_coerce_rejects_legacy_executor(self):
        with pytest.raises(ConfigError, match="repro.backends.Backend"):
            coerce_backend(GpuExecutor(KEPLER_K20), KEPLER_K20)
        assert isinstance(coerce_backend(None, KEPLER_K20), SimBackend)


class TestSharding:
    def test_loop_shards_partition_outer(self, loop_wl):
        shards = shard_workload(loop_wl, 4)
        members = np.concatenate([s.members for s in shards])
        assert np.array_equal(np.sort(members),
                              np.arange(loop_wl.outer_size))
        assert sum(s.workload.n_pairs for s in shards) == loop_wl.n_pairs

    def test_loop_shards_are_balanced(self, loop_wl):
        shards = shard_workload(loop_wl, 4)
        pair_counts = [s.workload.n_pairs for s in shards]
        # heaviest-first round-robin: no shard dominates
        assert max(pair_counts) <= 2 * min(pair_counts) + max(loop_wl.trip_counts)

    def test_tree_shards_partition_non_root_nodes(self, tree_wl):
        shards = shard_workload(tree_wl, 4)
        # each shard re-roots a subset under a synthetic root
        total = sum(s.workload.tree.n_nodes - 1 for s in shards)
        assert total == tree_wl.tree.n_nodes - 1

    def test_shard_fingerprints_disjoint(self, loop_wl):
        shards = shard_workload(loop_wl, 3)
        fps = {s.workload.fingerprint() for s in shards}
        assert len(fps) == 3
        assert loop_wl.fingerprint() not in fps

    def test_shard_plans_memoized(self, loop_wl):
        a = shard_workload(loop_wl, 3)
        b = shard_workload(loop_wl, 3)
        assert a is b

    def test_unshardable_returns_none(self):
        tiny = NestedLoopWorkload("tiny", np.array([5], dtype=np.int64))
        assert shard_workload(tiny, 4) is None


class TestDeviceGroup:
    def test_single_graph_routes_to_least_loaded_member(self, loop_wl):
        group = DeviceGroup(KEPLER_K20, 3, engine="fast")
        for member, busy in zip(group.members, (5.0, 1.0, 1.0)):
            member.busy_ms = busy
        graph, _ = resolve("dbuf-global").build(loop_wl, KEPLER_K20,
                                                TemplateParams())
        result = group.submit(graph)
        # least load, lowest index on ties
        assert [m.submissions for m in group.members] == [0, 1, 0]
        assert group._inflight == [0, 0, 0]
        assert_result_equal(result, SimBackend(KEPLER_K20).submit(graph))

    def test_merged_schedule_covers_workload(self, loop_wl):
        group = DeviceGroup(KEPLER_K20, 4)
        run = resolve("dual-queue").run(loop_wl, KEPLER_K20, backend=group)
        covered = np.concatenate(list(run.schedule.values()))
        assert np.array_equal(np.sort(covered), np.arange(loop_wl.outer_size))

    def test_merged_time_is_max_not_sum(self, loop_wl):
        group = DeviceGroup(KEPLER_K20, 4)
        run = resolve("dbuf-global").run(loop_wl, KEPLER_K20, backend=group)
        per_dev = [r.result.time_ms for r in run.device_runs]
        assert run.result.time_ms == pytest.approx(max(per_dev))
        assert run.result.time_ms < sum(per_dev)

    def test_busy_cycles_and_launches_sum(self, loop_wl):
        group = DeviceGroup(KEPLER_K20, 4)
        run = resolve("dbuf-global").run(loop_wl, KEPLER_K20, backend=group)
        assert run.result.sm_busy_cycles == sum(
            r.result.sm_busy_cycles for r in run.device_runs)
        assert run.result.n_launches == sum(
            r.result.n_launches for r in run.device_runs)

    def test_device_counters_sum_to_single_device_totals(self, loop_wl):
        group = DeviceGroup(KEPLER_K20, 4)
        obs.reset()
        obs.set_enabled(True)
        try:
            resolve("dbuf-global").run(loop_wl, KEPLER_K20, backend=group)
            counters = obs.summary()["counters"]
        finally:
            obs.set_enabled(False)
            obs.reset()
        outer = sum(v for k, v in counters.items() if k.endswith(".outer"))
        pairs = sum(v for k, v in counters.items() if k.endswith(".pairs"))
        assert outer == loop_wl.outer_size
        assert pairs == loop_wl.n_pairs

    def test_tree_multi_device_runs(self, tree_wl):
        group = DeviceGroup(KEPLER_K20, 4)
        run = resolve("rec-naive").run(tree_wl, KEPLER_K20, backend=group)
        assert run.device_runs is not None
        assert len(run.device_runs) >= 2
        assert run.result.cycles > 0

    def test_unshardable_falls_back_to_one_device(self):
        tiny = NestedLoopWorkload("tiny", np.array([5], dtype=np.int64))
        group = DeviceGroup(KEPLER_K20, 4)
        run = resolve("thread-mapped").run(tiny, KEPLER_K20, backend=group)
        assert run.device_runs is None
        assert run.result.cycles > 0

    def test_run_sharded_none_when_unshardable(self):
        tiny = NestedLoopWorkload("tiny", np.array([5], dtype=np.int64))
        group = DeviceGroup(KEPLER_K20, 2)
        assert run_sharded(resolve("thread-mapped"), tiny, group,
                           KEPLER_K20, TemplateParams()) is None

    def test_least_loaded_routing(self, loop_wl):
        """In-flight graphs count as load while a batch is dealt, and
        simulated busy time counts after it settles."""
        group = DeviceGroup(KEPLER_K20, 3)
        graph, _ = resolve("dbuf-global").build(loop_wl, KEPLER_K20,
                                                TemplateParams())
        group.submit_many([graph, graph])
        assert [m.submissions for m in group.members] == [1, 1, 0]
        group.submit(graph)
        assert [m.submissions for m in group.members] == [1, 1, 1]
        assert group._inflight == [0, 0, 0]

    def test_group_fingerprint_distinct_from_single(self):
        group = DeviceGroup(KEPLER_K20, 2)
        assert group.fingerprint() != KEPLER_K20.fingerprint()
        assert group.fingerprint().endswith("x2")

    def test_fig5_sweep_routed_across_four_devices(self):
        """The Fig. 5 SSSP sweep (5 templates x 4 lbTHRES x 7 rounds),
        heaviest first, each plan submitted to the group, which routes it
        to the least-loaded member: one device would take the sum of the
        members' busy times, the group the largest (3.65x at scale
        0.02)."""
        app = SSSPApp(citeseer_like(scale=0.02))
        rounds = [app.round_workload(frontier, edges, targets, improving)
                  for frontier, edges, targets, improving, _ in app._rounds()]
        assert len(rounds) == 7
        units = sorted(
            ((tmpl, lbt, wl) for tmpl in LOAD_BALANCING_TEMPLATES
             for lbt in (32, 64, 128, 256) for wl in rounds),
            key=lambda unit: unit[2].n_pairs, reverse=True)
        group = DeviceGroup(KEPLER_K20, 4)
        for tmpl, lbt, wl in units:
            graph, _ = resolve(tmpl, kind="nested-loop").build(
                wl, KEPLER_K20, TemplateParams(lb_threshold=lbt))
            group.submit(graph)
        busy = [member.busy_ms for member in group.members]
        assert sum(busy) / max(busy) >= 2.5


class TestCapabilitiesBackCompat:
    """Adding ``persistent_queue`` must not disturb PR-5-era identities.

    Code written against the original three-field ``BackendCapabilities``
    (positional construction, ``capabilities_of``, fingerprints, plan and
    selection cache keys) has to behave byte-identically now that the
    queue capability flag exists.
    """

    def test_positional_construction_still_works(self):
        caps = BackendCapabilities(True, 49152, 2)
        assert caps.dynamic_parallelism is True
        assert caps.shared_mem_per_block == 49152
        assert caps.devices == 2
        assert caps.persistent_queue is False

    def test_capabilities_of_defaults_queue_off(self):
        assert capabilities_of(KEPLER_K20).persistent_queue is False
        assert capabilities_of(KEPLER_K20, devices=4).persistent_queue is False

    def test_supports_unchanged_for_bsp_backends(self):
        """Without the queue flag, ``supports()`` is the PR-5 predicate:
        only dynamic parallelism can disqualify a template."""
        caps = capabilities_of(KEPLER_K20)
        assert caps.supports(resolve("dbuf-shared"))  # queue-incompatible
        assert (caps.supports(resolve("dpar-opt"))
                == caps.dynamic_parallelism)

    def test_bsp_run_cache_tags_are_none(self):
        assert SimBackend(KEPLER_K20).run_cache_tag is None
        assert DeviceGroup(KEPLER_K20, 2).run_cache_tag is None

    def test_bsp_fingerprints_unchanged(self):
        assert SimBackend(KEPLER_K20).fingerprint() == KEPLER_K20.fingerprint()
        group_fp = DeviceGroup(KEPLER_K20, 2).fingerprint()
        assert group_fp == f"{KEPLER_K20.fingerprint()}x2"

    def test_plan_key_has_no_backend_component(self, loop_wl):
        tmpl = resolve("dbuf-global")
        key = plan_key(tmpl, loop_wl.fingerprint(), KEPLER_K20,
                       TemplateParams())
        assert len(key) == 4  # (workload, template, device, params)
        assert "queue" not in repr(key)

    def test_selection_identical_for_default_backend(self, loop_wl):
        """backend="sim" must hit the exact cache entry the PR-6 call
        signature produced (the key gains no backend component)."""
        implicit = auto_select(loop_wl, KEPLER_K20)
        explicit = auto_select(loop_wl, KEPLER_K20, backend="sim")
        assert explicit is implicit  # same memory-cache entry

    def test_selection_to_dict_tolerates_old_pickles(self, loop_wl):
        sel = auto_select(loop_wl, KEPLER_K20)
        assert sel.to_dict()["backend"] == "sim"
        # a Selection unpickled from before the field existed has no
        # instance attribute; to_dict must still report the default
        legacy = Selection.__new__(Selection)
        legacy.__dict__.update(sel.__dict__)
        legacy.__dict__.pop("backend", None)
        assert legacy.to_dict()["backend"] == "sim"


#: every entry point that takes a device count, called with ``n``
_DEVICE_ENTRY_POINTS = {
    "run": lambda wl, n: repro.run(wl, "dual-queue", devices=n),
    "compare": lambda wl, n: repro.compare(wl, ["dual-queue"], devices=n),
    "backend_for": lambda wl, n: backend_for(KEPLER_K20, devices=n),
    "DeviceGroup": lambda wl, n: DeviceGroup(KEPLER_K20, n_devices=n),
    "set_default_devices": lambda wl, n: set_default_devices(n),
}


class TestFacade:
    def test_run_devices_kwarg(self, loop_wl):
        single = repro.run(loop_wl, "dbuf-global")
        multi = repro.run(loop_wl, "dbuf-global", devices=4)
        assert multi.device_runs is not None
        assert len(multi.device_runs) == 4
        # same total work, executed concurrently
        assert multi.result.time_ms < single.result.time_ms

    def test_run_devices_one_is_default_path(self, loop_wl):
        a = repro.run(loop_wl, "dual-queue")
        b = repro.run(loop_wl, "dual-queue", devices=1)
        assert a.result.cycles == b.result.cycles
        assert a.metrics.as_dict() == b.metrics.as_dict()

    @pytest.mark.parametrize("devices", [0, 2.5, "2", True, float("nan")],
                             ids=["0", "2.5", "str", "True", "nan"])
    @pytest.mark.parametrize("entry", sorted(_DEVICE_ENTRY_POINTS))
    def test_run_rejects_bad_devices(self, loop_wl, entry, devices):
        with pytest.raises(ConfigError, match="devices must be"):
            _DEVICE_ENTRY_POINTS[entry](loop_wl, devices)

    def test_backend_for_memoizes_groups(self):
        a = backend_for(KEPLER_K20, devices=3)
        b = backend_for(KEPLER_K20, devices=3)
        assert a is b
        assert backend_for(KEPLER_K20, devices=1) is not a
