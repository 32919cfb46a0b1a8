"""Unit tests for the kernel cost builder and memory latency model."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.gpusim.config import KEPLER_K20
from repro.gpusim.costmodel import (
    KernelCostBuilder,
    effective_segment_cycles,
    resident_warps_estimate,
)
from repro.gpusim.warps import divergence_steps


class TestEffectiveSegmentCycles:
    def test_bandwidth_bound_at_high_occupancy(self):
        # enough resident warps: the latency term falls below the
        # bandwidth floor and the cost bottoms out at cycles_per_segment
        cfg = KEPLER_K20
        assert effective_segment_cycles(cfg, 256) == pytest.approx(
            cfg.cycles_per_segment
        )

    def test_latency_bound_for_single_warp(self):
        cfg = KEPLER_K20
        cost = effective_segment_cycles(cfg, 1)
        assert cost == pytest.approx(
            cfg.dram_latency_cycles / cfg.memory_parallelism_per_warp
        )
        assert cost > 10 * cfg.cycles_per_segment

    def test_monotonically_nonincreasing(self):
        cfg = KEPLER_K20
        costs = [effective_segment_cycles(cfg, w) for w in (1, 2, 4, 8, 16, 32, 64)]
        assert costs == sorted(costs, reverse=True)

    def test_rejects_zero_warps(self):
        with pytest.raises(WorkloadError):
            effective_segment_cycles(KEPLER_K20, 0)


class TestResidentWarpsEstimate:
    def test_large_grid_reaches_occupancy_limit(self):
        warps = resident_warps_estimate(KEPLER_K20, 192, n_blocks=1000)
        assert warps == pytest.approx(60.0)  # 10 blocks x 6 warps

    def test_single_small_block(self):
        warps = resident_warps_estimate(KEPLER_K20, 32, n_blocks=1)
        assert warps == pytest.approx(1.0)

    def test_concurrent_grids_raise_residency(self):
        alone = resident_warps_estimate(KEPLER_K20, 32, n_blocks=1)
        crowd = resident_warps_estimate(KEPLER_K20, 32, n_blocks=1,
                                        concurrent_grids=64)
        assert crowd > alone

    def test_sibling_cap(self):
        capped = resident_warps_estimate(KEPLER_K20, 32, n_blocks=1,
                                         concurrent_grids=10_000)
        # bounded by the concurrent-kernel hardware limit and occupancy
        assert capped <= KEPLER_K20.max_warps_per_sm


class TestKernelCostBuilder:
    def _builder(self, **kw):
        return KernelCostBuilder(KEPLER_K20, "k", block_size=64, n_blocks=4, **kw)

    def test_uniform_work_spreads_evenly(self):
        b = self._builder()
        b.add_uniform(insts=100)
        launch = b.build()
        cycles = launch.costs.block_cycles
        assert np.allclose(cycles, cycles[0])
        assert cycles[0] > 0

    @pytest.mark.parametrize("block_size", [32, 48, 64, 100, 192])
    def test_uniform_prefix_matches_warp_formation(self, block_size):
        """The closed-form prefix equals forming warps over 0/1 flags."""
        for n_threads in (1, 31, 33, block_size, 2 * block_size + 17,
                          5 * block_size):
            b = KernelCostBuilder(KEPLER_K20, "k", block_size=block_size,
                                  n_blocks=5)
            b.add_uniform(n_threads, insts=3.0)
            flags = np.zeros(b.n_threads, dtype=np.int64)
            flags[:n_threads] = 1
            issued, active = divergence_steps(b._form(flags))
            np.testing.assert_array_equal(b._arrays.compute_slots,
                                          issued * 3.0)
            assert b.counters.warp.issued_steps == int(issued.sum() * 3.0)
            assert b.counters.warp.active_slots == int(active.sum() * 3.0)

    def test_divergent_loop_inflates_issue(self):
        trips = np.zeros(256, dtype=np.int64)
        trips[::32] = 64  # one busy lane per warp
        b = self._builder()
        b.add_loop(trips, insts_per_iter=4)
        eff = b.counters.warp.warp_execution_efficiency
        assert eff == pytest.approx(1 / 32)

    def test_traffic_requires_matching_shape(self):
        b = self._builder()
        with pytest.raises(WorkloadError):
            b.add_traffic(np.ones(3), 12)

    def test_traffic_records_efficiency(self):
        b = self._builder()
        tx = np.ones(b.n_warps)
        seg = KEPLER_K20.mem_segment_bytes
        b.add_traffic(tx, requested_bytes=b.n_warps * seg, kind="load")
        assert b.counters.load_traffic.efficiency == pytest.approx(1.0)

    def test_store_traffic_separate(self):
        b = self._builder()
        b.add_traffic(np.ones(b.n_warps), 32, kind="store")
        assert b.counters.store_traffic.transactions == b.n_warps
        assert b.counters.load_traffic.transactions == 0

    def test_unknown_traffic_kind(self):
        b = self._builder()
        with pytest.raises(WorkloadError):
            b.add_traffic(np.ones(b.n_warps), 0, kind="texture")

    def test_atomics_counted(self):
        b = self._builder()
        addrs = np.zeros(256, dtype=np.int64)  # all threads hit address 0
        b.add_atomics(addrs)
        assert b.counters.atomic.n_atomics == 256
        # hottest address across the whole launch, not per warp
        assert b.counters.atomic.max_address_multiplicity == 256

    def test_atomics_sentinel_skips_thread(self):
        b = self._builder()
        addrs = np.full(256, -1, dtype=np.int64)
        addrs[0] = 7
        b.add_atomics(addrs)
        assert b.counters.atomic.n_atomics == 1

    def test_hot_tail_accumulates(self):
        b = self._builder()
        b.add_hot_address_tail(1000)
        launch = b.build()
        assert launch.costs.serial_tail == pytest.approx(
            1000 * KEPLER_K20.atomic_same_address_cycles
        )

    def test_warp_of_thread_block_aware(self):
        b = self._builder()
        # thread 64 = block 1 lane 0 -> warp 2 (2 warps per 64-thread block)
        assert b.warp_of_thread(np.array([0, 31, 32, 64])).tolist() == [0, 0, 1, 2]

    def test_warp_of_thread_range_check(self):
        b = self._builder()
        with pytest.raises(WorkloadError):
            b.warp_of_thread(np.array([10_000]))

    def test_memory_latency_penalty_for_tiny_kernels(self):
        small = KernelCostBuilder(KEPLER_K20, "s", block_size=32, n_blocks=1)
        big = KernelCostBuilder(KEPLER_K20, "b", block_size=192, n_blocks=100)
        tx_small = np.ones(small.n_warps)
        tx_big = np.ones(big.n_warps)
        small.add_traffic(tx_small, 128)
        big.add_traffic(tx_big, 128 * big.n_warps)
        per_tx_small = small.build().costs.total_cycles
        per_tx_big = big.build().costs.total_cycles / big.n_warps
        assert per_tx_small > 5 * per_tx_big

    def test_zero_blocks_rejected(self):
        with pytest.raises(WorkloadError):
            KernelCostBuilder(KEPLER_K20, "k", block_size=64, n_blocks=0)

    def test_build_sets_resident_hint(self):
        launch = self._builder().build()
        assert launch.resident_warps_hint > 0
