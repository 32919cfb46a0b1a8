"""Streaming mutation core: splice semantics, batch commit, the delta
contract, incremental analysis, lineage resolution, and the stale-plan
regression around in-place edits."""

import os

import numpy as np
import pytest

import repro
from repro.core import artifactcache
from repro.core.analysis import (
    REBUILD_FRACTION,
    WorkloadAnalysis,
    analysis_stats,
    clear_analysis_cache,
    get_analysis,
)
from repro.core.artifactcache import configure_artifact_cache
from repro.core.mutation import MutationBatch, MutationDelta, PairInserts, splice
from repro.core.plancache import default_cache
from repro.core.workload import MAX_LINEAGE, AccessStream, NestedLoopWorkload
from repro.errors import WorkloadError

pytestmark = []


@pytest.fixture(autouse=True)
def isolated_caches():
    """Tests control the disk cache explicitly and never leak state."""
    saved = artifactcache._cache
    saved_env = os.environ.get(artifactcache.ENV_VAR)
    artifactcache._cache = None
    os.environ.pop(artifactcache.ENV_VAR, None)
    default_cache().clear()
    clear_analysis_cache(reset_stats=True)
    yield
    artifactcache._cache = saved
    if saved_env is None:
        os.environ.pop(artifactcache.ENV_VAR, None)
    else:
        os.environ[artifactcache.ENV_VAR] = saved_env
    default_cache().clear()
    clear_analysis_cache(reset_stats=True)


def make_workload(seed=0, outer=64, name=None, atomics=True):
    rng = np.random.default_rng(seed)
    trips = rng.integers(0, 9, size=outer).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=name or f"mut-{seed}",
        trip_counts=trips,
        streams=[
            AccessStream("x", rng.integers(0, 4096, nnz) * 4, "load", 4),
            AccessStream("y", rng.integers(0, 4096, nnz) * 8, "store", 8),
        ],
        atomic_targets=rng.integers(-1, outer, nnz) if atomics else None,
    )


def insert_batch(rng, wl, k=4, rows=None):
    n = wl.outer_size
    rows = rng.integers(0, n, k) if rows is None else np.asarray(rows)
    return MutationBatch(inserts=PairInserts(
        outer_ids=rows,
        stream_addresses=[rng.integers(0, 4096, rows.size) * 4,
                          rng.integers(0, 4096, rows.size) * 8],
        atomic_targets=rng.integers(-1, n, rows.size),
    ))


class TestSplice:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(0, 40))
            arr = rng.integers(0, 100, n)
            nd = int(rng.integers(0, min(n, 6) + 1)) if n else 0
            dele = (rng.choice(n, nd, replace=False) if nd
                    else np.empty(0, dtype=np.int64))
            if nd and rng.random() < 0.3:
                dele = np.concatenate([dele, dele[:1]])  # duplicate index
            rem = n - np.unique(dele).size
            ni = int(rng.integers(0, 5))
            pos = (rng.integers(0, rem + 1, ni) if ni
                   else np.empty(0, dtype=np.int64))
            vals = rng.integers(0, 100, ni)
            ref = np.insert(np.delete(arr, dele), pos, vals)
            got = splice(arr, dele, pos, vals)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    def test_noop_returns_fresh_copy(self):
        arr = np.arange(10)
        empty = np.empty(0, dtype=np.int64)
        out = splice(arr, empty, empty, empty)
        assert np.array_equal(out, arr)
        assert out is not arr and not np.shares_memory(out, arr)

    def test_repeated_positions_keep_value_order(self):
        arr = np.array([10, 20, 30])
        pos = np.array([1, 1, 1])
        vals = np.array([7, 8, 9])
        empty = np.empty(0, dtype=np.int64)
        assert np.array_equal(splice(arr, empty, pos, vals),
                              np.array([10, 7, 8, 9, 20, 30]))


class TestApplyMutations:
    def test_inserts_land_at_row_end(self):
        wl = make_workload(seed=1)
        row = int(np.flatnonzero(wl.trip_counts > 0)[0])
        before = wl.streams[0].addresses[
            wl.pair_offsets[row]:wl.pair_offsets[row + 1]].copy()
        batch = MutationBatch(inserts=PairInserts(
            outer_ids=np.array([row, row]),
            stream_addresses=[np.array([111, 222]) * 4,
                              np.array([333, 444]) * 8],
            atomic_targets=np.array([-1, -1]),
        ))
        delta = wl.apply_mutations(batch)
        sl = wl.streams[0].addresses[
            wl.pair_offsets[row]:wl.pair_offsets[row + 1]]
        assert np.array_equal(sl[:-2], before)
        assert np.array_equal(sl[-2:], np.array([111, 222]) * 4)
        assert wl.trip_counts[row] == before.size + 2
        assert delta.n_inserted == 2 and delta.n_deleted == 0
        assert np.array_equal(delta.changed, [row])

    def test_delete_pairs_and_offsets_stay_consistent(self):
        wl = make_workload(seed=2)
        nnz = wl.n_pairs
        keep_mask = np.ones(nnz, dtype=bool)
        dele = np.array([0, 3, nnz - 1])
        keep_mask[dele] = False
        expected = wl.streams[1].addresses[keep_mask]
        wl.apply_mutations(MutationBatch(delete_pairs=dele))
        assert wl.n_pairs == nnz - 3
        assert np.array_equal(wl.streams[1].addresses, expected)
        assert wl.pair_offsets[-1] == wl.n_pairs
        assert np.array_equal(np.diff(wl.pair_offsets), wl.trip_counts)

    def test_isolate_and_append(self):
        wl = make_workload(seed=3)
        n = wl.outer_size
        row = int(np.flatnonzero(wl.trip_counts > 0)[-1])
        wl.apply_mutations(MutationBatch(isolate_outer=np.array([row]),
                                         append_outer=2))
        assert wl.outer_size == n + 2  # tombstone keeps the row slot
        assert wl.trip_counts[row] == 0
        assert np.array_equal(wl.trip_counts[-2:], [0, 0])

    def test_version_fingerprint_and_lineage_advance(self):
        wl = make_workload(seed=4)
        rng = np.random.default_rng(0)
        fp0, v0 = wl.fingerprint(), wl.version
        delta = wl.apply_mutations(insert_batch(rng, wl))
        assert wl.version == v0 + 1
        assert wl.fingerprint() != fp0
        assert isinstance(delta, MutationDelta)
        assert delta.parent_fingerprint == fp0
        assert delta.fingerprint == wl.fingerprint()
        assert delta.version_to == wl.version
        assert wl.lineage[-1] is delta

    def test_lineage_is_bounded(self):
        wl = make_workload(seed=5)
        rng = np.random.default_rng(1)
        for _ in range(MAX_LINEAGE + 5):
            wl.apply_mutations(insert_batch(rng, wl, k=1))
        assert len(wl.lineage) == MAX_LINEAGE

    def test_functional_mutated_matches_inplace(self):
        a, b = make_workload(seed=6), make_workload(seed=6)
        parent_fp = b.fingerprint()
        parent_trips = b.trip_counts.copy()
        batch = insert_batch(np.random.default_rng(9), a)
        delta_a = a.apply_mutations(batch)
        child, delta_b = b.mutated(batch)
        assert delta_a.fingerprint == delta_b.fingerprint
        assert child.fingerprint() == a.fingerprint()
        assert np.array_equal(child.trip_counts, a.trip_counts)
        for sa, sc in zip(a.streams, child.streams):
            assert np.array_equal(sa.addresses, sc.addresses)
        # the parent snapshot is untouched
        assert b.fingerprint() == parent_fp
        assert np.array_equal(b.trip_counts, parent_trips)
        assert child.version == b.version + 1

    def test_batch_validation_errors(self):
        wl = make_workload(seed=7)
        with pytest.raises(WorkloadError):
            wl.apply_mutations(MutationBatch())  # empty
        with pytest.raises(WorkloadError):
            wl.apply_mutations("not a batch")
        with pytest.raises(WorkloadError):  # wrong stream count
            wl.apply_mutations(MutationBatch(inserts=PairInserts(
                np.array([0]), [np.array([4])])))
        with pytest.raises(WorkloadError):  # delete out of range
            wl.apply_mutations(MutationBatch(
                delete_pairs=np.array([wl.n_pairs])))
        plain = make_workload(seed=7, atomics=False)
        with pytest.raises(WorkloadError):  # atomics without atomics
            plain.apply_mutations(MutationBatch(inserts=PairInserts(
                np.array([0]), [np.array([4]), np.array([8])],
                atomic_targets=np.array([0]))))

    @pytest.mark.parametrize("kwargs, field", [
        (dict(append_outer=2.5), "append_outer"),
        (dict(append_outer=True), "append_outer"),
        (dict(append_outer="3"), "append_outer"),
        (dict(delete_pairs=[1.7]), "delete_pairs"),
        (dict(delete_pairs=["3"]), "delete_pairs"),
        (dict(delete_pairs=[float("nan")]), "delete_pairs"),
        (dict(isolate_outer=[2.9]), "isolate_outer"),
        (dict(outer_ids=[1.5]), "outer_ids"),
        (dict(stream_addresses=[[8.7], [8]]), r"stream_addresses\[0\]"),
        (dict(atomic_targets=[0.5]), "atomic_targets"),
    ], ids=["float-append", "bool-append", "str-append", "float-delete",
            "str-delete", "nan-delete", "float-isolate", "float-outer-id",
            "float-address", "float-atomic"])
    def test_non_integer_values_are_refused(self, kwargs, field):
        """Each value used to be truncated, parsed or counted as an
        integer (NaN raised a bare ValueError); the batch and the
        workload it targets are refused untouched."""
        wl = make_workload(seed=7, outer=100)
        parent = wl.fingerprint()
        insert_fields = {"outer_ids", "stream_addresses", "atomic_targets"}
        with pytest.raises(WorkloadError, match=field):
            if insert_fields & kwargs.keys():
                inserts = dict(outer_ids=[1], stream_addresses=[[4], [8]],
                               atomic_targets=[0])
                batch = MutationBatch(inserts=PairInserts(
                    **{**inserts, **kwargs}))
            else:
                batch = MutationBatch(**kwargs)
            wl.apply_mutations(batch)
        assert wl.fingerprint() == parent

    def test_empty_index_list_stays_valid(self):
        wl = make_workload(seed=7, outer=100)
        delta = wl.apply_mutations(MutationBatch(delete_pairs=[],
                                                 append_outer=1))
        assert wl.outer_size == 101
        assert delta.n_deleted == 0


class TestIncrementalAnalysis:
    def test_apply_delta_bit_identical(self):
        wl = make_workload(seed=10)
        rng = np.random.default_rng(2)
        base = get_analysis(wl)
        base.partition(2)  # memoize a threshold so it must be maintained
        delta = wl.apply_mutations(insert_batch(rng, wl))
        child = base.apply_delta(delta)
        scratch = WorkloadAnalysis.from_workload(wl)
        assert child is not None
        assert child.fingerprint == scratch.fingerprint
        assert np.array_equal(child.order, scratch.order)
        assert np.array_equal(child.sorted_trips, scratch.sorted_trips)
        assert np.array_equal(child.trip_values, scratch.trip_values)
        assert np.array_equal(child.trip_freqs, scratch.trip_freqs)
        for s in range(2):
            assert np.array_equal(child.stream_segments(s),
                                  scratch.stream_segments(s))
        for side_c, side_s in zip(child.partition(2), scratch.partition(2)):
            assert np.array_equal(side_c, side_s)
        assert child.split_counts(2) == scratch.split_counts(2)

    def test_apply_delta_never_mutates_parent(self):
        wl = make_workload(seed=11)
        rng = np.random.default_rng(3)
        base = get_analysis(wl)
        order0 = base.order.copy()
        seg0 = base.stream_segments(0).copy()
        delta = wl.apply_mutations(insert_batch(rng, wl))
        base.apply_delta(delta)
        assert np.array_equal(base.order, order0)
        assert np.array_equal(base.stream_segments(0), seg0)

    def test_apply_delta_rejects_wrong_parent(self):
        wl = make_workload(seed=12)
        other = make_workload(seed=13)
        rng = np.random.default_rng(4)
        foreign = get_analysis(other)
        delta = wl.apply_mutations(insert_batch(rng, wl))
        with pytest.raises(WorkloadError):
            foreign.apply_delta(delta)

    def test_large_delta_falls_back(self):
        wl = make_workload(seed=14)
        base = get_analysis(wl)
        # touch well over REBUILD_FRACTION of the pairs
        k = int(wl.n_pairs * (REBUILD_FRACTION + 0.3))
        delta = wl.apply_mutations(MutationBatch(
            delete_pairs=np.arange(k)))
        assert base.apply_delta(delta) is None
        clear_analysis_cache(reset_stats=True)
        # through the cache: the walk counts one fallback, zero hits
        wl2 = make_workload(seed=14)
        get_analysis(wl2)
        big = MutationBatch(delete_pairs=np.arange(int(wl2.n_pairs * 0.55)))
        wl2.apply_mutations(big)
        get_analysis(wl2)
        stats = analysis_stats()
        assert stats["delta_fallbacks"] == 1
        assert stats["incremental_hits"] == 0

    def test_chain_resolution_counts_hops(self):
        wl = make_workload(seed=15)
        rng = np.random.default_rng(5)
        get_analysis(wl)
        for _ in range(5):
            wl.apply_mutations(insert_batch(rng, wl, k=1))
        clear_analysis_cache(reset_stats=True)
        get_analysis(make_workload(seed=15))  # re-anchor the base
        got = get_analysis(wl)
        assert got.fingerprint == wl.fingerprint()
        assert analysis_stats()["incremental_hits"] == 5

    def test_chain_compaction_writes_analysis_tier(self, tmp_path):
        cache = configure_artifact_cache(tmp_path)
        wl = make_workload(seed=16)
        rng = np.random.default_rng(6)
        get_analysis(wl)
        for _ in range(6):
            wl.apply_mutations(insert_batch(rng, wl, k=1))
        clear_analysis_cache()
        get_analysis(wl)  # walks >= _COMPACT_AFTER hops -> compacts
        assert cache.get("analysis", ("nested", wl.fingerprint())) is not None
        # a cold process (no in-object lineage) resolves via the disk tier
        clear_analysis_cache(reset_stats=True)
        cold = make_workload(seed=16)
        cold.trip_counts = wl.trip_counts.copy()
        for a, b in zip(cold.streams, wl.streams):
            a.addresses = b.addresses.copy()
        cold.atomic_targets = wl.atomic_targets.copy()
        cold.invalidate_fingerprint()
        assert cold.fingerprint() == wl.fingerprint()
        got = get_analysis(cold)
        assert analysis_stats()["disk_hits"] == 1
        assert np.array_equal(got.order,
                              WorkloadAnalysis.from_workload(cold).order)


class TestStalePlanRegression:
    def test_inplace_edit_then_invalidate_rekeys_everything(self):
        wl = make_workload(seed=20)
        fp0 = wl.fingerprint()
        v0 = wl.version
        repro.run(wl, "dual-queue")  # populate plan caches pre-edit
        # conserve nnz so only offsets/identity change, not array sizes
        src = int(np.flatnonzero(wl.trip_counts > 1)[0])
        dst = int(np.flatnonzero(wl.trip_counts == 0)[0])
        wl.trip_counts[src] -= 1
        wl.trip_counts[dst] += 1
        wl.invalidate_fingerprint()
        assert wl.fingerprint() != fp0
        assert wl.version == v0 + 1
        assert wl.lineage == []
        assert np.array_equal(np.diff(wl.pair_offsets), wl.trip_counts)
        # the re-run must match a pristine workload with identical arrays,
        # not the pre-edit plan
        edited = repro.run(wl, "dual-queue")
        fresh = NestedLoopWorkload(
            name=wl.name, trip_counts=wl.trip_counts.copy(),
            streams=[AccessStream(s.name, s.addresses.copy(), s.kind,
                                  s.element_bytes) for s in wl.streams],
            atomic_targets=wl.atomic_targets.copy(),
        )
        ref = repro.run(fresh, "dual-queue")
        assert edited.result.cycles == ref.result.cycles

    def test_invalidate_rejects_inconsistent_streams(self):
        wl = make_workload(seed=21)
        wl.trip_counts[0] += 3  # nnz grew but streams did not
        with pytest.raises(WorkloadError):
            wl.invalidate_fingerprint()

    def test_mutation_rerun_never_serves_stale_plan(self):
        wl = make_workload(seed=22)
        rng = np.random.default_rng(7)
        repro.run(wl, "dbuf-global")  # populate plan cache pre-mutation
        wl.apply_mutations(insert_batch(rng, wl))
        after = repro.run(wl, "dbuf-global")
        fresh = NestedLoopWorkload(
            name=wl.name, trip_counts=wl.trip_counts.copy(),
            streams=[AccessStream(s.name, s.addresses.copy(), s.kind,
                                  s.element_bytes) for s in wl.streams],
            atomic_targets=wl.atomic_targets.copy(),
        )
        assert after.result.cycles == repro.run(fresh, "dbuf-global").result.cycles
