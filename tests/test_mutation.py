"""Streaming mutation core: splice semantics, the functional batch
commit and its delta, the analysis of a mutated snapshot, and the
stale-plan regression around in-place edits."""

import os

import numpy as np
import pytest

import repro
from repro.core import artifactcache
from repro.apps import SpMVApp
from repro.core.analysis import (
    WorkloadAnalysis,
    clear_analysis_cache,
    get_analysis,
)
from repro.core.mutation import MutationBatch, MutationDelta, PairInserts, splice
from repro.core.plancache import default_cache
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.graphs import citeseer_like
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
        child, delta = wl.mutated(batch)
        sl = child.streams[0].addresses[
            child.pair_offsets[row]:child.pair_offsets[row + 1]]
        assert np.array_equal(sl[:-2], before)
        assert np.array_equal(sl[-2:], np.array([111, 222]) * 4)
        assert child.trip_counts[row] == before.size + 2
        assert delta.n_inserted == 2 and delta.n_deleted == 0
        assert np.array_equal(delta.changed, [row])

    def test_delete_pairs_and_offsets_stay_consistent(self):
        wl = make_workload(seed=2)
        nnz = wl.n_pairs
        keep_mask = np.ones(nnz, dtype=bool)
        dele = np.array([0, 3, nnz - 1])
        keep_mask[dele] = False
        expected = wl.streams[1].addresses[keep_mask]
        child, _ = wl.mutated(MutationBatch(delete_pairs=dele))
        assert child.n_pairs == nnz - 3
        assert np.array_equal(child.streams[1].addresses, expected)
        assert child.pair_offsets[-1] == child.n_pairs
        assert np.array_equal(np.diff(child.pair_offsets), child.trip_counts)

    def test_isolate_and_append(self):
        wl = make_workload(seed=3)
        n = wl.outer_size
        row = int(np.flatnonzero(wl.trip_counts > 0)[-1])
        child, _ = wl.mutated(MutationBatch(isolate_outer=np.array([row]),
                                            append_outer=2))
        assert child.outer_size == n + 2  # tombstone keeps the row slot
        assert child.trip_counts[row] == 0
        assert np.array_equal(child.trip_counts[-2:], [0, 0])

    def test_version_fingerprint_and_lineage_advance(self):
        wl = make_workload(seed=4)
        rng = np.random.default_rng(0)
        fp0, v0 = wl.fingerprint(), wl.version
        trips0 = wl.trip_counts.copy()
        addresses0 = [s.addresses.copy() for s in wl.streams]
        child, delta = wl.mutated(insert_batch(rng, wl), name="child")
        assert child.version == v0 + 1
        assert child.fingerprint() != fp0
        assert child.name == "child"
        assert isinstance(delta, MutationDelta)
        assert delta.parent_fingerprint == fp0
        assert delta.fingerprint == child.fingerprint()
        assert delta.version_to == child.version
        # the parent snapshot is untouched, and shares no array or stream
        assert (wl.fingerprint(), wl.version) == (fp0, v0)
        assert np.array_equal(wl.trip_counts, trips0)
        for stream, addresses, new in zip(wl.streams, addresses0,
                                          child.streams):
            assert np.array_equal(stream.addresses, addresses)
            assert new is not stream
            assert not np.shares_memory(new.addresses, stream.addresses)

    def test_batch_validation_errors(self):
        wl = make_workload(seed=7)
        with pytest.raises(WorkloadError):
            wl.mutated(MutationBatch())  # empty
        with pytest.raises(WorkloadError):
            wl.mutated("not a batch")
        with pytest.raises(WorkloadError):  # wrong stream count
            wl.mutated(MutationBatch(inserts=PairInserts(
                np.array([0]), [np.array([4])])))
        with pytest.raises(WorkloadError):  # delete out of range
            wl.mutated(MutationBatch(
                delete_pairs=np.array([wl.n_pairs])))
        plain = make_workload(seed=7, atomics=False)
        with pytest.raises(WorkloadError):  # atomics without atomics
            plain.mutated(MutationBatch(inserts=PairInserts(
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
            wl.mutated(batch)
        assert wl.fingerprint() == parent

    def test_empty_index_list_stays_valid(self):
        wl = make_workload(seed=7, outer=100)
        child, delta = wl.mutated(MutationBatch(delete_pairs=[],
                                                append_outer=1))
        assert child.outer_size == 101
        assert delta.n_deleted == 0


class TestMutatedAnalysis:
    def test_mutated_snapshot_analysis_equals_from_workload(self):
        """A mutated snapshot is analysed like any other workload, even
        when its parent's analysis is cached: every fact equals a fresh
        build's, the unit-stride record included.  An append-only batch
        keeps SpMV's row streams (``col-index``, ``value``) unit-stride,
        so the thread-mapped phases of the child count them from the
        rows."""
        wl = SpMVApp(citeseer_like(scale=0.01, seed=0)).workload()
        parent = get_analysis(wl)
        parent.partition(2)
        child, _ = wl.mutated(MutationBatch(append_outer=3))
        got = get_analysis(child)
        fresh = WorkloadAnalysis.from_workload(child)
        assert fresh.unit_stride == (True, True, False)
        assert got.unit_stride == fresh.unit_stride
        assert got.fingerprint == fresh.fingerprint == child.fingerprint()
        for name in ("order", "sorted_trips", "trip_values", "trip_freqs"):
            assert np.array_equal(getattr(got, name), getattr(fresh, name))
        for s in range(len(child.streams)):
            assert np.array_equal(got.stream_segments(s),
                                  fresh.stream_segments(s))
        for side_got, side_fresh in zip(got.partition(2), fresh.partition(2)):
            assert np.array_equal(side_got, side_fresh)
        assert got.split_counts(2) == fresh.split_counts(2)


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
        child, _ = wl.mutated(insert_batch(rng, wl))
        after = repro.run(child, "dbuf-global")
        fresh = NestedLoopWorkload(
            name=child.name, trip_counts=child.trip_counts.copy(),
            streams=[AccessStream(s.name, s.addresses.copy(), s.kind,
                                  s.element_bytes) for s in child.streams],
            atomic_targets=child.atomic_targets.copy(),
        )
        assert after.result.cycles == repro.run(fresh, "dbuf-global").result.cycles
