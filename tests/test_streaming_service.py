"""Versioned workload streams in the serving layer: snapshot pinning,
the MVCC version window, and the zero-torn-reads acceptance guarantee."""

import os
import threading

import numpy as np
import pytest

import repro
from repro.core import artifactcache
from repro.core.analysis import clear_analysis_cache
from repro.core.mutation import MutationBatch, PairInserts
from repro.core.plancache import default_cache
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ServiceError
from repro.service.streams import WorkloadStream


@pytest.fixture(autouse=True)
def isolated_caches():
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


def make_workload(seed=0, outer=200):
    rng = np.random.default_rng(seed)
    trips = rng.integers(0, 8, size=outer).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=f"svc-stream-{seed}",
        trip_counts=trips,
        streams=[
            AccessStream("x", rng.integers(0, 4096, nnz) * 4, "load", 4),
            AccessStream("y", rng.integers(0, 4096, nnz) * 8, "store", 8),
        ],
        atomic_targets=rng.integers(-1, outer, nnz),
    )


def insert_batch(rng, wl, k=4):
    rows = rng.integers(0, wl.outer_size, k)
    return MutationBatch(inserts=PairInserts(
        outer_ids=rows,
        stream_addresses=[rng.integers(0, 4096, k) * 4,
                          rng.integers(0, 4096, k) * 8],
        atomic_targets=rng.integers(-1, wl.outer_size, k),
    ))


class TestWorkloadStream:
    def test_registration_validation(self):
        wl = make_workload()
        with pytest.raises(ServiceError):
            WorkloadStream("", wl)
        with pytest.raises(ServiceError):
            WorkloadStream("s", "not a workload")
        with pytest.raises(ServiceError):
            WorkloadStream("s", wl, keep_versions=0)

    def test_mutate_advances_and_parent_survives(self):
        wl = make_workload(seed=1)
        stream = WorkloadStream("s", wl, keep_versions=4)
        rng = np.random.default_rng(0)
        fp0 = wl.fingerprint()
        trips0 = wl.trip_counts.copy()
        delta = stream.mutate(insert_batch(rng, stream.head))
        assert stream.version == 1
        assert delta.version_to == 1
        assert stream.head is not wl
        # the pinned version-0 snapshot is byte-for-byte the original
        v0 = stream.get(0)
        assert v0 is wl
        assert v0.fingerprint() == fp0
        assert np.array_equal(v0.trip_counts, trips0)
        assert stream.get() is stream.head
        assert stream.get(None) is stream.head

    def test_version_window_eviction(self):
        stream = WorkloadStream("s", make_workload(seed=2), keep_versions=3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            stream.mutate(insert_batch(rng, stream.head))
        assert stream.versions() == [3, 4, 5]
        assert stream.mutations == 5
        with pytest.raises(ServiceError) as err:
            stream.get(0)
        assert "not retained" in str(err.value)
        assert "[3, 4, 5]" in str(err.value)
        snap = stream.snapshot()
        assert snap["version"] == 5
        assert snap["mutations"] == 5
        assert snap["retained"] == 3


class TestServiceStreams:
    def test_register_mutate_and_pinned_submit(self):
        wl = make_workload(seed=3)
        ref = repro.run(wl, "dbuf-global")
        rng = np.random.default_rng(2)
        with repro.serve(max_batch=4) as svc:
            svc.register_workload("g", wl, keep_versions=8)
            with pytest.raises(ServiceError):
                svc.register_workload("g", make_workload(seed=4))
            for _ in range(3):
                svc.mutate_workload("g", insert_batch(rng, wl))
            head = svc.request("dbuf-global", "g")
            pinned = svc.request("dbuf-global", "g", version=0)
            assert head.status == "ok" and pinned.status == "ok"
            # version 0 is the pre-mutation trace: identical to repro.run
            # on the original workload, and different from the head
            assert pinned.time_ms == ref.time_ms
            assert head.time_ms != ref.time_ms
            stats = svc.stats()
            assert stats["mutations"] == 3
            assert stats["streams"]["g"]["version"] == 3
            assert stats["streams"]["g"]["mutations"] == 3

    def test_structured_errors(self):
        with repro.serve(max_batch=4) as svc:
            svc.register_workload("g", make_workload(seed=5), keep_versions=2)
            with pytest.raises(ServiceError):
                svc.mutate_workload("nope", MutationBatch(append_outer=1))
            with pytest.raises(ServiceError):
                svc.request("baseline", "nope")
            with pytest.raises(ServiceError):  # evicted version
                rng = np.random.default_rng(3)
                for _ in range(4):
                    svc.mutate_workload(
                        "g", insert_batch(rng, svc.service._streams["g"].head))
                svc.request("baseline", "g", version=0)
            with pytest.raises(ServiceError):  # version= needs a stream name
                svc.request("baseline", make_workload(seed=6), version=0)

    def test_zero_torn_reads_under_concurrent_mutations(self):
        """Acceptance: requests pinned to a snapshot reproduce that
        snapshot's result exactly, no matter how many mutations land
        while they are in flight."""
        wl = make_workload(seed=7)
        ref = repro.run(wl, "thread-mapped")
        stop = threading.Event()
        torn = []

        with repro.serve(max_batch=8) as svc:
            svc.register_workload("g", wl, keep_versions=10_000)

            def mutator():
                rng = np.random.default_rng(4)
                while not stop.is_set():
                    svc.mutate_workload("g", insert_batch(rng, wl),
                                        warm_analysis=False)

            thread = threading.Thread(target=mutator)
            thread.start()
            try:
                futures = [svc.submit("thread-mapped", "g", version=0)
                           for _ in range(24)]
                for future in futures:
                    response = future.result(timeout=30)
                    if (response.status != "ok"
                            or response.time_ms != ref.time_ms):
                        torn.append(response)
            finally:
                stop.set()
                thread.join()
            mutations = svc.stats()["mutations"]

        assert torn == []
        assert mutations > 0  # the stream really advanced mid-flight
