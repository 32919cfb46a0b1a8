"""The two-level plan pipeline: analysis artifacts, specialize-stage
equivalence, disk-backed cold-vs-warm runs for every template, fingerprint
memoization and the autotuner's shared-analysis reporting."""

import os

import numpy as np
import pytest

import repro
from repro.core import artifactcache
from repro.core.analysis import (
    analysis_stats,
    clear_analysis_cache,
    get_analysis,
    get_tree_analysis,
)
from repro.core.artifactcache import configure_artifact_cache
from repro.core.autotune import autotune
from repro.core.dual_queue import split_by_threshold
from repro.core.params import TemplateParams
from repro.core.plancache import default_cache
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.registry import ALL_TEMPLATES, resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.gpusim.config import KEPLER_K20, KEPLER_K40, DeviceConfig
from repro.trees.generator import generate_tree


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


def make_workload(seed=0, outer=900, name=None):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.7, size=outer).clip(max=120).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=name or f"tl-{seed}", trip_counts=trips,
        streams=[
            AccessStream("x", rng.integers(0, nnz, size=nnz) * 4),
            AccessStream("y", rng.integers(0, nnz, size=nnz) * 4,
                         kind="store"),
        ],
    )


def make_tree(seed=0):
    return RecursiveTreeWorkload(
        generate_tree(depth=5, outdegree=3, seed=seed), "descendants")


def workload_for(kind, seed=3):
    return make_workload(seed) if kind == "nested-loop" else make_tree(seed)


class TestWorkloadAnalysis:
    def test_partition_matches_split_by_threshold(self):
        workload = make_workload(seed=5)
        analysis = get_analysis(workload)
        for threshold in (0, 1, 2, 7, 32, 1000):
            small, large = analysis.partition(threshold)
            ref_small, ref_large = split_by_threshold(
                workload.trip_counts, threshold)
            np.testing.assert_array_equal(small, ref_small)
            np.testing.assert_array_equal(large, ref_large)

    def test_partition_is_memoized(self):
        analysis = get_analysis(make_workload(seed=6))
        assert analysis.partition(4)[0] is analysis.partition(4)[0]

    def test_histogram_and_order(self):
        workload = make_workload(seed=7)
        analysis = get_analysis(workload)
        assert analysis.n_pairs == int(workload.trip_counts.sum())
        assert (np.diff(analysis.sorted_trips) >= 0).all()
        np.testing.assert_array_equal(
            np.repeat(analysis.trip_values, analysis.trip_freqs),
            analysis.sorted_trips)

    def test_stream_segments_match_addresses(self):
        workload = make_workload(seed=8)
        analysis = get_analysis(workload)
        for si, stream in enumerate(workload.streams):
            np.testing.assert_array_equal(
                analysis.stream_segments(si), stream.addresses // 128)

    def test_analysis_cached_per_fingerprint(self):
        workload = make_workload(seed=9)
        first = get_analysis(workload)
        assert get_analysis(workload) is first
        stats = analysis_stats()
        assert stats["hits"] >= 1
        # same content, fresh object -> same fingerprint -> same artifact
        assert get_analysis(make_workload(seed=9)) is first

    def test_tree_analysis_structure(self):
        tree_wl = make_tree(seed=2)
        analysis = get_tree_analysis(tree_wl)
        tree = tree_wl.tree
        np.testing.assert_array_equal(analysis.degrees, tree.out_degrees)
        # grandchildren counted per grandparent and per level agree
        assert analysis.child_deg_sum.sum() == tree.n_nodes - tree.level_offsets[2]
        np.testing.assert_array_equal(
            analysis.sibling_rank[tree.children_of(0)],
            np.arange(analysis.degrees[0]))
        assert 0 in analysis.needs_launch


class TestFingerprintMemoization:
    def test_fingerprint_computed_once(self):
        workload = make_workload(seed=10)
        assert workload.fingerprint() is workload.fingerprint()

    def test_invalidate_fingerprint_recomputes(self):
        workload = make_workload(seed=11)
        stale = workload.fingerprint()
        # nnz-conserving edit: streams stay valid, identity must not
        workload.trip_counts = workload.trip_counts.copy()
        src = int(np.flatnonzero(workload.trip_counts > 0)[0])
        dst = src + 1
        workload.trip_counts[src] -= 1
        workload.trip_counts[dst] += 1
        assert workload.fingerprint() == stale  # memo hides the edit
        workload.invalidate_fingerprint()
        assert workload.fingerprint() != stale

    def test_tree_invalidate_fingerprint(self):
        tree_wl = make_tree(seed=3)
        first = tree_wl.fingerprint()
        tree_wl.invalidate_fingerprint()
        assert tree_wl.fingerprint() == first  # same content, same print


class TestDeviceFingerprint:
    def test_equal_configs_share_fingerprint(self):
        # a field-for-field reconstruction, as another process would make
        rebuilt = DeviceConfig(**{
            f: getattr(KEPLER_K20, f)
            for f in KEPLER_K20.__dataclass_fields__
        })
        assert rebuilt is not KEPLER_K20
        assert rebuilt.fingerprint() == KEPLER_K20.fingerprint()

    def test_different_configs_differ(self):
        assert KEPLER_K20.fingerprint() != KEPLER_K40.fingerprint()

    def test_fingerprint_is_memoized(self):
        assert KEPLER_K20.fingerprint() is KEPLER_K20.fingerprint()


@pytest.mark.parametrize("name", sorted(ALL_TEMPLATES))
class TestColdWarmEquivalence:
    def test_disk_warm_run_matches_cold(self, name, tmp_path):
        """Every template must produce identical results when its plan is
        deserialized from the disk cache in a 'fresh' process (simulated
        by clearing the in-memory caches)."""
        kind = ALL_TEMPLATES[name][0]
        workload = workload_for(kind)
        cache = configure_artifact_cache(tmp_path)
        template = resolve(name, kind=kind)
        cold = template.run(workload, KEPLER_K20)
        assert cache.snapshot()["writes"] >= 1

        default_cache().clear()
        clear_analysis_cache()
        warm = template.run(workload, KEPLER_K20)
        assert cache.stats["plan"]["hits"] == 1
        assert warm.time_ms == cold.time_ms
        assert warm.metrics == cold.metrics
        assert set(warm.schedule) == set(cold.schedule)
        for phase in cold.schedule:
            np.testing.assert_array_equal(
                warm.schedule[phase], cold.schedule[phase])

    def test_corrupt_disk_artifacts_degrade_to_cold_build(
            self, name, tmp_path):
        """Garbling every cached entry must never crash a warm run — it
        degrades to a cold build with identical results."""
        kind = ALL_TEMPLATES[name][0]
        workload = workload_for(kind, seed=4)
        cache = configure_artifact_cache(tmp_path)
        template = resolve(name, kind=kind)
        cold = template.run(workload, KEPLER_K20)

        for entry in tmp_path.rglob("*.pkl"):
            entry.write_bytes(b"\x00corrupt")
        default_cache().clear()
        clear_analysis_cache()
        recovered = template.run(workload, KEPLER_K20)
        assert cache.snapshot()["corrupt"] >= 1
        assert recovered.time_ms == cold.time_ms
        assert recovered.metrics == cold.metrics


class TestSpecializeStage:
    def test_build_equals_specialize_with_fresh_analysis(self):
        """build() is exactly specialize(analysis): a sweep point computed
        through the cached artifact matches a from-scratch analysis."""
        workload = make_workload(seed=12)
        template = resolve("dual-queue", kind="nested-loop")
        params = TemplateParams(lb_threshold=8)
        _, cached_schedule = template.build(workload, KEPLER_K20, params)
        from repro.core.analysis import WorkloadAnalysis

        _, fresh_schedule = template.specialize(
            workload, WorkloadAnalysis.from_workload(workload),
            KEPLER_K20, params)
        assert set(cached_schedule) == set(fresh_schedule)
        for phase in fresh_schedule:
            np.testing.assert_array_equal(
                cached_schedule[phase], fresh_schedule[phase])
        cold = repro.run(workload, "dual-queue", params=params)
        default_cache().clear()
        warm = repro.run(workload, "dual-queue", params=params)
        assert warm.time_ms == cold.time_ms

    def test_sweep_hits_analysis_cache_n_minus_1_times(self):
        """The tentpole contract: N parameter points, 1 analysis miss."""
        workload = make_workload(seed=13)
        template = resolve("dual-queue", kind="nested-loop")
        before = analysis_stats()
        for threshold in (1, 2, 4, 8, 16):
            template.build(workload, KEPLER_K20,
                           TemplateParams(lb_threshold=threshold))
        after = analysis_stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 4


class TestAutotuneAnalysisReuse:
    def test_tuning_report_shows_shared_analysis(self):
        workload = make_workload(seed=14, outer=400)
        winner = autotune(
            workload, KEPLER_K20,
            templates=("dual-queue", "dbuf-global"),
            thresholds=(2, 8),
        )
        report = winner.tuning_report
        assert report["candidates"] == 4
        # one miss to compute the artifact, every candidate build a hit
        assert report["analysis_cache"]["misses"] == 1
        assert report["analysis_cache"]["hits"] >= report["candidates"]
