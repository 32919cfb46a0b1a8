"""The tiered cache: disk round trips, atomic writes, corruption
tolerance, repr-stable keying, code identity, the process-wide
configure/get plumbing, and the byte-bounded memory LRU."""

import gc
import os
import pickle
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core import artifactcache
from repro.core.analysis import TreeAnalysis, WorkloadAnalysis
from repro.core.artifactcache import (
    KINDS,
    ArtifactCache,
    TIERS,
    TieredCache,
    configure_artifact_cache,
    get_artifact_cache,
    sizeof,
)
from repro.core.params import TemplateParams
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.registry import resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ConfigError
from repro.gpusim.config import KEPLER_K20
from repro.trees.generator import generate_tree


@pytest.fixture(autouse=True)
def isolated_cache_state():
    """Each test starts unconfigured and leaks neither global nor env."""
    saved = artifactcache._cache
    saved_env = os.environ.get(artifactcache.ENV_VAR)
    artifactcache._cache = False
    os.environ.pop(artifactcache.ENV_VAR, None)
    yield
    artifactcache._cache = saved
    if saved_env is None:
        os.environ.pop(artifactcache.ENV_VAR, None)
    else:
        os.environ[artifactcache.ENV_VAR] = saved_env


class TestRoundTrip:
    def test_put_get_every_tier(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i, tier in enumerate(TIERS):
            key = ("wl-fp", tier, i)
            value = {"tier": tier, "array": np.arange(4) * i}
            assert cache.get(tier, key) is None  # cold
            cache.put(tier, key, value)
            got = cache.get(tier, key)
            assert got["tier"] == tier
            np.testing.assert_array_equal(got["array"], value["array"])
        assert cache.stats["plan"] == {
            "hits": 1, "misses": 1, "writes": 1, "corrupt": 0,
            "evictions": 0}

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("plan", ("a", 1), "first")
        cache.put("plan", ("a", 2), "second")
        assert cache.get("plan", ("a", 1)) == "first"
        assert cache.get("plan", ("a", 2)) == "second"

    def test_key_paths_are_repr_stable(self, tmp_path):
        """Equal keys built independently (as two processes would) map to
        the same entry file — the cross-process sharing contract."""
        cache = ArtifactCache(tmp_path)
        key_a = ("fp-" + "x" * 3, "dual-queue", (("block_size", 128),))
        key_b = ("fp-xxx", "dual-queue", (("block_size", 2 ** 7),))
        assert cache._path("plan", key_a) == cache._path("plan", key_b)

    def test_unknown_tier_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown cache tier"):
            ArtifactCache(tmp_path).get("plans", "k")


class TestRobustness:
    def test_corrupted_entry_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("run", "key", [1, 2, 3])
        (entry,) = list((tmp_path / "run").glob("*.pkl"))
        entry.write_bytes(b"\x80garbage")
        assert cache.get("run", "key") is None
        assert cache.stats["run"]["corrupt"] == 1
        assert cache.stats["run"]["misses"] == 1

    def test_truncated_entry_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("run", "key", list(range(1000)))
        (entry,) = list((tmp_path / "run").glob("*.pkl"))
        entry.write_bytes(entry.read_bytes()[:10])
        assert cache.get("run", "key") is None
        assert cache.stats["run"]["corrupt"] == 1

    def test_rewrite_after_corruption_recovers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("plan", "key", "good")
        (entry,) = list((tmp_path / "plan").glob("*.pkl"))
        entry.write_bytes(b"")
        assert cache.get("plan", "key") is None
        cache.put("plan", "key", "good again")
        assert cache.get("plan", "key") == "good again"

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(5):
            cache.put("analysis", i, np.zeros(16))
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_unwritable_directory_degrades_silently(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should go")
        cache = ArtifactCache(target)
        cache.put("plan", "k", "v")  # must not raise
        assert cache.stats["plan"]["writes"] == 0
        assert cache.get("plan", "k") is None

    def test_alien_pickle_is_served_as_stored(self, tmp_path):
        """Entries are plain pickles; whatever loads cleanly is returned
        (code skew is handled by the code digest in every key)."""
        cache = ArtifactCache(tmp_path)
        path = cache._path("plan", "k")
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"other": "schema"}))
        assert cache.get("plan", "k") == {"other": "schema"}


class TestSnapshot:
    def test_snapshot_totals_sum_tiers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("plan", "a", 1)
        cache.get("plan", "a")
        cache.get("run", "nope")
        snap = cache.snapshot()
        assert snap["cache_dir"] == str(tmp_path)
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["writes"] == 1
        assert snap["tiers"]["plan"]["hits"] == 1
        assert snap["tiers"]["run"]["misses"] == 1


class TestSizeCap:
    def _filler(self, n=800):
        return b"x" * n

    def test_lru_eviction_keeps_newest(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=5000)
        for i in range(12):
            cache.put("plan", ("k", i), self._filler())
        assert cache.stats["plan"]["evictions"] > 0
        # newest entries survive, oldest are gone
        assert cache.get("plan", ("k", 11)) is not None
        assert cache.get("plan", ("k", 0)) is None
        total = sum(p.stat().st_size for p in tmp_path.rglob("*.pkl"))
        assert total <= 5000

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=5000)
        cache.put("plan", "hot", self._filler())
        for i in range(3):
            cache.put("plan", ("cold", i), self._filler())
            os.utime(cache._path("plan", ("cold", i)),
                     (i + 1e9, i + 1e9))  # force strict mtime order
            cache.get("plan", "hot")  # keeps "hot" most recent
        for i in range(4):
            cache.put("plan", ("more", i), self._filler())
        assert cache.get("plan", "hot") is not None

    def test_eviction_crosses_tiers(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=3000)
        cache.put("analysis", "old", self._filler())
        os.utime(cache._path("analysis", "old"), (1e9, 1e9))
        for i in range(4):
            cache.put("run", ("r", i), self._filler())
        assert cache.get("analysis", "old") is None
        assert cache.stats["analysis"]["evictions"] == 1

    def test_zero_means_unbounded(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=0)
        for i in range(20):
            cache.put("plan", ("k", i), self._filler())
        assert cache.snapshot()["evictions"] == 0
        assert all(cache.get("plan", ("k", i)) is not None
                   for i in range(20))

    def test_env_var_sets_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifactcache.SIZE_ENV_VAR, "12345")
        assert ArtifactCache(tmp_path).max_bytes == 12345
        monkeypatch.setenv(artifactcache.SIZE_ENV_VAR, "not-a-number")
        with pytest.raises(ConfigError, match=artifactcache.SIZE_ENV_VAR):
            ArtifactCache(tmp_path)

    @pytest.mark.parametrize("raw", ["-1", "1.5", ""])
    def test_malformed_env_var_fails_fast(self, tmp_path, monkeypatch, raw):
        monkeypatch.setenv(artifactcache.SIZE_ENV_VAR, raw)
        with pytest.raises(ConfigError, match=artifactcache.SIZE_ENV_VAR):
            configure_artifact_cache(tmp_path)
        os.environ[artifactcache.ENV_VAR] = str(tmp_path)
        with pytest.raises(ConfigError, match=artifactcache.SIZE_ENV_VAR):
            get_artifact_cache()

    def test_negative_argument_fails_fast(self, tmp_path):
        with pytest.raises(ConfigError, match="max_bytes"):
            ArtifactCache(tmp_path, max_bytes=-1)
        with pytest.raises(ConfigError, match="max_bytes"):
            configure_artifact_cache(tmp_path, max_bytes=-1)
        assert get_artifact_cache() is None
        assert ArtifactCache(tmp_path, max_bytes=0).max_bytes == 0

    def test_evicted_read_degrades_to_miss_then_rebuilds(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=2000)
        cache.put("plan", "a", self._filler())
        os.utime(cache._path("plan", "a"), (1e9, 1e9))
        for i in range(3):
            cache.put("plan", ("b", i), self._filler())
        assert cache.get("plan", "a") is None  # miss, not an error
        cache.put("plan", "a", "rebuilt")
        assert cache.get("plan", "a") == "rebuilt"

    def test_snapshot_reports_cap(self, tmp_path):
        snap = ArtifactCache(tmp_path, max_bytes=4096).snapshot()
        assert snap["max_bytes"] == 4096
        assert snap["evictions"] == 0


class TestConfigure:
    def test_configure_sets_global_and_env(self, tmp_path):
        cache = configure_artifact_cache(tmp_path)
        assert get_artifact_cache() is cache
        assert os.environ[artifactcache.ENV_VAR] == str(tmp_path)

    def test_configure_none_disables_and_clears_env(self, tmp_path):
        configure_artifact_cache(tmp_path)
        assert configure_artifact_cache(None) is None
        assert get_artifact_cache() is None
        assert artifactcache.ENV_VAR not in os.environ

    def test_unconfigured_process_adopts_env(self, tmp_path):
        """A pool worker never calls configure; it must pick up the dir
        its parent exported."""
        os.environ[artifactcache.ENV_VAR] = str(tmp_path)
        cache = get_artifact_cache()
        assert cache is not None
        assert cache.cache_dir == tmp_path

    def test_unconfigured_without_env_is_disabled(self):
        assert get_artifact_cache() is None

    def test_same_directory_keeps_the_live_instance(self, tmp_path):
        """Per-batch reconfiguration must not reset the process cache:
        same object, counters and tracked size carry on."""
        cache = configure_artifact_cache(tmp_path)
        cache.put("plan", ("k",), 1)
        assert cache.get("plan", ("k",)) == 1
        assert cache.get("plan", ("missing",)) is None
        before = cache.snapshot()
        # the same directory spelled differently resolves to one place
        (tmp_path / "sub").mkdir()
        for spelling in (tmp_path, str(tmp_path), tmp_path / "sub" / ".."):
            assert configure_artifact_cache(spelling) is cache
        assert get_artifact_cache() is cache
        assert cache.snapshot() == before
        assert before["hits"] == 1 and before["misses"] == 1
        assert before["writes"] == 1

    def test_env_adopted_instance_is_kept(self, tmp_path):
        os.environ[artifactcache.ENV_VAR] = str(tmp_path)
        adopted = get_artifact_cache()
        assert configure_artifact_cache(tmp_path) is adopted

    def test_other_directory_or_cap_replaces_it(self, tmp_path):
        cache = configure_artifact_cache(tmp_path / "a")
        cache.put("plan", ("k",), 1)
        other = configure_artifact_cache(tmp_path / "b")
        assert other is not cache
        assert other.cache_dir == tmp_path / "b"
        assert other.snapshot()["writes"] == 0
        assert os.environ[artifactcache.ENV_VAR] == str(tmp_path / "b")
        capped = configure_artifact_cache(tmp_path / "b", max_bytes=1 << 20)
        assert capped is not other and capped.max_bytes == 1 << 20
        assert configure_artifact_cache(tmp_path / "b",
                                        max_bytes=1 << 20) is capped
        assert configure_artifact_cache(None) is None
        assert get_artifact_cache() is None
        again = configure_artifact_cache(tmp_path / "b", max_bytes=1 << 20)
        assert again is not capped


def _blob(tag: str, n: int = 1000) -> bytes:
    return tag.encode() * n


@pytest.fixture
def memory_only():
    """No disk level: the tiered cache's memory LRU alone."""
    artifactcache._cache = None


class TestCodeIdentity:
    def test_code_edit_retires_every_disk_entry(self, tmp_path, monkeypatch):
        configure_artifact_cache(tmp_path)
        writer = TieredCache()
        for kind in TIERS:
            writer.put(kind, ("key", kind), {"kind": kind})
        same_code = TieredCache()  # a fresh process: empty memory
        for kind in TIERS:
            assert same_code.get(kind, ("key", kind)) == {"kind": kind}
        monkeypatch.setattr(artifactcache, "code_digest", lambda: "edited")
        edited = TieredCache()
        for kind in TIERS:
            assert edited.get(kind, ("key", kind)) is None
            assert edited.stats[kind, "disk"].misses == 1
            assert edited.stats[kind, "disk"].hits == 0

    def test_code_digest_is_computed_once_per_process(self):
        digest = artifactcache.code_digest()
        assert artifactcache.code_digest() == digest and len(digest) == 32
        assert artifactcache.code_digest.cache_info().currsize == 1


class TestMemoryLevel:
    @pytest.mark.parametrize(
        "kind", [k for k, levels in KINDS.items() if "memory" in levels])
    def test_memory_hit_refreshes_recency(self, kind, monkeypatch,
                                          memory_only):
        monkeypatch.setattr(artifactcache, "MEMORY_MAX_BYTES",
                            3 * sizeof(_blob("a")))
        cache = TieredCache()
        for key in "abc":
            cache.put(kind, key, _blob(key))
        assert cache.get(kind, "a") == _blob("a")  # "b" is now the LRU
        cache.put(kind, "d", _blob("d"))
        assert cache.get(kind, "b") is None
        assert cache.get(kind, "a") == _blob("a")
        assert cache.stats[kind, "memory"].evictions == 1

    def test_bound_evicts_least_recent_first_never_the_new_entry(
            self, monkeypatch, memory_only):
        monkeypatch.setattr(artifactcache, "MEMORY_MAX_BYTES",
                            3 * sizeof(_blob("a")))
        cache = TieredCache()
        cache.put("analysis", "a", _blob("a"))
        cache.put("select", "b", _blob("b"))
        cache.put("plan", "c", _blob("c"))
        cache.put("phase", "d", _blob("d"))  # evicts the LRU entry only
        assert list(cache._entries) == [("select", "b"), ("plan", "c"),
                                        ("phase", "d")]
        huge = _blob("h", 10_000)  # larger than the whole bound
        cache.put("plan", "huge", huge)
        assert list(cache._entries) == [("plan", "huge")]
        assert cache.nbytes == sizeof(huge)
        cache.put("analysis", "e", _blob("e"))
        assert list(cache._entries) == [("analysis", "e")]
        assert cache.nbytes == sizeof(_blob("e"))

    def test_window_table_built_after_insertion_counts(self, monkeypatch,
                                                       memory_only):
        wl = _nested_workload()
        analysis = WorkloadAnalysis.from_workload(wl)
        key = ("nested", wl.fingerprint())
        other = _blob("o")
        bare = sizeof(analysis)
        monkeypatch.setattr(artifactcache, "MEMORY_MAX_BYTES",
                            bare + sizeof(other) + 64)
        cache = TieredCache()
        cache.put("plan", "other", other)
        cache.put("analysis", key, analysis)
        assert len(cache._entries) == 2
        analysis.warp_windows(wl, 128, 32)
        assert cache.get("analysis", key) is analysis
        assert cache.nbytes == sizeof(analysis) > bare
        assert list(cache._entries) == [("analysis", key)]  # the table pushed it out

    def test_concurrent_probes_keep_the_byte_count_exact(self, monkeypatch,
                                                         memory_only):
        bound = 20 * sizeof(_blob("x"))
        monkeypatch.setattr(artifactcache, "MEMORY_MAX_BYTES", bound)
        cache = TieredCache()
        rounds, workers = 3000, 8

        def work(seed):
            rng = random.Random(seed)
            for _ in range(rounds):
                key = rng.randrange(60)
                if cache.get("plan", key) is None:
                    cache.put("plan", key, _blob("x", 900 + key))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        held = [sizeof(_blob("x", 900 + key)) for _, key in cache._entries]
        assert cache.nbytes == sum(held) <= bound
        assert cache.stats["plan", "memory"].lookups == rounds * workers


def _nested_workload(seed=3, outer=2000):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.6, size=outer).clip(max=400).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=f"acct-{seed}", trip_counts=trips,
        streams=[AccessStream("col", rng.integers(0, nnz, nnz) * 4),
                 AccessStream("x", rng.integers(0, 1 << 20, nnz) * 8)],
    )


def _retained(build):
    """``(value, bytes tracemalloc sees retained by it)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return value, retained


class TestAccounting:
    """The memory bound charges what an entry really holds: within 2x of
    what tracemalloc sees it retain, Python objects included."""

    def _within_2x(self, value, retained):
        accounted = sizeof(value)
        assert retained / 2 <= accounted <= 2 * retained, (accounted,
                                                           retained)

    def test_tree_analysis(self):
        wl = RecursiveTreeWorkload(
            generate_tree(4, 24, sparsity=0.5, seed=3), "descendants")
        wl.fingerprint()
        self._within_2x(*_retained(lambda: TreeAnalysis.from_workload(wl)))

    def test_nested_analysis_with_its_window_table(self):
        wl = _nested_workload()
        wl.fingerprint()

        def build():
            analysis = WorkloadAnalysis.from_workload(wl)
            analysis.warp_windows(wl, 128, 32)
            return analysis

        self._within_2x(*_retained(build))

    def test_rec_naive_plan(self):
        """Thousands of one-block child launches: about a kilobyte of
        Python objects each, next to a few bytes of arrays."""
        wl = RecursiveTreeWorkload(
            generate_tree(4, 24, sparsity=0.5, seed=3), "descendants")
        analysis = TreeAnalysis.from_workload(wl)
        template = resolve("rec-naive", kind="tree")
        graph, retained = _retained(lambda: template.specialize(
            wl, analysis, KEPLER_K20, TemplateParams()))
        assert len(graph.launches) > 300
        self._within_2x(graph, retained)

    def test_every_entry_is_charged(self, memory_only):
        wl = _nested_workload(outer=300)
        selection = repro.ir.auto_select(wl)
        cache = TieredCache()
        cache.put("select", "s", selection)
        assert sizeof(selection) > 1000
        assert cache.nbytes == sizeof(selection)
