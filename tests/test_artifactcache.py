"""Disk artifact cache: round trips, atomic writes, corruption tolerance,
repr-stable keying and the process-wide configure/get plumbing."""

import os
import pickle

import numpy as np
import pytest

from repro.core import artifactcache
from repro.core.artifactcache import (
    ArtifactCache,
    TIERS,
    configure_artifact_cache,
    get_artifact_cache,
)
from repro.errors import ConfigError


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
        (version skew is handled by the format-version key prefix)."""
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
        assert ArtifactCache(tmp_path).max_bytes == \
            artifactcache.DEFAULT_MAX_BYTES

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
