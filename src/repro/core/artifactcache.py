"""One tiered cache for every derived artifact, keyed on code identity.

Every kind of artifact lives at fixed levels (:data:`KINDS`):

============  =============  ============================================
kind          levels         value; key
============  =============  ============================================
``analysis``  memory, disk   Workload/TreeAnalysis; (family, workload fp)
``lineage``   disk           MutationDelta; child workload fingerprint
``select``    memory, disk   Selection; (workload fp, device fp, pass
                             config, params, engine, backend)
``plan``      memory, disk   built plan; plan key
``phase``     memory         one mapping move's replayable effect
``run``       disk           ExecutionResult; (plan key, engine, run tag)
============  =============  ============================================

One probe path (:meth:`TieredCache.fetch`): memory, then disk, then
build; a disk hit fills memory, a build fills every level of its kind.
The memory level is one thread-safe LRU over every kind, bounded by
:data:`MEMORY_MAX_BYTES` of what entries hold (:func:`sizeof`).  Values
grow after insertion, mostly soon after (an analysis memoizes window
tables, the executor caches block runs on a plan's kernels), so an
entry is re-measured on its 1st, 2nd, 4th, 8th, ... hit.  Eviction drops
the least recently used entries, never the one just stored.

The disk level (:class:`ArtifactCache`) pickles entries under a
directory shared across processes, named by a digest of
:func:`code_digest` and the key's ``repr`` (keys must be repr-stable), so
an entry is only ever read by the code that wrote it.  Writes are atomic;
unreadable entries count as ``corrupt`` misses, never raise; usage is
bounded by ``max_bytes``, unlinking the least recently used entries
(mtime order), which a racing reader sees as an ordinary miss.

Counters: live :class:`LevelStats` per ``(kind, level)``, and with
tracing on the obs counter ``cache.<kind>.<level>.<event>``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import sys
import tempfile
import threading
import types
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import ConfigError

__all__ = [
    "ArtifactCache", "KINDS", "LevelStats", "MEMORY_MAX_BYTES", "TIERS",
    "TieredCache", "code_digest", "configure_artifact_cache",
    "get_artifact_cache", "sizeof", "tiered_cache",
]

#: artifact kind -> the levels that store it, in probe order
KINDS = {
    "analysis": ("memory", "disk"),
    "lineage": ("disk",),
    "select": ("memory", "disk"),
    "plan": ("memory", "disk"),
    "phase": ("memory",),
    "run": ("disk",),
}

#: kinds with a disk level, in pipeline order (the cache dir's subdirectories)
TIERS = tuple(kind for kind, levels in KINDS.items() if "disk" in levels)

#: bytes the memory level holds, across every kind
MEMORY_MAX_BYTES = 128 << 20

#: environment variable carrying the cache dir into pool workers
ENV_VAR = "REPRO_CACHE_DIR"
#: environment variable overriding the default disk cap (bytes; 0 = off)
SIZE_ENV_VAR = "REPRO_CACHE_MAX_BYTES"
DEFAULT_MAX_BYTES = 1 << 30  # 1 GiB

#: puts between full directory rescans (concurrent writers drift the
#: incrementally-tracked total; a periodic rescan re-anchors it)
_RESCAN_EVERY = 64

_DISK_EVENTS = ("hits", "misses", "writes", "corrupt", "evictions")


@cache
def code_digest() -> str:
    """Digest of the ``repro`` package source, once per process; part of
    every disk key."""
    root = Path(__file__).resolve().parent.parent
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ sizing
#: objects an entry refers to but does not own
_SHARED = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.MethodType)
#: containers with more children than twice this are sized from this many
#: evenly spaced children, scaled up
_SAMPLE = 8


def sizeof(value: object) -> int:
    """Bytes ``value`` holds: array buffers plus Python object overhead,
    walking each distinct object once.  Containers with many children (a
    plan's row columns, a kernel's block runs) are sized from a sample,
    so a call stays under a millisecond on the largest plans."""
    seen: set[int] = set()
    total = 0.0
    stack = [(value, 1.0)]
    while stack:
        obj, weight = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _SHARED):
            continue
        # an array that owns its buffer reports it; a view reports its
        # header and leads to the owner through ``base``
        total += weight * sys.getsizeof(obj)
        if isinstance(obj, np.ndarray):
            refs = [] if obj.base is None else [obj.base]
        else:
            refs = gc.get_referents(obj)
            if type(obj).__dictoffset__:
                # instance attributes live in a values array getsizeof misses
                total += weight * 8 * len(refs)
        if len(refs) > 2 * _SAMPLE:
            step = len(refs) / _SAMPLE
            refs = [refs[int(k * step)] for k in range(_SAMPLE)]
            weight *= step
        for ref in refs:
            if type(ref) is float:
                # the bulk of a run plan (its kernels' cached block runs),
                # rarely shared: counted without a visit
                total += weight * sys.getsizeof(ref)
            else:
                stack.append((ref, weight))
    return int(total)


@dataclass
class LevelStats:
    """Counters of one kind at one level; the cache increments them in
    place, and a counter reset replaces the object."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


# --------------------------------------------------------------- disk level
def _max_bytes(max_bytes) -> int:
    """The disk cap: ``max_bytes``, else ``REPRO_CACHE_MAX_BYTES``, else
    1 GiB.  Raises :class:`ConfigError` on a malformed or negative value."""
    name, raw = "max_bytes", max_bytes
    if raw is None:
        name, raw = SIZE_ENV_VAR, os.environ.get(SIZE_ENV_VAR, DEFAULT_MAX_BYTES)
    try:
        cap = int(raw)
    except (TypeError, ValueError):
        cap = -1
    if cap < 0:
        raise ConfigError(f"{name} must be a whole number of bytes >= 0 "
                          f"(0 = unbounded), got {raw!r}")
    return cap


class ArtifactCache:
    """The disk level: a pickle store under ``cache_dir`` with per-kind
    counters; ``max_bytes`` as in :func:`configure_artifact_cache`."""

    def __init__(self, cache_dir: str | Path,
                 max_bytes: int | None = None) -> None:
        self.cache_dir = Path(cache_dir)
        self.max_bytes = _max_bytes(max_bytes)
        self.stats: dict[str, dict[str, int]] = {
            tier: dict.fromkeys(_DISK_EVENTS, 0) for tier in TIERS
        }
        #: incrementally-tracked total size; None = not yet scanned
        self._size_bytes: int | None = None
        self._puts_since_scan = 0

    def _count(self, tier: str, event: str) -> None:
        self.stats[tier][event] += 1
        if obs.enabled():
            obs.add_counter(f"cache.{tier}.disk.{event}")

    def _path(self, tier: str, key: object) -> Path:
        if tier not in TIERS:
            raise ConfigError(f"unknown cache tier {tier!r}; known: {TIERS}")
        digest = hashlib.blake2b(
            f"{code_digest()}|{key!r}".encode(), digest_size=16
        ).hexdigest()
        return self.cache_dir / tier / f"{digest}.pkl"

    def get(self, tier: str, key: object) -> object | None:
        """The cached artifact, or None.  Never raises on bad entries."""
        path = self._path(tier, key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self._count(tier, "misses")
            return None
        except Exception:
            # torn/corrupted entry: degrade to a miss, never crash
            self._count(tier, "corrupt")
            self._count(tier, "misses")
            return None
        self._count(tier, "hits")
        try:
            # refresh recency so LRU eviction spares hot entries
            os.utime(path)
        except OSError:
            pass
        return value

    def put(self, tier: str, key: object, value: object) -> None:
        """Store an artifact atomically; I/O failures are swallowed
        (a full or read-only disk degrades the cache, not the run)."""
        path = self._path(tier, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                replaced = path.stat().st_size
            except OSError:
                replaced = 0
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                written = os.stat(tmp).st_size
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            return
        self._count(tier, "writes")
        if self.max_bytes:
            self._account_and_evict(written - replaced)

    def _scan_entries(self) -> list[tuple[float, int, str, Path]]:
        """All cache entries as ``(mtime, size, tier, path)`` tuples."""
        entries = []
        for tier in TIERS:
            try:
                with os.scandir(self.cache_dir / tier) as it:
                    for entry in it:
                        if not entry.name.endswith(".pkl"):
                            continue
                        try:
                            st = entry.stat()
                        except OSError:
                            continue  # raced an eviction/cleanup
                        entries.append(
                            (st.st_mtime, st.st_size, tier, Path(entry.path))
                        )
            except OSError:
                continue
        return entries

    def _account_and_evict(self, delta: int) -> None:
        """Track total size incrementally; evict LRU entries over the cap.

        Eviction is a plain ``os.unlink`` per entry: atomic, and safe
        against concurrent readers — an open file keeps serving its
        reader, a read racing the unlink degrades to a miss.
        """
        self._puts_since_scan += 1
        if self._size_bytes is None or self._puts_since_scan >= _RESCAN_EVERY:
            self._size_bytes = sum(e[1] for e in self._scan_entries())
            self._puts_since_scan = 0
        else:
            self._size_bytes += delta
        if self._size_bytes <= self.max_bytes:
            return
        entries = sorted(self._scan_entries())  # oldest mtime first
        total = sum(e[1] for e in entries)
        for _, size, tier, path in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # already gone (another process evicted it)
            total -= size
            self._count(tier, "evictions")
        self._size_bytes = total
        self._puts_since_scan = 0

    def snapshot(self) -> dict:
        """Per-tier counters plus totals (``--profile`` / BENCH records)."""
        tiers = {tier: dict(self.stats[tier]) for tier in TIERS}
        total = {event: sum(t[event] for t in tiers.values())
                 for event in _DISK_EVENTS}
        return {"cache_dir": str(self.cache_dir), "max_bytes": self.max_bytes,
                "tiers": tiers, **total}


#: process-wide disk level; ``False`` = not yet configured (allows the
#: REPRO_CACHE_DIR fallback), ``None`` = explicitly disabled
_cache: ArtifactCache | None | bool = False


def configure_artifact_cache(
    cache_dir: str | Path | None,
    max_bytes: int | None = None,
) -> ArtifactCache | None:
    """Set the process-wide disk level (None disables it), exporting
    ``REPRO_CACHE_DIR`` for worker processes spawned afterwards.
    ``max_bytes``: None defers to ``REPRO_CACHE_MAX_BYTES`` or 1 GiB; 0
    means unbounded.  The same resolved directory and cap keep the live
    instance, so per-batch callers do not reset its counters.
    """
    global _cache
    if cache_dir is None:
        _cache = None
        os.environ.pop(ENV_VAR, None)
        return None
    live = _cache if isinstance(_cache, ArtifactCache) else None
    cap = _max_bytes(max_bytes)
    if (live is None or live.max_bytes != cap
            or live.cache_dir.resolve() != Path(cache_dir).resolve()):
        _cache = ArtifactCache(cache_dir, max_bytes=cap)
    os.environ[ENV_VAR] = str(_cache.cache_dir)
    return _cache


def get_artifact_cache() -> ArtifactCache | None:
    """The process-wide disk level, or None when disabled; unconfigured
    processes (pool workers) adopt ``REPRO_CACHE_DIR``."""
    global _cache
    if _cache is False:
        env = os.environ.get(ENV_VAR)
        _cache = ArtifactCache(env) if env else None
    return _cache


# ------------------------------------------------------------- the one path
class TieredCache:
    """The memory LRU over the disk level: one probe path for every kind.
    Entries are shared, not copied — treat them as read-only."""

    def __init__(self) -> None:
        self.stats = {(kind, level): LevelStats()
                      for kind, levels in KINDS.items() for level in levels}
        #: ``(kind, key) -> (value, bytes, hits)``, least recently used first
        self._entries: OrderedDict = OrderedDict()
        #: bytes the memory level holds
        self.nbytes = 0
        self._lock = threading.Lock()

    def count(self, kind: str) -> int:
        """Memory entries of one kind."""
        with self._lock:
            return sum(1 for k, _ in self._entries if k == kind)

    def _bump(self, kind: str, level: str, event: str) -> None:
        """Count one event (callers hold the lock); the disk level's obs
        counters come from :class:`ArtifactCache`."""
        stats = self.stats[kind, level]
        setattr(stats, event, getattr(stats, event) + 1)
        if level == "memory" and obs.enabled():
            obs.add_counter(f"cache.{kind}.memory.{event}")

    def _lookup(self, kind: str, key: object) -> tuple[object | None, str]:
        """``(artifact, level)`` from the first level holding it, else
        ``(None, "")``; a memory hit refreshes recency."""
        if "memory" in KINDS[kind]:
            slot = (kind, key)
            with self._lock:
                entry = self._entries.get(slot)
                if entry is not None:
                    value, nbytes, hits = entry
                    self._entries[slot] = (value, nbytes, hits + 1)
                    self._entries.move_to_end(slot)
                self._bump(kind, "memory", "misses" if entry is None else "hits")
            if entry is not None:
                if (hits + 1) & hits == 0:  # a power-of-two hit
                    self._store(slot, value, hits + 1)
                return value, "memory"
        disk = get_artifact_cache() if "disk" in KINDS[kind] else None
        if disk is None:
            return None, ""
        value = disk.get(kind, key)
        with self._lock:
            self._bump(kind, "disk", "misses" if value is None else "hits")
        if value is None:
            return None, ""
        self.memoize(kind, key, value)
        return value, "disk"

    def get(self, kind: str, key: object) -> object | None:
        """The artifact from the first level that holds it, or None."""
        return self._lookup(kind, key)[0]

    def put(self, kind: str, key: object, value: object) -> None:
        """Store at every level of the kind."""
        self.memoize(kind, key, value)
        disk = get_artifact_cache() if "disk" in KINDS[kind] else None
        if disk is not None:
            disk.put(kind, key, value)

    def fetch(self, kind: str, key: object, build) -> tuple[object, str]:
        """The artifact and the level that served it: ``"memory"``,
        ``"disk"``, or ``"build"`` (``build()`` made it; every level of
        the kind stores it)."""
        value, level = self._lookup(kind, key)
        if value is None:
            value, level = build(), "build"
            self.put(kind, key, value)
        return value, level

    def memoize(self, kind: str, key: object, value: object) -> None:
        """Store at the memory level only, as the most recent entry."""
        if "memory" in KINDS[kind]:
            self._store((kind, key), value)

    def _store(self, slot: tuple[str, object], value: object,
               hits: int = 0) -> None:
        """Insert or re-measure ``slot`` as the most recent entry, then
        evict LRU entries over :data:`MEMORY_MAX_BYTES` — never ``slot``."""
        nbytes = sizeof(value)
        with self._lock:
            old = self._entries.pop(slot, None)
            if old is not None:
                self.nbytes -= old[1]
            self._entries[slot] = (value, nbytes, hits)
            self.nbytes += nbytes
            while self.nbytes > MEMORY_MAX_BYTES and len(self._entries) > 1:
                (victim, _), (_, size, _) = self._entries.popitem(last=False)
                self.nbytes -= size
                self._bump(victim, "memory", "evictions")

    def clear(self, kind: str, reset_stats: bool = False) -> None:
        """Drop one kind's memory entries (optionally also its counters)."""
        with self._lock:
            for slot in [s for s in self._entries if s[0] == kind]:
                self.nbytes -= self._entries.pop(slot)[1]
            if reset_stats:
                for level in KINDS[kind]:
                    self.stats[kind, level] = LevelStats()

#: the process-wide cache every call site probes
_tiered = TieredCache()


def tiered_cache() -> TieredCache:
    """The process-wide tiered cache."""
    return _tiered
