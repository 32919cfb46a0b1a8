#!/usr/bin/env python
"""Smoke-check the disk artifact cache across process boundaries.

Fast end-to-end gate (wired into ``make test`` as ``make cache-smoke``):

1. **two-process round trip** — a child process runs a template with a
   fresh ``--cache-dir`` (cold: misses + writes on every tier), then a
   *second* child process runs the same workload and must hit the disk
   ``plan`` and ``run`` tiers it never populated itself, producing a
   bit-identical simulated time; every child runs its template twice,
   and the second run must be a ``run`` memory hit that probes no disk
   ``run`` entry and reports the same time;
2. **analysis sharing** — the second process is also probed with a
   different template of the same workload, which must reuse the disk
   ``analysis`` tier (the two-level pipeline's cross-template artifact);
   the analysis it reads carries the unit-stride record the first
   process built, and a thread-mapped phase costed with it equals the
   first process's; likewise a tree workload's analysis, written by one
   process, is read from disk by another, whose flat and rec-hier plans
   specialized from it equal the first process's;
3. **stale code** — a copy of ``src/`` with one line of
   ``gpusim/costmodel.py`` edited runs against the warm directory: it
   must miss the ``plan`` and ``run`` tiers (every disk key names the
   code that wrote it) and report the simulated time its own code
   computes, not the cached one;
4. **corruption tolerance** — every cached entry is truncated/garbled in
   place; another process must degrade to cold misses (recording
   ``corrupt`` counts), never crash, and still produce the same result.

Children are spawned with ``sys.executable`` so nothing is inherited via
fork: every hit in steps 1-4 is a genuine disk round trip.  Exit code 0 =
all checks passed.  Keep this under a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the cost-model line the stale-code step doubles in its copy of src/
_EDITED_LINE = (
    "    return max(config.cycles_per_segment, "
    "config.dram_latency_cycles / outstanding)"
)

#: runs in a fresh child process: execute one template twice against the
#: shared cache dir and report simulated times, per-tier disk counters and
#: what the repeat cost as JSON
_CHILD = r"""
import dataclasses, hashlib, json, sys
import numpy as np
from repro.core.analysis import get_analysis
from repro.core.artifactcache import configure_artifact_cache, tiered_cache
from repro.core.mapping import add_thread_mapped_inner, clear_phase_memo
from repro.core.registry import resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.gpusim.config import KEPLER_K20
from repro.gpusim.costmodel import KernelCostBuilder

cache_dir, template = sys.argv[1], sys.argv[2]
cache = configure_artifact_cache(cache_dir)
rng = np.random.default_rng(7)
# rows of 8+ pairs: the thread-mapped phase below counts the unit-stride
# stream in closed form, not by the short-row rule's per-pair path
trips = rng.zipf(1.8, size=400).clip(max=60).astype(np.int64) * 8
nnz = int(trips.sum())
workload = NestedLoopWorkload(
    name="cache-smoke", trip_counts=trips,
    streams=[AccessStream("rows", 68 + np.arange(nnz) * 4),
             AccessStream("x", rng.integers(0, nnz, size=nnz) * 4)],
)
tmpl = resolve(template, kind="nested-loop")
run = tmpl.run(workload, KEPLER_K20)
disk_run = cache.snapshot()["tiers"]["run"]
memory = tiered_cache().stats["run", "memory"]
memory_hits = memory.hits
again = tmpl.run(workload, KEPLER_K20)
# one thread-mapped phase costed with the analysis this process holds
analysis = get_analysis(workload)
clear_phase_memo()
builder = KernelCostBuilder(KEPLER_K20, "smoke", 64, -(-trips.size // 64))
rows = np.arange(trips.size)
add_thread_mapped_inner(builder, workload, rows, rows, analysis=analysis)
arrays = builder._arrays
phase = hashlib.blake2b(digest_size=8)
for part in (arrays.compute_slots.tobytes(), arrays.mem_transactions.tobytes(),
             repr(dataclasses.asdict(builder.counters)).encode()):
    phase.update(part)
print(json.dumps({
    "time_ms": run.time_ms, "stats": cache.snapshot(),
    "unit_stride": list(analysis.unit_stride), "thread_phase": phase.hexdigest(),
    "repeat": {"time_ms": again.time_ms,
               "memory_hits": memory.hits - memory_hits,
               "disk_probes_before": disk_run["hits"] + disk_run["misses"]},
}))
"""


#: runs in a fresh child process: fetch one tree workload's analysis
#: through the shared cache dir and specialize the flat and rec-hier plans
#: from it (not through the plan tier); reports the plans' digests
_TREE_CHILD = r"""
import hashlib, json, pickle, sys
from repro.core.analysis import get_tree_analysis
from repro.core.artifactcache import configure_artifact_cache
from repro.core.params import TemplateParams
from repro.core.recursive import (FlatTreeTemplate, RecHierTreeTemplate,
                                  RecursiveTreeWorkload)
from repro.gpusim.config import KEPLER_K20
from repro.trees.generator import generate_tree

cache = configure_artifact_cache(sys.argv[1])
workload = RecursiveTreeWorkload(generate_tree(4, 16, sparsity=0.5, seed=7))
analysis = get_tree_analysis(workload)
plans = {
    template.name: hashlib.blake2b(pickle.dumps(template.specialize(
        workload, analysis, KEPLER_K20, TemplateParams())),
        digest_size=8).hexdigest()
    for template in (FlatTreeTemplate(), RecHierTreeTemplate())
}
print(json.dumps({"plans": plans, "stats": cache.snapshot()}))
"""


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def spawn(script: str, *args: str, src: Path = REPO_ROOT / "src") -> dict:
    """Run ``script`` in a fresh interpreter on ``src``; its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("REPRO_CACHE_DIR", None)  # the child must rely on argv alone
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        fail(f"child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_child(cache_dir: str, template: str = "dual-queue",
              src: Path = REPO_ROOT / "src") -> dict:
    report = spawn(_CHILD, cache_dir, template, src=src)
    repeat = report["repeat"]
    disk_run = tier(report, "run")
    if (repeat["memory_hits"] != 1
            or disk_run["hits"] + disk_run["misses"]
            != repeat["disk_probes_before"]):
        fail(f"a repeated run was not served by the run memory level "
             f"alone: {repeat}, disk run tier {disk_run}")
    if repeat["time_ms"] != report["time_ms"]:
        fail(f"a repeated run diverged: {report['time_ms']} "
             f"vs {repeat['time_ms']}")
    return report


def tier(report: dict, name: str) -> dict:
    return report["stats"]["tiers"][name]


def edited_source(dest: Path) -> Path:
    """A copy of ``src/`` under ``dest`` with one cost-model line edited."""
    src = dest / "src"
    shutil.copytree(REPO_ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    costmodel = src / "repro" / "gpusim" / "costmodel.py"
    text = costmodel.read_text()
    if _EDITED_LINE not in text:
        fail(f"{costmodel.name} no longer has the line this step edits: "
             f"{_EDITED_LINE.strip()!r}")
    costmodel.write_text(text.replace(
        _EDITED_LINE, _EDITED_LINE.replace("return max(", "return 2 * max("),
        1))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as tmp:
        cold = run_child(tmp)
        if tier(cold, "plan")["writes"] < 1 or tier(cold, "run")["writes"] < 1:
            fail(f"cold run wrote nothing: {cold['stats']}")
        if tier(cold, "plan")["hits"] or tier(cold, "run")["hits"]:
            fail(f"cold run hit a fresh cache: {cold['stats']}")

        warm = run_child(tmp)
        if tier(warm, "plan")["hits"] < 1 or tier(warm, "run")["hits"] < 1:
            fail(f"second process missed the disk cache: {warm['stats']}")
        if warm["time_ms"] != cold["time_ms"]:
            fail(f"cached result diverged: {cold['time_ms']} "
                 f"vs {warm['time_ms']}")
        print(f"round trip ok: plan {tier(warm, 'plan')['hits']} hit(s), "
              f"run {tier(warm, 'run')['hits']} hit(s) across processes; "
              "each repeat served from the run memory level")

        other = run_child(tmp, template="thread-mapped")
        if tier(other, "analysis")["hits"] < 1:
            fail("a different template did not reuse the shared workload "
                 f"analysis: {other['stats']}")
        if cold["unit_stride"] != [True, False]:
            fail(f"a fresh analysis recorded unit-stride streams "
                 f"{cold['unit_stride']}, not [True, False]")
        if other["unit_stride"] != cold["unit_stride"]:
            fail(f"the analysis read from disk records unit-stride streams "
                 f"{other['unit_stride']}, a fresh build "
                 f"{cold['unit_stride']}")
        if other["thread_phase"] != cold["thread_phase"]:
            fail("a thread-mapped phase costed with the analysis read from "
                 "disk differs from the first process's")
        print(f"analysis sharing ok: "
              f"{tier(other, 'analysis')['hits']} cross-template hit(s), "
              "same unit-stride record and thread-mapped phase")

        with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as trees:
            built = spawn(_TREE_CHILD, trees)
            read = spawn(_TREE_CHILD, trees)
        if tier(built, "analysis")["writes"] < 1:
            fail(f"a fresh tree analysis was not written: {built['stats']}")
        if tier(read, "analysis")["hits"] < 1:
            fail("a second process did not read the tree analysis from "
                 f"disk: {read['stats']}")
        if read["plans"] != built["plans"]:
            fail(f"plans specialized from the tree analysis read from disk "
                 f"{read['plans']} differ from a fresh build's "
                 f"{built['plans']}")
        print("tree analysis ok: read from disk by a second process, same "
              "flat and rec-hier plans")

        with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as copy:
            src = edited_source(Path(copy))
            stale = run_child(tmp, src=src)
            own = run_child(str(Path(copy) / "cache"), src=src)
        for name in ("plan", "run"):
            if tier(stale, name)["hits"] or not tier(stale, name)["misses"]:
                fail(f"edited code was served {name} entries the original "
                     f"code wrote: {stale['stats']}")
        if own["time_ms"] == cold["time_ms"]:
            fail("the cost-model edit left the simulated time unchanged; "
                 "the stale-code step needs an edit that shows")
        if stale["time_ms"] != own["time_ms"]:
            fail(f"edited code reported {stale['time_ms']} against the warm "
                 f"cache but computes {own['time_ms']}")
        print(f"stale code ok: an edited cost model misses plan and run "
              f"and reports its own {own['time_ms']:.4f} ms "
              f"(cached: {cold['time_ms']:.4f} ms)")

        entries = sorted(Path(tmp).rglob("*.pkl"))
        if not entries:
            fail("no cache entries on disk after three runs")
        for i, entry in enumerate(entries):
            # truncate every other entry, garble the rest
            if i % 2 == 0:
                entry.write_bytes(entry.read_bytes()[:3])
            else:
                entry.write_bytes(b"not a pickle")
        mangled = run_child(tmp)
        stats = mangled["stats"]
        if stats["corrupt"] < 1:
            fail(f"corrupted entries were not detected: {stats}")
        if stats["hits"]:
            fail(f"a corrupted entry served as a hit: {stats}")
        if mangled["time_ms"] != cold["time_ms"]:
            fail(f"recovery run diverged: {cold['time_ms']} "
                 f"vs {mangled['time_ms']}")
        print(f"corruption tolerance ok: {stats['corrupt']} corrupt "
              f"entr{'y' if stats['corrupt'] == 1 else 'ies'} degraded "
              f"to misses, result unchanged")
    print("cache smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
