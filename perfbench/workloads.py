"""The three workloads: ``loops``, ``recursion`` and ``serve``.

Every input is generated from the run's seed, fresh for each op, so no op
benefits from a cache an earlier op filled.  All timings are host time
(``time.perf_counter``); simulated time is an output the checks pin.

loops
    The Fig. 4 sweep on a fresh SpMV trace (``citeseer_like``, 8,680 rows,
    ~641k pairs): ``repro.run(wl)`` once, then ``thread-mapped`` plus
    dual-queue/dbuf-global/dbuf-shared/dpar-opt x lbTHRES {64,128,192} x
    ``lb_block`` {64,128,192,256} by name -- 50 runs.  Regenerates the
    paper's nested-loop figures; plan building dominates host time.
recursion
    Four fresh trees (depth 4, outdegree 64, sparsity {0.5, 1.5} x
    {descendants, heights}); on each, ``repro.run(wl)`` then
    flat/rec-naive/rec-hier x ``streams_per_block`` {1,2} -- 28 runs.  The
    same executor in the opposite regime: thousands of tiny child grids.
serve
    An open loop against ``repro.serve`` (defaults plus a fresh
    ``cache_dir``): 20 ``template="auto"`` queries/s on a Poisson schedule,
    mostly on six hot 4,000-row SpMV traces, 1 in 25 on a never-seen
    1,000-row trace (mean degree 10) and 1 in 20 pinned to the newest
    version of a registered 2,000-row stream that a second thread mutates
    with 16-edge batches at 2/s.  The only workload through
    ``repro.service``, the disk cache and ``core.mutation`` under
    concurrent reads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.apps import SpMVApp
from repro.apps.tree_desc import TreeDescendantsApp
from repro.apps.tree_height import TreeHeightsApp
from repro.core.analysis import analysis_stats
from repro.core.artifactcache import ENV_VAR, configure_artifact_cache
from repro.core.mapping import phase_memo_stats
from repro.core.mutation import MutationBatch, PairInserts
from repro.core.params import TemplateParams
from repro.core.plancache import default_cache
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.graphs import citeseer_like
from repro.graphs.generators import degree_sequence_graph, lognormal_degrees
from repro.trees.generator import generate_tree

from measure import median, open_loop, percentile, poisson_schedule, tail

#: rows of citeseer_like at scale 1.0
_CITESEER_ROWS = 434_000

LOOPS_ROWS = 8_680
LOOPS_SWEEP = [("thread-mapped", TemplateParams())] + [
    (name, TemplateParams(lb_threshold=lbt, lb_block=block))
    for name in ("dual-queue", "dbuf-global", "dbuf-shared", "dpar-opt")
    for lbt in (64, 128, 192)
    for block in (64, 128, 192, 256)
]

TREE_DEGREE = 64
TREE_SHAPES = [(sparsity, kind) for sparsity in (0.5, 1.5)
               for kind in ("descendants", "heights")]
TREE_SWEEP = [(name, TemplateParams(streams_per_block=spb))
              for name in ("flat", "rec-naive", "rec-hier") for spb in (1, 2)]

#: per-run latency limits behind ``slo_ok_frac``
SLO_MS = {"loops": 100.0, "recursion": 100.0, "serve": 50.0}

SERVE_RATE = 20.0          # queries per second, open loop
SERVE_HOT = 6
SERVE_HOT_ROWS = 4_000
SERVE_NEW_EVERY = 25       # 1 in 25 queries is on a never-seen workload
SERVE_NEW_ROWS = 1_000
SERVE_NEW_DEGREE = 10.0
SERVE_STREAM_EVERY = 20    # 1 in 20 queries goes to the stream
SERVE_STREAM_ROWS = 2_000
SERVE_MUTATE_RATE = 2.0    # mutation batches per second
SERVE_EDGES = 16           # pairs deleted and inserted per batch

#: host seconds one op took at baseline (2-core x86 VM).  A run does
#: ``--seconds / NOMINAL_OP_S`` ops: a fixed amount of work per run, so a
#: faster program finishes sooner and peak memory compares like with like
#: (the program's caches fill with every op).
NOMINAL_OP_S = {"loops": 4.0, "recursion": 1.5}


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: counters for the traced run's per-layer metrics
    counters: dict = field(default_factory=dict)
    #: ops the traced phase ran (the per-op normaliser)
    ops: int = 0
    detail: dict = field(default_factory=dict)


# ----------------------------------------------------------------- helpers
def canonical(result) -> str:
    """Bit-exact text of an ExecutionResult: every field but the timeline."""
    data = dataclasses.asdict(result)
    data.pop("records", None)
    return repr(data)


def run_key(run) -> str:
    """Everything a template run returned that the checks pin."""
    return repr((run.template, run.params, canonical(run.result),
                 sorted(run.metrics.as_dict().items())))


def digest(keys) -> str:
    """Short hash of a sequence of result keys."""
    h = hashlib.blake2b(digest_size=12)
    for key in keys:
        h.update(key.encode())
        h.update(b"\0")
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spmv_workload(rows: int, seed: int, mean_degree: float | None = None):
    """A fresh SpMV trace on a CiteSeer-profile graph of ``rows`` rows
    (mean degree 73.9), or on a lognormal graph of ``mean_degree``."""
    if mean_degree is None:
        graph = citeseer_like(scale=(rows + 0.5) / _CITESEER_ROWS, seed=seed)
    else:
        degrees = lognormal_degrees(rows, mean_degree, 20 * int(mean_degree),
                                    seed=seed)
        graph = degree_sequence_graph(degrees, seed=seed + 1, locality=0.6)
    wl = SpMVApp(graph, seed=seed).workload()
    wl.fingerprint()
    return wl


def sparse_workload(rows: int, seed: int) -> NestedLoopWorkload:
    """A streaming-graph shaped trace: many rows, 1-12 pairs each."""
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.5, size=rows).clip(max=12).astype(np.int64)
    nnz = int(trips.sum())
    wl = NestedLoopWorkload(
        name=f"stream-{rows}-{seed}",
        trip_counts=trips,
        streams=[
            AccessStream("col-index", rng.integers(0, 1 << 22, nnz) * 4, "load", 4),
            AccessStream("gather", rng.integers(0, 1 << 22, nnz) * 8, "load", 8),
        ],
        atomic_targets=rng.integers(-1, rows, nnz),
    )
    wl.fingerprint()
    return wl


def edge_batch(rng, wl: NestedLoopWorkload, edges: int) -> MutationBatch:
    """Delete ``edges`` random pairs and insert as many new ones, so the
    pair count (and with it every later batch's index range) holds."""
    rows = wl.outer_size
    inserts = PairInserts(
        outer_ids=rng.integers(0, rows, edges),
        stream_addresses=[rng.integers(0, 1 << 22, edges) * s.element_bytes
                          for s in wl.streams],
        atomic_targets=(rng.integers(-1, rows, edges)
                        if wl.atomic_targets is not None else None),
    )
    return MutationBatch(
        inserts=inserts,
        delete_pairs=rng.choice(wl.n_pairs, size=edges, replace=False),
    )


def tree_workload(tree, kind: str):
    app = TreeDescendantsApp(tree) if kind == "descendants" else TreeHeightsApp(tree)
    wl = app.workload()
    wl.fingerprint()
    return wl


def read_counters() -> dict:
    """The program's own public stats, for deltas over the traced phase."""
    plan = default_cache().stats
    memo = phase_memo_stats()
    return {
        "plan.hits": plan.hits, "plan.misses": plan.misses,
        "memo.hits": memo.get("hits", 0), "memo.misses": memo.get("misses", 0),
        "analysis.incremental_hits": analysis_stats().get("incremental_hits", 0),
    }


def counter_deltas(before: dict, after: dict) -> dict:
    d = {k: after[k] - before[k] for k in before}
    plan = d["plan.hits"] + d["plan.misses"]
    memo = d["memo.hits"] + d["memo.misses"]
    return {
        "plan.cache_hit_frac": d["plan.hits"] / plan if plan else 0.0,
        "plan.phase_memo_hit_frac": d["memo.hits"] / memo if memo else 0.0,
        "analysis.incremental_hits": d["analysis.incremental_hits"],
    }


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# ------------------------------------------------------- loops, recursion
@dataclass
class OpRecord:
    """One op of ``loops`` or ``recursion``."""

    setup_s: float
    op_s: float = 0.0
    auto_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    digest: str = ""
    #: (workload, template, params, key of the auto run)
    autos: list = field(default_factory=list)
    #: (workload, template, params, fast-engine result) sampled for the
    #: exact-engine check
    sample: tuple | None = None
    failed: bool = False


def _sweep(wl, sweep, record: OpRecord, keys: list, rng) -> None:
    """``repro.run(wl)`` then every named point; fills ``record``."""
    auto, elapsed = timed(repro.run, wl)
    record.auto_s.append(elapsed)
    keys.append(run_key(auto))
    record.autos.append((wl, auto.selection.template, auto.selection.params,
                         run_key(auto)))
    runs = []
    for name, params in sweep:
        run, elapsed = timed(repro.run, wl, name, params=params)
        record.run_s.append(elapsed)
        runs.append(run)
    keys.extend(run_key(run) for run in runs)
    pick = runs[int(rng.integers(len(runs)))]
    if record.sample is None or rng.random() < 1.0 / len(record.autos):
        record.sample = (wl, pick.template, pick.params, pick.result)


def _loops_input(seed: int, small: bool = False):
    rng = np.random.default_rng(seed)
    wl = spmv_workload(1_000 if small else LOOPS_ROWS, int(rng.integers(1 << 31)))
    return [(wl, LOOPS_SWEEP)], rng


def _recursion_input(seed: int, small: bool = False):
    rng = np.random.default_rng(seed)
    degree = 16 if small else TREE_DEGREE
    wls = [tree_workload(generate_tree(4, degree, sparsity=s,
                                       seed=int(rng.integers(1 << 31))), kind)
           for s, kind in TREE_SHAPES]
    return [(wl, TREE_SWEEP) for wl in wls], rng


def _op(inp, record: OpRecord) -> list[str]:
    """One op: ``repro.run(wl)`` and the sweep, on every input workload."""
    sweeps, rng = inp
    keys: list[str] = []
    for wl, sweep in sweeps:
        _sweep(wl, sweep, record, keys, rng)
    return keys


#: name -> (input generator, template runs per op)
OP_WORKLOADS = {
    "loops": (_loops_input, 1 + len(LOOPS_SWEEP)),
    "recursion": (_recursion_input, len(TREE_SHAPES) * (1 + len(TREE_SWEEP))),
}


def _check_op(record: OpRecord) -> list[str]:
    """Auto runs equal their selection's named run; the sampled point is
    identical on the exact engine.  Returns mismatch descriptions."""
    problems = []
    for wl, template, params, key in record.autos:
        if run_key(repro.run(wl, template, params=params)) != key:
            problems.append(f"auto != named {template} on {wl.name}")
    wl, template, params, fast = record.sample
    exact = repro.run(wl, template, params=params, engine="exact").result
    if (exact.time_ms != fast.time_ms or exact.counters != fast.counters
            or exact.n_launches != fast.n_launches):
        problems.append(f"exact != fast {template} on {wl.name}")
    return problems


def _install(recorder):
    """Wrap the layer entry points when tracing (None otherwise)."""
    if recorder is None:
        return None
    from spans import install

    return install(recorder)


def run_ops(name: str, seed: int, seconds: float, recorder=None) -> Outcome:
    """The ops of ``loops`` or ``recursion`` (``NOMINAL_OP_S`` sets how many).

    Each op is checked right after it ran, outside its timer and with any
    wrappers removed, so no op keeps its inputs alive for later.
    """
    make_input, runs_per_op = OP_WORKLOADS[name]
    n_ops = max(3, round(seconds / NOMINAL_OP_S[name]))
    seeds = np.random.default_rng(seed).integers(1 << 31, size=n_ops + 1)
    # warm-up on a small input: imports, lazy tables, first-call paths
    warm_start = time.perf_counter()
    warm = make_input(int(seeds[-1]), small=True)
    warm_record = OpRecord(setup_s=0.0)
    _op(warm, warm_record)
    problems = [f"warm-up: {p}" for p in _check_op(warm_record)]
    warm_s = time.perf_counter() - warm_start
    del warm, warm_record

    installed = _install(recorder)
    before = read_counters()
    records: list[OpRecord] = []
    try:
        while len(records) < n_ops:
            inp, setup_s = timed(make_input, int(seeds[len(records)]))
            record = OpRecord(setup_s=setup_s)
            if recorder is None:
                keys, record.op_s = timed(_op, inp, record)
            else:
                recorder.op, recorder.active = len(records), True
                keys, record.op_s = timed(recorder.span, "op", _op, inp, record)
                recorder.active = False
            record.digest = digest(keys)
            found = _check_op(record)
            record.failed = bool(found)
            problems.extend(found)
            record.autos, record.sample = [], None
            del inp
            records.append(record)
    finally:
        if installed is not None:
            installed.remove()
    counters = counter_deltas(before, read_counters())
    rss = peak_rss_mb()

    limit = SLO_MS[name] / 1e3
    run_lat = [s for r in records for s in r.run_s]
    ok = sum(1 for r in records if not r.failed
             for s in r.auto_s + r.run_s if s <= limit)
    attempted_runs = sum(len(r.auto_s) + len(r.run_s) for r in records)
    metrics = {
        "setup_s": median([r.setup_s for r in records]),
        "peak_rss_mb": rss,
        "runs_per_s": runs_per_op / median([r.op_s for r in records]),
        # per-op means first: an op is a fixed mix of templates and input
        # sizes, and a median pooled over it falls between those groups
        "auto_p50_ms": median([np.mean(r.auto_s) for r in records]) * 1e3,
        "lat_p50_ms": median([np.mean(r.run_s) for r in records]) * 1e3,
        "slo_ok_frac": ok / attempted_runs,
    }
    return Outcome(
        metrics=metrics,
        attempted=len(records),
        failed=sum(r.failed for r in records),
        counters=counters,
        ops=len(records),
        detail={
            "ops": len(records),
            "runs_per_op": runs_per_op,
            "op_s": [round(r.op_s, 4) for r in records],
            "warmup_s": round(warm_s, 4),
            "lat_tail": _tail_detail(run_lat),
            "slo_ms": SLO_MS[name],
            "digests": [r.digest for r in records],
            "absent": installed.absent if installed is not None else [],
            "problems": problems,
        },
    )


def _tail_detail(latencies) -> dict:
    """The tail rule over ``latencies`` (seconds), for the detail record."""
    found = tail(latencies)
    if found is None:
        return {"percentile": None, "samples": len(latencies)}
    q, value, beyond = found
    return {"percentile": q, "value_ms": round(value * 1e3, 4),
            "beyond": beyond, "samples": len(latencies)}


# ------------------------------------------------------------------ serve
def run_serve(seed: int, seconds: float, root: Path, recorder=None) -> Outcome:
    """Open-loop serving run; see the module docstring."""
    rng = np.random.default_rng(seed)
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="serve-", dir=tmp_root)
    svc = None
    # wrappers go in before the service is built: it binds execute_batch
    # at construction and fuses batches only through that binding
    installed = _install(recorder)
    try:
        setup_start = time.perf_counter()
        svc = repro.serve(cache_dir=cache_dir)
        # each hot workload is generated, then brought into service by its
        # first (cold) query, one at a time: selection, race and first run
        hot, hot_setup, hot_cold = [], [], []
        for _ in range(SERVE_HOT):
            start = time.perf_counter()
            wl = spmv_workload(SERVE_HOT_ROWS, int(rng.integers(1 << 31)))
            first, cold_s = timed(svc.request, None, wl)
            hot_setup.append(time.perf_counter() - start)
            hot_cold.append(cold_s)
            if not first.ok:
                raise RuntimeError(f"warm-up query failed: {first.reason}")
            hot.append(wl)
        stream_wl = sparse_workload(SERVE_STREAM_ROWS, int(rng.integers(1 << 31)))
        n_queries = int(round(SERVE_RATE * seconds))
        n_mutations = int(round(SERVE_MUTATE_RATE * seconds))
        svc.register_workload("stream", stream_wl, keep_versions=n_mutations + 2)
        svc.request(None, "stream")
        due = poisson_schedule(rng, n_queries, seconds)
        kinds = np.zeros(n_queries, dtype=np.int64)  # 0 hot, 1 new, 2 stream
        picks = rng.permutation(n_queries)
        n_new = n_queries // SERVE_NEW_EVERY
        n_stream = n_queries // SERVE_STREAM_EVERY
        kinds[picks[:n_new]] = 1
        kinds[picks[n_new:n_new + n_stream]] = 2
        hot_pick = rng.integers(SERVE_HOT, size=n_queries)
        fresh = [spmv_workload(SERVE_NEW_ROWS, int(rng.integers(1 << 31)),
                               SERVE_NEW_DEGREE)
                 for _ in range(n_new)]
        # every batch deletes as many pairs as it inserts, so all of them
        # can be drawn against the registered version's pair count
        batches = [edge_batch(rng, stream_wl, SERVE_EDGES)
                   for _ in range(n_mutations)]
        mutate_due = [(k + 0.5) / SERVE_MUTATE_RATE for k in range(n_mutations)]
        # warm-up: a second pass over the hot set reads the disk run tier
        for wl in hot:
            svc.request(None, wl)
        setup_once_s = time.perf_counter() - setup_start

        # newest committed stream version; one thread writes it, one reads
        newest = [stream_wl.version]
        sent = [0.0] * n_queries
        done = [0.0] * n_queries
        targets: list[tuple] = [None] * n_queries
        futures = [None] * n_queries
        mut_done = [0.0] * n_mutations
        mut_errors: list[str] = []

        before = read_counters()
        if recorder is not None:
            recorder.active = True
        t0 = time.perf_counter()

        def sleep_until(t: float) -> None:
            delay = t0 + t - time.perf_counter()
            if delay > 0:
                time.sleep(delay)

        def mutator() -> None:
            for k, batch in enumerate(batches):
                sleep_until(mutate_due[k])
                try:
                    delta = svc.mutate_workload("stream", batch)
                except Exception as exc:  # reported as a failed op
                    mut_errors.append(f"{type(exc).__name__}: {exc}")
                    mut_done[k] = time.perf_counter()
                    continue
                mut_done[k] = time.perf_counter()
                newest[0] = delta.version_to

        def finish(i):
            def callback(_future):
                done[i] = time.perf_counter()
            return callback

        new_iter = iter(fresh)
        mut_thread = threading.Thread(target=mutator, name="perfbench-mutator")
        mut_thread.start()
        try:
            for i in range(n_queries):
                sleep_until(due[i])
                if kinds[i] == 1:
                    wl = next(new_iter)
                    targets[i] = ("new", wl)
                    sent[i] = time.perf_counter()
                    futures[i] = svc.submit(None, wl)
                elif kinds[i] == 2:
                    version = newest[0]
                    targets[i] = ("stream", version)
                    sent[i] = time.perf_counter()
                    futures[i] = svc.submit(None, "stream", version=version)
                else:
                    targets[i] = ("hot", int(hot_pick[i]))
                    sent[i] = time.perf_counter()
                    futures[i] = svc.submit(None, hot[int(hot_pick[i])])
                futures[i].add_done_callback(finish(i))
            responses = [f.result(timeout=120) for f in futures]
        finally:
            mut_thread.join(timeout=120)
        last_done = max(done)
        if recorder is not None:
            recorder.active = False
        counters = counter_deltas(before, read_counters())
        stats = svc.stats()
        rss = peak_rss_mb()
        window_s = last_done - t0
        svc.close()
        svc = None
    finally:
        if svc is not None:
            svc.close()
        if installed is not None:
            installed.remove()
        configure_artifact_cache(None)
        os.environ.pop(ENV_VAR, None)
        shutil.rmtree(cache_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    # ------------------------------------------------ checks (cache off)
    # replay the mutations: version v of the stream is the registered
    # workload after its first v - v0 batches
    versions = [stream_wl]
    for batch in batches:
        versions.append(versions[-1].mutated(batch)[0])
    v0 = stream_wl.version
    snapshots = []
    for kind, what in targets:
        if kind == "stream":
            snapshots.append(versions[what - v0])
        elif kind == "new":
            snapshots.append(what)
        else:
            snapshots.append(hot[what])
    problems = list(mut_errors)
    expected = {}
    for wl in {w.fingerprint(): w for w in snapshots + versions}.values():
        auto = repro.run(wl)
        named = repro.run(wl, auto.selection.template, params=auto.selection.params)
        if run_key(named) != run_key(auto):
            problems.append(f"auto != named on {wl.name}")
        expected[wl.fingerprint()] = (auto.template, auto.time_ms,
                                      auto.metrics.as_dict())
    failed = [False] * n_queries
    for i, response in enumerate(responses):
        if not response.ok:
            failed[i] = True
            problems.append(f"query {i}: {response.status} {response.reason}")
        elif (response.template, response.time_ms, response.metrics) != \
                expected[snapshots[i].fingerprint()]:
            # a pinned query must see exactly its snapshot, never a torn mix
            failed[i] = True
            problems.append(f"query {i}: response differs from repro.run on "
                            f"{snapshots[i].name} v{snapshots[i].version}")
    # every committed stream version, queried or not, enters the digest
    keys = sorted(repr((fp,) + want) for fp, want in expected.items())

    latencies, lateness = open_loop(due, [s - t0 for s in sent],
                                    [d - t0 for d in done])
    mutate_lat = [d - t0 - t for t, d in zip(mutate_due, mut_done)]
    limit = SLO_MS["serve"] / 1e3
    ok_in_time = sum(1 for lat, bad in zip(latencies, failed)
                     if not bad and lat <= limit)
    metrics = {
        "setup_s": median(hot_setup),
        "peak_rss_mb": rss,
        "runs_per_s": (n_queries - sum(failed)) / window_s,
        "auto_p50_ms": median(hot_cold) * 1e3,
        "lat_p50_ms": median(latencies) * 1e3,
        "slo_ok_frac": ok_in_time / n_queries,
    }
    requests = stats["requests"]
    batching = stats["batching"]
    counters.update({
        "service.batches": batching["batches"],
        "service.mean_batch": batching["mean_batch"],
        "service.failed": requests["failed"],
        "service.retries": requests["retries"],
        "gen.late_p99_ms": percentile(lateness, 99.0) * 1e3,
    })
    n_failed = sum(failed) + len(mut_errors)
    return Outcome(
        metrics=metrics,
        attempted=n_queries + n_mutations,
        failed=n_failed,
        counters=counters,
        ops=n_queries,
        detail={
            "queries": n_queries,
            "mutations": n_mutations,
            "window_s": round(window_s, 4),
            "setup_once_s": round(setup_once_s, 4),
            "lat_tail": _tail_detail(latencies),
            "mutate_p50_ms": round(median(mutate_lat) * 1e3, 4),
            "slo_ms": SLO_MS["serve"],
            "late_p99_ms": round(percentile(lateness, 99.0) * 1e3, 4),
            "digests": [digest(keys)],
            "absent": installed.absent if installed is not None else [],
            "problems": problems[:20],
        },
    )
