"""Serial CPU reference implementations for the graph applications.

These are the baselines the paper's speedups are measured against.  Every
function returns a :class:`SerialRun`: the (numerically exact, vectorized)
result, the serial operation counts of the straightforward CPU loop nest,
and metadata such as iteration/round counts.  Correctness is pinned
against scipy/networkx in the test suite; the op counts feed
:class:`repro.cpu.costmodel.CPUConfig` for baseline timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError, check_count
from repro.cpu.costmodel import OpCounts
from repro.graphs.csr import CSRGraph, concat_ranges

__all__ = [
    "SerialRun",
    "spmv_serial",
    "sssp_serial",
    "pagerank_serial",
    "bc_serial",
    "bfs_serial",
    "bfs_recursive_serial",
    "recursive_bfs_cpu_speedup",
]

INF = np.float64(np.inf)


@dataclass
class SerialRun:
    """Result + serial cost of a reference execution."""

    result: object
    ops: OpCounts
    meta: dict = field(default_factory=dict)


def _check_source(graph: CSRGraph, source: int) -> None:
    """Raise :class:`GraphError` unless ``source`` is an integer node id
    of ``graph``: ``dist[True]`` would write every entry and ``dist[1.5]``
    raise an ``IndexError``.  Every graph app checks its source here."""
    check_count("source", source, 0, error=GraphError)
    if source >= graph.n_nodes:
        raise GraphError(f"source {source} out of range")


# --------------------------------------------------------------------- SpMV
def spmv_serial(graph: CSRGraph, x: np.ndarray) -> SerialRun:
    """y = A @ x over the CSR matrix; the paper's SpMV building block."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (graph.n_nodes,):
        raise GraphError(
            f"x must have shape ({graph.n_nodes},), got {x.shape}"
        )
    values = graph.weights if graph.weights is not None else np.ones(graph.n_edges)
    y = np.zeros(graph.n_nodes)
    np.add.at(y, np.repeat(np.arange(graph.n_nodes), graph.out_degrees),
              values * x[graph.col_indices])
    m, n = graph.n_edges, graph.n_nodes
    ops = OpCounts(
        alu=2.0 * m + 2.0 * n,       # multiply-add per nnz; loop bookkeeping
        seq_loads=2.0 * m + 2.0 * n,  # col index + value; row offsets
        rand_loads=1.0 * m,           # x[col]
        stores=1.0 * n,
        branches=1.0 * m + 1.0 * n,
    )
    return SerialRun(result=y, ops=ops)


# --------------------------------------------------------------------- SSSP
def sssp_serial(graph: CSRGraph, source: int = 0, max_rounds: int | None = None) -> SerialRun:
    """Round-based (Bellman-Ford / Harish-Narayanan style) SSSP.

    Matches the algorithm the GPU code parallelizes: repeat "relax all
    out-edges of nodes improved last round" until fixpoint.  Operation
    counts reflect the serial worklist version of the same algorithm.
    """
    _check_source(graph, source)
    if max_rounds is not None:
        check_count("max_rounds", max_rounds, 1, error=GraphError)
    weights = graph.weights if graph.weights is not None else np.ones(graph.n_edges)
    if np.any(weights < 0):
        raise GraphError("SSSP requires non-negative weights")
    dist = np.full(graph.n_nodes, INF)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    rounds = 0
    edges_relaxed = 0
    limit = max_rounds if max_rounds is not None else graph.n_nodes
    while frontier.size and rounds < limit:
        rounds += 1
        starts = graph.row_offsets[frontier]
        degs = graph.out_degrees[frontier]
        srcs = np.repeat(frontier, degs)
        if srcs.size == 0:
            break
        idx = _edge_slices(starts, degs)
        targets = graph.col_indices[idx]
        cand = dist[srcs] + weights[idx]
        edges_relaxed += idx.size
        # resolve concurrent updates exactly: minimum per target
        order = np.argsort(targets, kind="stable")
        t_sorted = targets[order]
        c_sorted = cand[order]
        boundaries = np.ones(t_sorted.size, dtype=bool)
        boundaries[1:] = t_sorted[1:] != t_sorted[:-1]
        group_min = np.minimum.reduceat(c_sorted, np.flatnonzero(boundaries))
        uniq_targets = t_sorted[boundaries]
        improved = group_min < dist[uniq_targets]
        updated = uniq_targets[improved]
        dist[updated] = group_min[improved]
        frontier = updated
    ops = OpCounts(
        alu=3.0 * edges_relaxed,
        seq_loads=2.0 * edges_relaxed,
        rand_loads=2.0 * edges_relaxed,
        stores=1.0 * edges_relaxed * 0.3 + graph.n_nodes,
        branches=1.0 * edges_relaxed,
    )
    return SerialRun(result=dist, ops=ops,
                     meta={"rounds": rounds, "edges_relaxed": edges_relaxed})


def _edge_slices(starts: np.ndarray, degs: np.ndarray) -> np.ndarray:
    """CSR slice gathering; thin alias of :func:`concat_ranges`."""
    return concat_ranges(starts, degs)


# ----------------------------------------------------------------- PageRank
def pagerank_serial(
    graph: CSRGraph,
    damping: float = 0.85,
    n_iters: int = 20,
    tol: float = 0.0,
) -> SerialRun:
    """Power-iteration PageRank (pull formulation over in-edges).

    The reference GPU implementation's irregular inner loop "collects
    ranks from the neighbors of the considered node", i.e. it pulls over
    in-adjacency; dangling mass is redistributed uniformly.
    """
    if not (0.0 < damping < 1.0):
        raise GraphError("damping must lie in (0, 1)")
    check_count("n_iters", n_iters, 1, error=GraphError)
    n = graph.n_nodes
    out_deg = graph.out_degrees.astype(np.float64)
    dangling = out_deg == 0
    rev = graph.reverse()
    rank = np.full(n, 1.0 / n)
    iters_done = 0
    in_src = rev.col_indices  # for node i, the in-neighbors j
    in_rows = np.repeat(np.arange(n), rev.out_degrees)
    for _ in range(n_iters):
        iters_done += 1
        contrib = np.where(dangling, 0.0, rank / np.maximum(out_deg, 1.0))
        gathered = np.zeros(n)
        np.add.at(gathered, in_rows, contrib[in_src])
        dangling_mass = rank[dangling].sum() / n
        new_rank = (1.0 - damping) / n + damping * (gathered + dangling_mass)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if tol > 0.0 and delta < tol:
            break
    m = graph.n_edges
    per_iter = OpCounts(
        alu=2.0 * m + 4.0 * n,
        seq_loads=1.0 * m + 2.0 * n,
        rand_loads=2.0 * m,
        stores=1.0 * n,
        branches=1.0 * m + 1.0 * n,
    )
    return SerialRun(result=rank, ops=per_iter.scaled(iters_done),
                     meta={"iterations": iters_done})


# ----------------------------------------------------------------------- BC
def bc_serial(
    graph: CSRGraph,
    sources: np.ndarray | None = None,
) -> SerialRun:
    """Brandes betweenness centrality on unweighted graphs.

    Two phases per source, as in the paper's reference [6]: a BFS that
    builds shortest-path counts, then a reverse sweep accumulating
    dependencies.  ``sources`` defaults to all nodes (exact BC); pass a
    subset for the sampled estimate used at benchmark scale.
    """
    n = graph.n_nodes
    if sources is None:
        sources = np.arange(n, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size and (sources.min() < 0 or sources.max() >= n):
            raise GraphError("BC sources out of range")
    bc = np.zeros(n)
    total_edge_work = 0
    rows = np.repeat(np.arange(n), graph.out_degrees)
    for s in sources.tolist():
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        frontiers: list[np.ndarray] = [np.array([s], dtype=np.int64)]
        level = 0
        # forward BFS, level-synchronous
        while frontiers[-1].size:
            fr = frontiers[-1]
            starts = graph.row_offsets[fr]
            degs = graph.out_degrees[fr]
            idx = _edge_slices(starts, degs)
            total_edge_work += idx.size
            if idx.size == 0:
                break
            srcs = np.repeat(fr, degs)
            tgt = graph.col_indices[idx]
            undiscovered = dist[tgt] == -1
            new_nodes = np.unique(tgt[undiscovered])
            dist[new_nodes] = level + 1
            on_sp = dist[tgt] == level + 1
            np.add.at(sigma, tgt[on_sp], sigma[srcs[on_sp]])
            if new_nodes.size == 0:
                break
            frontiers.append(new_nodes)
            level += 1
        # backward dependency accumulation
        delta = np.zeros(n)
        for fr in reversed(frontiers[1:]):
            starts = graph.row_offsets[fr]
            degs = graph.out_degrees[fr]
            idx = _edge_slices(starts, degs)
            total_edge_work += idx.size
            if idx.size == 0:
                continue
            srcs = np.repeat(fr, degs)
            tgt = graph.col_indices[idx]
            on_sp = dist[tgt] == (dist[srcs] + 1)
            contrib = np.zeros(idx.size)
            valid = on_sp & (sigma[tgt] > 0)
            contrib[valid] = (
                sigma[srcs[valid]] / sigma[tgt[valid]] * (1.0 + delta[tgt[valid]])
            )
            np.add.at(delta, srcs, contrib)
        mask = np.ones(n, dtype=bool)
        mask[s] = False
        bc[mask] += delta[mask]
    ops = OpCounts(
        alu=4.0 * total_edge_work,
        seq_loads=2.0 * total_edge_work,
        rand_loads=3.0 * total_edge_work,
        stores=0.5 * total_edge_work,
        branches=2.0 * total_edge_work,
    )
    return SerialRun(result=bc, ops=ops,
                     meta={"n_sources": int(sources.size),
                           "edge_work": total_edge_work})


# ---------------------------------------------------------------------- BFS
def bfs_serial(graph: CSRGraph, source: int = 0) -> SerialRun:
    """Level-synchronous BFS; returns per-node levels (-1 unreachable)."""
    _check_source(graph, source)
    n = graph.n_nodes
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    edges_touched = 0
    while frontier.size:
        starts = graph.row_offsets[frontier]
        degs = graph.out_degrees[frontier]
        idx = _edge_slices(starts, degs)
        edges_touched += idx.size
        if idx.size == 0:
            break
        tgt = graph.col_indices[idx]
        new = np.unique(tgt[level[tgt] == -1])
        if new.size == 0:
            break
        depth += 1
        level[new] = depth
        frontier = new
    ops = OpCounts(
        alu=1.0 * edges_touched + 2.0 * n,
        seq_loads=1.0 * edges_touched + 1.0 * n,
        rand_loads=1.0 * edges_touched,
        stores=1.0 * n,
        branches=1.0 * edges_touched,
    )
    return SerialRun(result=level, ops=ops,
                     meta={"depth": depth, "edges_touched": edges_touched})


def recursive_bfs_cpu_speedup(n_edges: int) -> float:
    """Paper-calibrated speedup of *recursive* over iterative serial BFS.

    Section III.C: "on CPU the recursive implementation outperforms the
    iterative one by a factor varying from 1.25x to 3.3x depending on the
    graph size" (1.6M .. 27M edges).  We interpolate log-linearly in edge
    count within that band and clamp outside it.
    """
    if n_edges <= 0:
        return 1.25
    lo_edges, hi_edges = 1.6e6, 27e6
    lo_speed, hi_speed = 1.25, 3.3
    t = (np.log(n_edges) - np.log(lo_edges)) / (np.log(hi_edges) - np.log(lo_edges))
    return float(np.clip(lo_speed + t * (hi_speed - lo_speed), lo_speed, hi_speed))


def bfs_recursive_serial(
    graph: CSRGraph, source: int = 0, exact_limit: int = 0
) -> SerialRun:
    """The paper's recursive serial BFS baseline.

    By default the baseline cost is the iterative one scaled by the
    paper's *measured* recursive-vs-iterative CPU speedup (1.25-3.3x, see
    :func:`recursive_bfs_cpu_speedup`).  We deliberately do not cost the
    literal depth-first unordered traversal: executed strictly LIFO it
    re-visits nodes combinatorially (hundreds of visits per node on random
    graphs), which contradicts the paper's measurement — their traversal
    order evidently avoids that blow-up, so we calibrate to their number.

    Pass ``exact_limit > 0`` to instead *execute* the unordered traversal
    (explicit stack) on graphs up to that many edges: it verifies the
    fixpoint and exposes the raw visit inflation as a diagnostic.
    """
    _check_source(graph, source)
    iterative = bfs_serial(graph, source)
    if 0 < graph.n_edges <= exact_limit:
        level = np.full(graph.n_nodes, np.iinfo(np.int64).max, dtype=np.int64)
        level[source] = 0
        stack: list[int] = [source]
        visits = 0
        edge_probes = 0
        while stack:
            node = stack.pop()
            visits += 1
            nl = level[node] + 1
            for nbr in graph.neighbors(node).tolist():
                edge_probes += 1
                if nl < level[nbr]:
                    level[nbr] = nl
                    stack.append(nbr)
        level[level == np.iinfo(np.int64).max] = -1
        assert np.array_equal(level, iterative.result), "unordered BFS fixpoint mismatch"
        ops = OpCounts(
            alu=2.0 * edge_probes,
            seq_loads=1.0 * edge_probes,
            rand_loads=1.0 * edge_probes,
            stores=0.5 * edge_probes,
            branches=1.0 * edge_probes,
            calls=1.0 * visits,
        )
        return SerialRun(result=level, ops=ops,
                         meta={"visits": visits, "edge_probes": edge_probes,
                               "exact": True})
    speedup = recursive_bfs_cpu_speedup(graph.n_edges)
    ops = iterative.ops.scaled(1.0 / speedup)
    return SerialRun(result=iterative.result, ops=ops,
                     meta={"exact": False, "modeled_speedup": speedup})

