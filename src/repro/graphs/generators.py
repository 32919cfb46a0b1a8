"""Synthetic graph generators matching the paper's datasets.

The paper's graph inputs are CiteSeer (DIMACS implementation challenge) and
Wikipedia's who-votes-on-whom network (SNAP), neither of which can be
downloaded offline.  What the experiments actually depend on is the
*out-degree irregularity* — the paper quotes exactly these statistics:

* CiteSeer: ~434k nodes, ~16M edges, out-degree 1..1,188, mean 73.9;
* Wiki-Vote: ~7k nodes, ~100k edges, out-degree 0..893, mean 14.6;
* recursive-BFS graphs: 50,000 nodes, out-degree uniform in a range.

The generators below reproduce those degree profiles (power-law tails with
matching min/max/mean) at a configurable scale.  Default scales are chosen
so a full benchmark run stays laptop-sized; pass ``scale=1.0`` for the
paper's full sizes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.graphs.csr import CSRGraph

__all__ = [
    "power_law_degrees",
    "lognormal_degrees",
    "degree_sequence_graph",
    "citeseer_like",
    "wiki_vote_like",
    "uniform_random_graph",
    "rmat_graph",
]


def power_law_degrees(
    n_nodes: int,
    mean_degree: float,
    max_degree: int,
    min_degree: int = 0,
    exponent: float = 2.0,
    seed: int = 0,
) -> np.ndarray:
    """Draw a power-law out-degree sequence with a pinned mean.

    Degrees follow a truncated Pareto tail; the sequence is rescaled
    iteratively so its mean matches ``mean_degree`` while respecting the
    ``[min_degree, max_degree]`` bounds (mirroring how real citation /
    voting networks combine a huge hub range with a modest mean).
    """
    if n_nodes <= 0:
        raise DatasetError("n_nodes must be positive")
    if not (0 <= min_degree <= max_degree):
        raise DatasetError("need 0 <= min_degree <= max_degree")
    if not (min_degree <= mean_degree <= max_degree):
        raise DatasetError("mean_degree must lie within the degree bounds")
    rng = np.random.default_rng(seed)
    raw = (rng.pareto(exponent - 1.0, size=n_nodes) + 1.0)
    degrees = raw.copy()
    # Fixed-point rescale: clipping changes the mean, so iterate.
    scale = mean_degree / degrees.mean()
    for _ in range(60):
        clipped = np.clip(raw * scale, min_degree, max_degree)
        current = clipped.mean()
        if abs(current - mean_degree) < 1e-3:
            break
        scale *= mean_degree / max(current, 1e-12)
    degrees = np.clip(np.round(raw * scale), min_degree, max_degree).astype(np.int64)
    # Degrees can't exceed the number of possible distinct targets.
    return np.minimum(degrees, n_nodes - 1)


def lognormal_degrees(
    n_nodes: int,
    mean_degree: float,
    max_degree: int,
    min_degree: int = 1,
    sigma: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Draw a lognormal out-degree sequence with a pinned mean.

    Citation networks have a wide lognormal body (many low-degree papers,
    a fat middle, rare kilo-degree hubs).  The sequence is rescaled
    iteratively so the *clipped* mean matches ``mean_degree``.
    """
    if n_nodes <= 0:
        raise DatasetError("n_nodes must be positive")
    if not (0 <= min_degree <= max_degree):
        raise DatasetError("need 0 <= min_degree <= max_degree")
    if not (min_degree <= mean_degree <= max_degree):
        raise DatasetError("mean_degree must lie within the degree bounds")
    if sigma <= 0:
        raise DatasetError("sigma must be positive")
    rng = np.random.default_rng(seed)
    raw = rng.lognormal(mean=0.0, sigma=sigma, size=n_nodes)
    scale = mean_degree / raw.mean()
    degrees = np.clip(np.round(raw * scale), min_degree, max_degree)
    for _ in range(60):
        current = degrees.mean()
        if abs(current - mean_degree) < 1e-2:
            break
        scale *= mean_degree / max(current, 1e-12)
        degrees = np.clip(np.round(raw * scale), min_degree, max_degree)
    return np.minimum(degrees.astype(np.int64), n_nodes - 1)


def degree_sequence_graph(
    degrees: np.ndarray,
    seed: int = 0,
    name: str = "synthetic",
    locality: float = 0.0,
) -> CSRGraph:
    """Wire a directed graph with the given out-degree sequence.

    Targets are drawn with preferential attachment-ish skew (targets
    proportional to their own degree + 1), so in-degrees are also heavy
    tailed, as in real networks.  ``locality`` is the fraction of edges
    whose target is drawn *near* the source id — real citation/voting
    datasets exhibit strong id locality, which is what lets block-mapped
    adjacency gathers coalesce (the paper's high gld efficiencies).
    Rows are stored with sorted targets, as canonical CSR datasets are.
    Self-loops are avoided; rare duplicate edges are kept (they exist in
    the multigraph view of these datasets and do not affect any of the
    algorithms' semantics).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if n == 0:
        raise DatasetError("empty degree sequence")
    if np.any(degrees < 0):
        raise DatasetError("degrees cannot be negative")
    if np.any(degrees > n - 1) and n > 1:
        raise DatasetError("a node's out-degree cannot exceed n_nodes - 1")
    if not (0.0 <= locality <= 1.0):
        raise DatasetError("locality must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    nnz = int(degrees.sum())
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    weight = (degrees + 1).astype(np.float64)
    prob = weight / weight.sum()
    targets = rng.choice(n, size=nnz, p=prob)
    if locality > 0.0 and nnz:
        local = rng.random(nnz) < locality
        spread = max(2.0, n * 0.002)
        offsets_local = np.round(rng.laplace(0.0, spread, size=nnz)).astype(np.int64)
        near = np.clip(sources + offsets_local, 0, n - 1)
        targets = np.where(local, near, targets)
    # repair self loops by shifting to the next node
    loops = targets == sources
    targets[loops] = (targets[loops] + 1) % n
    # canonical CSR: targets sorted within each row.  ``sources`` is
    # already non-decreasing (a repeat of arange), so the row-wise sort is
    # a single value sort of packed (source, target) keys — same result as
    # ``np.lexsort((targets, sources))`` at a third of the cost.
    targets = np.sort(sources * np.int64(n) + targets) - sources * np.int64(n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return CSRGraph(offsets, targets, name=name)


def citeseer_like(
    scale: float = 0.15,
    seed: int = 0,
    weighted: bool = True,
) -> CSRGraph:
    """A CiteSeer-profile network (heavy-tailed citation graph).

    ``scale=1.0`` reproduces the paper's full size (~434k nodes, the
    quoted mean out-degree of 73.9, max degree 1,188); the default
    ``scale=0.15`` gives ~65k nodes / ~4.8M edges with the same degree
    *shape*, which keeps simulator runs laptop-sized (see DESIGN.md §2
    for the substitution note).
    """
    if not (0 < scale <= 1.0):
        raise DatasetError("scale must be in (0, 1]")
    n = max(1000, int(434_000 * scale))
    degrees = lognormal_degrees(
        n_nodes=n,
        mean_degree=73.9,
        max_degree=1188,
        min_degree=1,
        sigma=1.0,
        seed=seed,
    )
    graph = degree_sequence_graph(degrees, seed=seed + 1,
                                  name="citeseer-like", locality=0.6)
    if weighted:
        rng = np.random.default_rng(seed + 2)
        graph.weights = rng.integers(1, 11, size=graph.n_edges).astype(np.float64)
    return graph


def wiki_vote_like(seed: int = 0) -> CSRGraph:
    """A Wiki-Vote-profile network (small-world voting graph).

    Matches the paper's quoted statistics: ~7k nodes, ~100k edges,
    out-degree 0..893 with mean ~14.6.  Small enough that no scaling is
    needed.
    """
    n = 7_115
    degrees = power_law_degrees(
        n_nodes=n,
        mean_degree=14.6,
        max_degree=893,
        min_degree=0,
        exponent=1.9,
        seed=seed,
    )
    return degree_sequence_graph(degrees, seed=seed + 1,
                                 name="wiki-vote-like", locality=0.3)


def uniform_random_graph(
    n_nodes: int = 50_000,
    degree_range: tuple[int, int] = (16, 48),
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """The paper's recursive-BFS input: uniform out-degrees in a range.

    "randomly generated graphs consisting of 50,000 nodes [whose] node
    outdegree is uniformly distributed within a variable range".
    """
    lo, hi = degree_range
    if n_nodes <= 1:
        raise DatasetError("n_nodes must be > 1")
    if not (0 <= lo <= hi):
        raise DatasetError("invalid degree range")
    if hi > n_nodes - 1:
        raise DatasetError("max degree cannot exceed n_nodes - 1")
    rng = np.random.default_rng(seed)
    degrees = rng.integers(lo, hi + 1, size=n_nodes)
    nnz = int(degrees.sum())
    sources = np.repeat(np.arange(n_nodes, dtype=np.int64), degrees)
    targets = rng.integers(0, n_nodes, size=nnz)
    loops = targets == sources
    targets[loops] = (targets[loops] + 1) % n_nodes
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return CSRGraph(
        offsets, targets,
        name=name or f"uniform-{lo}-{hi}",
    )


def rmat_graph(
    scale: int = 14,
    edge_factor: int = 16,
    probabilities: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Recursive-matrix (R-MAT / Graph500-style) generator.

    Produces ``2**scale`` nodes and ``edge_factor * 2**scale`` directed
    edges by recursively descending the adjacency matrix quadrants with
    probabilities ``(a, b, c, d)``.  R-MAT graphs combine a power-law
    degree profile with community structure — a common stress input for
    the load-balancing templates beyond the paper's datasets.
    """
    if scale < 1 or scale > 26:
        raise DatasetError("scale must be in [1, 26]")
    if edge_factor < 1:
        raise DatasetError("edge_factor must be >= 1")
    a, b, c, d = probabilities
    if min(a, b, c, d) < 0 or abs(a + b + c + d - 1.0) > 1e-9:
        raise DatasetError("quadrant probabilities must be >= 0 and sum to 1")
    n = 1 << scale
    nnz = edge_factor * n
    rng = np.random.default_rng(seed)
    src = np.zeros(nnz, dtype=np.int64)
    dst = np.zeros(nnz, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(nnz)
        # quadrant choice per edge per bit level
        go_right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        go_down = r >= a + b
        src |= go_down.astype(np.int64) << bit
        dst |= go_right.astype(np.int64) << bit
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % n
    return CSRGraph.from_edges(
        n, src, dst, name=name or f"rmat-{scale}-{edge_factor}"
    )
