"""Single-source shortest path (SSSP), Harish-Narayanan style.

The baseline GPU implementation ([5] in the paper) is level-synchronous
Bellman-Ford over CSR: every round launches a kernel over *all* nodes; a
mask marks the nodes improved last round, and only those relax their
out-edges (inner loop of length ``f(i)``, 0 for unmasked nodes).  Each
relaxation gathers ``dist[target]`` and issues an atomicMin when it
improves — the scattered stores and atomics behind the Table I numbers.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppRun, combine_rounds
from repro.core.params import TemplateParams
from repro.core.registry import resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.cpu.costmodel import XEON_E5_2620, CPUConfig
from repro.cpu.reference import _check_source, sssp_serial
from repro.errors import GraphError, check_count
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.backends import backend_for
from repro.graphs.csr import CSRGraph, concat_ranges

__all__ = ["SSSPApp"]

INF = np.float64(np.inf)


class SSSPApp:
    """SSSP under any nested-loop parallelization template."""

    name = "sssp"

    def __init__(self, graph: CSRGraph, source: int = 0,
                 max_rounds: int | None = None) -> None:
        _check_source(graph, source)
        if max_rounds is not None:
            check_count("max_rounds", max_rounds, 1, error=GraphError)
        self.graph = graph
        self.source = source
        self.max_rounds = max_rounds
        self.weights = (
            graph.weights if graph.weights is not None
            else np.ones(graph.n_edges)
        )
        if np.any(self.weights < 0):
            raise GraphError("SSSP requires non-negative weights")

    # ------------------------------------------------------------ functional
    def _rounds(self):
        """Generate (mask, dist-before, improvements) per relaxation round.

        The functional fixpoint is identical for every template (atomicMin
        is order-independent); the mask sequence drives both the result
        and the per-round workload traces.
        """
        g = self.graph
        dist = np.full(g.n_nodes, INF)
        dist[self.source] = 0.0
        frontier = np.array([self.source], dtype=np.int64)
        limit = self.max_rounds if self.max_rounds is not None else g.n_nodes
        rounds = 0
        while frontier.size and rounds < limit:
            rounds += 1
            degs = g.out_degrees[frontier]
            edge_idx = concat_ranges(g.row_offsets[frontier], degs)
            srcs = np.repeat(frontier, degs)
            targets = g.col_indices[edge_idx]
            cand = dist[srcs] + self.weights[edge_idx]
            improving = cand < dist[targets]
            yield frontier, edge_idx, targets, improving, dist
            if not np.any(improving):
                break
            order = np.argsort(targets[improving], kind="stable")
            t_sorted = targets[improving][order]
            c_sorted = cand[improving][order]
            first = np.ones(t_sorted.size, dtype=bool)
            first[1:] = t_sorted[1:] != t_sorted[:-1]
            group_min = np.minimum.reduceat(c_sorted, np.flatnonzero(first))
            uniq = t_sorted[first]
            better = group_min < dist[uniq]
            dist[uniq[better]] = group_min[better]
            frontier = uniq[better]

    def compute(self) -> np.ndarray:
        """Distances at fixpoint (template-invariant).

        atomicMin relaxation converges to the same fixpoint regardless of
        schedule, so the serial reference *is* the functional result of
        every template (tests pin this against scipy's Dijkstra).
        """
        return sssp_serial(self.graph, self.source, self.max_rounds).result

    # --------------------------------------------------------------- workload
    def round_workload(self, frontier: np.ndarray, edge_idx: np.ndarray,
                       targets: np.ndarray, improving: np.ndarray) -> NestedLoopWorkload:
        """The Fig. 1(a) trace of one relaxation round.

        The outer loop covers all nodes ([5] is topology-driven); unmasked
        nodes contribute zero inner iterations but still occupy a thread.
        """
        g = self.graph
        trips = np.zeros(g.n_nodes, dtype=np.int64)
        trips[frontier] = g.out_degrees[frontier]
        n_pairs = edge_idx.size
        col_base = 0
        w_base = 4 * g.n_edges + 256
        d_base = w_base + 8 * g.n_edges + 256
        atomic = np.where(improving, targets, -1)
        return NestedLoopWorkload(
            name=f"sssp-round({g.name})",
            trip_counts=trips,
            streams=[
                AccessStream("col-index", col_base + edge_idx * 4, "load", 4),
                AccessStream("weight", w_base + edge_idx * 8, "load", 8),
                AccessStream("dist-gather", d_base + targets * 8, "load", 8),
                AccessStream("dist-update", d_base + targets * 8, "store", 8,
                             staged_in_shared=True),
            ],
            atomic_targets=atomic,
            inner_insts=7.0,
            outer_insts=8.0,
            outer_load_bytes=12,  # offsets + mask + own distance
        )

    # -------------------------------------------------------------------- run
    def run(
        self,
        template: str = "baseline",
        config: DeviceConfig = KEPLER_K20,
        params: TemplateParams | None = None,
        cpu: CPUConfig = XEON_E5_2620,
    ) -> AppRun:
        """Execute all relaxation rounds under one template."""
        params = params or TemplateParams()
        tmpl = resolve(template, kind="nested-loop")
        executor = backend_for(config)
        runs = []
        for frontier, edge_idx, targets, improving, _ in self._rounds():
            wl = self.round_workload(frontier, edge_idx, targets, improving)
            runs.append(tmpl.run(wl, config, params, executor))
        total_ms, metrics = combine_rounds(runs)
        serial = sssp_serial(self.graph, self.source, self.max_rounds)
        return AppRun(
            app=self.name,
            template=template,
            dataset=self.graph.name,
            result=serial.result,
            gpu_time_ms=total_ms,
            cpu_time_ms=cpu.time_ms(serial.ops),
            metrics=metrics,
            meta={"rounds": len(runs),
                  "device_kernel_calls": metrics.device_kernel_calls},
        )
