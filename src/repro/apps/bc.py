"""Betweenness centrality (Brandes, two phases).

"Our parallel implementation is based on [6] and operates in two phases.
First, it constructs the shortest paths tree using BFS (we consider
unweighted graphs); second, it computes the BC value by traversing the
shortest path tree.  Both phases present irregular nested loops and
scattered memory accesses." (paper §III.A).

Each phase is level-synchronous: one kernel per BFS level per source, an
outer loop over all nodes with a level mask.  Exact BC sums over all
sources; ``n_sources`` samples them for benchmark-scale runs (speedups
stay ratios over the same source set).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppRun, checked_params, combine_rounds
from repro.core.params import TemplateParams
from repro.core.registry import resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.cpu.costmodel import XEON_E5_2620, CPUConfig
from repro.cpu.reference import bc_serial
from repro.errors import GraphError, check_count
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.graphs.csr import CSRGraph, concat_ranges

__all__ = ["BCApp"]


class BCApp:
    """Betweenness centrality under any nested-loop template."""

    name = "bc"

    def __init__(self, graph: CSRGraph, n_sources: int | None = 8,
                 seed: int = 0) -> None:
        check_count("seed", seed, 0, error=GraphError)
        self.graph = graph
        if n_sources is None:
            self.sources = np.arange(graph.n_nodes, dtype=np.int64)
        else:
            check_count("n_sources", n_sources, 1, error=GraphError)
            rng = np.random.default_rng(seed)
            n_sources = min(n_sources, graph.n_nodes)
            self.sources = rng.choice(graph.n_nodes, size=n_sources,
                                      replace=False).astype(np.int64)

    # ----------------------------------------------------------- functional
    def compute(self) -> np.ndarray:
        """BC scores over the configured sources (template-invariant)."""
        return bc_serial(self.graph, self.sources).result

    # -------------------------------------------------------------- phases
    def _source_levels(self, source: int):
        """Yield per-level frontiers of one source's BFS (forward order)."""
        g = self.graph
        dist = np.full(g.n_nodes, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            yield frontier
            degs = g.out_degrees[frontier]
            idx = concat_ranges(g.row_offsets[frontier], degs)
            if idx.size == 0:
                return
            tgt = g.col_indices[idx]
            new = np.unique(tgt[dist[tgt] == -1])
            if new.size == 0:
                return
            dist[new] = dist[frontier[0]] + 1
            frontier = new

    def _phase_workload(self, frontier: np.ndarray, phase: str) -> NestedLoopWorkload:
        """One level's trace: masked outer loop over all nodes."""
        g = self.graph
        trips = np.zeros(g.n_nodes, dtype=np.int64)
        trips[frontier] = g.out_degrees[frontier]
        degs = g.out_degrees[frontier]
        edge_idx = concat_ranges(g.row_offsets[frontier], degs)
        targets = g.col_indices[edge_idx]
        col_base = 0
        sigma_base = 4 * g.n_edges + 256
        delta_base = sigma_base + 8 * g.n_nodes + 256
        streams = [
            AccessStream("col-index", col_base + edge_idx * 4, "load", 4),
            AccessStream("sigma-gather", sigma_base + targets * 8, "load", 8),
        ]
        atomic = targets.copy()
        if phase == "backward":
            streams.append(
                AccessStream("delta-gather", delta_base + targets * 8,
                             "load", 8)
            )
        return NestedLoopWorkload(
            name=f"bc-{phase}({g.name})",
            trip_counts=trips,
            streams=streams,
            atomic_targets=atomic,
            inner_insts=8.0 if phase == "backward" else 6.0,
            outer_insts=8.0,
            outer_load_bytes=12,
        )

    # ------------------------------------------------------------------ run
    def run(
        self,
        template: str = "baseline",
        config: DeviceConfig = KEPLER_K20,
        params: TemplateParams | None = None,
        cpu: CPUConfig = XEON_E5_2620,
    ) -> AppRun:
        """Both phases over all configured sources under one template."""
        params = checked_params(config, params)
        tmpl = resolve(template, kind="nested-loop")
        runs = []
        for source in self.sources.tolist():
            levels = list(self._source_levels(source))
            for frontier in levels:                     # forward BFS
                runs.append(tmpl.run(
                    self._phase_workload(frontier, "forward"),
                    config, params,
                ))
            for frontier in reversed(levels[1:]):       # dependency sweep
                runs.append(tmpl.run(
                    self._phase_workload(frontier, "backward"),
                    config, params,
                ))
        total_ms, metrics = combine_rounds(runs)
        serial = bc_serial(self.graph, self.sources)
        return AppRun(
            app=self.name,
            template=template,
            dataset=self.graph.name,
            result=serial.result,
            gpu_time_ms=total_ms,
            cpu_time_ms=cpu.time_ms(serial.ops),
            metrics=metrics,
            meta={"n_sources": int(self.sources.size),
                  "kernels": len(runs)},
        )
