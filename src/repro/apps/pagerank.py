"""PageRank (pull formulation).

"Each iteration of the outer loop processes a different webpage (node in
a graph); the inner loop collects ranks from the neighbors of the
considered node" (paper §III.A, after [7]).  Collecting from neighbors
means pulling over in-edges, so the irregular trip counts are the
*in*-degrees.  Every power iteration has an identical trace, so the
template graph is built once and executed once per iteration.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppRun, combine_rounds
from repro.core.params import TemplateParams
from repro.core.registry import resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.cpu.costmodel import XEON_E5_2620, CPUConfig
from repro.cpu.reference import pagerank_serial
from repro.errors import GraphError, check_count
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.backends import backend_for

__all__ = ["PageRankApp"]


class PageRankApp:
    """PageRank under any nested-loop parallelization template."""

    name = "pagerank"

    def __init__(self, graph, damping: float = 0.85, n_iters: int = 20) -> None:
        if not (0.0 < damping < 1.0):
            raise GraphError("damping must lie in (0, 1)")
        check_count("n_iters", n_iters, 1, error=GraphError)
        self.graph = graph
        self.damping = damping
        self.n_iters = n_iters
        self._reverse = graph.reverse()

    # ----------------------------------------------------------- functional
    def compute(self) -> np.ndarray:
        """Ranks after ``n_iters`` power iterations (template-invariant)."""
        return pagerank_serial(self.graph, self.damping, self.n_iters).result

    # ------------------------------------------------------------- workload
    def workload(self) -> NestedLoopWorkload:
        """One power iteration's trace: pull ranks over in-edges."""
        rev = self._reverse
        m = rev.n_edges
        edge_idx = np.arange(m, dtype=np.int64)
        col_base = 0
        r_base = 4 * m + 256
        deg_base = r_base + 8 * rev.n_nodes + 256
        return NestedLoopWorkload(
            name=f"pagerank({self.graph.name})",
            trip_counts=rev.out_degrees,  # = in-degrees of the graph
            streams=[
                AccessStream("in-neighbor", col_base + edge_idx * 4, "load", 4),
                AccessStream("rank-gather", r_base + rev.col_indices * 8,
                             "load", 8),
                AccessStream("outdeg-gather", deg_base + rev.col_indices * 4,
                             "load", 4),
            ],
            inner_insts=6.0,
            outer_insts=12.0,
            outer_load_bytes=8,
            outer_store_bytes=8,   # new rank
        )

    # ------------------------------------------------------------------ run
    def run(
        self,
        template: str = "baseline",
        config: DeviceConfig = KEPLER_K20,
        params: TemplateParams | None = None,
        cpu: CPUConfig = XEON_E5_2620,
    ) -> AppRun:
        """Execute ``n_iters`` identical iterations under one template."""
        params = params or TemplateParams()
        tmpl = resolve(template, kind="nested-loop")
        executor = backend_for(config)
        one = tmpl.run(self.workload(), config, params, executor)
        # iterations are identical and serialized on the default stream
        runs = [one] * self.n_iters
        total_ms, metrics = combine_rounds(runs)
        serial = pagerank_serial(self.graph, self.damping, self.n_iters)
        return AppRun(
            app=self.name,
            template=template,
            dataset=self.graph.name,
            result=serial.result,
            gpu_time_ms=total_ms,
            cpu_time_ms=cpu.time_ms(serial.ops),
            metrics=metrics,
            meta={"iterations": self.n_iters},
        )
