"""Sparse matrix-vector multiplication (SpMV).

"SpMV calculates the product of a sparse matrix and a dense vector [...]
Since the sparse matrix is represented in Compressed Sparse Row format,
the nested loop within the matrix multiplication algorithm is irregular."
(paper §III.A).  Per nonzero, the kernel streams the column index and the
value, gathers ``x[col]``, and accumulates into a register; the row result
is stored once per row.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppRun, checked_params
from repro.core.params import TemplateParams
from repro.core.registry import resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.cpu.costmodel import XEON_E5_2620, CPUConfig
from repro.cpu.reference import spmv_serial
from repro.errors import GraphError, check_count
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.graphs.csr import CSRGraph

__all__ = ["SpMVApp"]


class SpMVApp:
    """CSR SpMV under any nested-loop parallelization template."""

    name = "spmv"

    def __init__(self, graph: CSRGraph, x: np.ndarray | None = None,
                 seed: int = 0) -> None:
        check_count("seed", seed, 0, error=GraphError)
        self.graph = graph
        if x is None:
            rng = np.random.default_rng(seed)
            x = rng.random(graph.n_nodes)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (graph.n_nodes,):
            raise GraphError("x must have one entry per matrix row")
        self.x = x
        self._values = (
            graph.weights if graph.weights is not None
            else np.ones(graph.n_edges)
        )
        # graph and x are fixed per app instance, so the functional result,
        # the serial reference and the workload trace are all run-invariant
        self._result: np.ndarray | None = None
        self._serial = None
        self._workload: NestedLoopWorkload | None = None

    # ----------------------------------------------------------- functional
    def compute(self) -> np.ndarray:
        """y = A @ x, vectorized (template-invariant result)."""
        if self._result is None:
            y = np.zeros(self.graph.n_nodes)
            rows = np.repeat(
                np.arange(self.graph.n_nodes), self.graph.out_degrees
            )
            np.add.at(y, rows, self._values * self.x[self.graph.col_indices])
            self._result = y
        return self._result

    # ------------------------------------------------------------- workload
    def workload(self) -> NestedLoopWorkload:
        """The Fig. 1(a) trace of the SpMV loop nest (built once)."""
        if self._workload is not None:
            return self._workload
        g = self.graph
        nnz = g.n_edges
        edge_idx = np.arange(nnz, dtype=np.int64)
        # distinct arrays live at distinct (simulated) base addresses
        col_base = 0
        val_base = 4 * nnz + 256
        x_base = val_base + 8 * nnz + 256
        self._workload = NestedLoopWorkload(
            name=f"spmv({g.name})",
            trip_counts=g.out_degrees,
            streams=[
                AccessStream("col-index", col_base + edge_idx * 4, "load", 4),
                AccessStream("value", val_base + edge_idx * 8, "load", 8),
                AccessStream("x-gather", x_base + g.col_indices * 8, "load", 8),
            ],
            inner_insts=6.0,       # fma + index math + loop bookkeeping
            outer_insts=10.0,
            outer_load_bytes=8,    # row_offsets[i], row_offsets[i+1]
            outer_store_bytes=8,   # y[i]
        )
        return self._workload

    # ------------------------------------------------------------------ run
    def run(
        self,
        template: str = "baseline",
        config: DeviceConfig = KEPLER_K20,
        params: TemplateParams | None = None,
        cpu: CPUConfig = XEON_E5_2620,
    ) -> AppRun:
        """Execute SpMV under a template; returns timing + verified result."""
        params = checked_params(config, params)
        tmpl_run = resolve(template, kind="nested-loop").run(self.workload(), config, params)
        if self._serial is None:
            self._serial = spmv_serial(self.graph, self.x)
        serial = self._serial
        return AppRun(
            app=self.name,
            template=template,
            dataset=self.graph.name,
            result=self.compute(),
            gpu_time_ms=tmpl_run.time_ms,
            cpu_time_ms=cpu.time_ms(serial.ops),
            metrics=tmpl_run.metrics,
            meta={"nnz": self.graph.n_edges,
                  "schedule": tmpl_run.schedule},
        )
