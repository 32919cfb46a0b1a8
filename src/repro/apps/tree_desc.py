"""Tree Descendants application (paper Fig. 3, Figs. 7).

Counts, for every node, the nodes in its subtree (itself included — the
paper initializes the descendants array to all 1s).  Runs under the three
recursive parallelization templates and reports speedup over the better
of the two serial CPU variants, as the paper's Fig. 7 does.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppRun, checked_params
from repro.core.params import TemplateParams
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.registry import resolve
from repro.cpu.costmodel import XEON_E5_2620, CPUConfig
from repro.cpu.trees import best_serial_descendants
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.trees.metrics import subtree_sizes
from repro.trees.structure import Tree

__all__ = ["TreeDescendantsApp"]


class TreeDescendantsApp:
    """Tree descendants under flat / rec-naive / rec-hier templates."""

    name = "tree-descendants"
    kind = "descendants"

    def __init__(self, tree: Tree) -> None:
        self.tree = tree

    def compute(self) -> np.ndarray:
        """Descendant counts (template-invariant)."""
        return subtree_sizes(self.tree)

    def workload(self) -> RecursiveTreeWorkload:
        """The recursive workload descriptor."""
        return RecursiveTreeWorkload(self.tree, self.kind)

    def cpu_baseline(self, cpu: CPUConfig = XEON_E5_2620) -> float:
        """Serial time of the better CPU variant (ms)."""
        return cpu.time_ms(best_serial_descendants(self.tree).ops)

    def run(
        self,
        template: str = "rec-hier",
        config: DeviceConfig = KEPLER_K20,
        params: TemplateParams | None = None,
        cpu: CPUConfig = XEON_E5_2620,
    ) -> AppRun:
        """Execute under one recursive template."""
        params = checked_params(config, params)
        tmpl_run = resolve(template, kind="tree").run(
            self.workload(), config, params
        )
        return AppRun(
            app=self.name,
            template=template,
            dataset=self.tree.name,
            result=self.compute(),
            gpu_time_ms=tmpl_run.time_ms,
            cpu_time_ms=self.cpu_baseline(cpu),
            metrics=tmpl_run.metrics,
            meta={"n_nodes": self.tree.n_nodes, "depth": self.tree.depth},
        )
