"""Figure 4: SpMV speedup vs block-mapped block size, per lbTHRES.

Paper: SpMV on CiteSeer; block sizes on the x-axis for the block-mapped
code portions, one chart per lbTHRES in {64, 128, 192}.  Expected shape:
performance is largely insensitive to block size but driven by lbTHRES;
small blocks do better at small lbTHRES (blocks larger than lbTHRES waste
threads on iterations of size ~lbTHRES).

The whole sweep — the baseline plus every (lbTHRES, block size, template)
cell — is one :func:`~repro.core.base.run_many` call over one workload, so
its run-cache misses execute as one fused executor pass.
"""

from __future__ import annotations

from repro.apps.spmv import SpMVApp
from repro.bench.registry import ExperimentConfig, register
from repro.bench.table import ResultTable
from repro.bench.experiments.common import FIG6_TEMPLATES, citeseer_for, params_for
from repro.core.base import run_many
from repro.core.registry import resolve

LB_SETTINGS = (64, 128, 192)
BLOCK_SIZES = (64, 128, 192, 256)


@register(
    id="fig4",
    title="SpMV speedup vs block size under different lbTHRES",
    paper_ref="Figure 4 (a-c)",
    description="Block-size sensitivity of the load-balancing templates.",
)
def run(config: ExperimentConfig) -> list[ResultTable]:
    """Regenerate this artifact's result tables (see module docstring)."""
    workload = SpMVApp(citeseer_for(config), seed=config.seed).workload()
    items = [(resolve("baseline", kind="nested-loop"), workload)] + [
        (resolve(tmpl, kind="nested-loop"), workload,
         params_for(lbt, lb_block=block))
        for lbt in LB_SETTINGS for block in BLOCK_SIZES
        for tmpl in FIG6_TEMPLATES
    ]
    times = iter([r.time_ms for r in run_many(items, config.device)])
    base = next(times)
    tables = []
    for lbt in LB_SETTINGS:
        table = ResultTable(
            title=f"fig4: SpMV speedup over baseline (lbTHRES={lbt})",
            columns=["block size"] + list(FIG6_TEMPLATES),
        )
        for block in BLOCK_SIZES:
            table.add_row(block, *(base / next(times) for _ in FIG6_TEMPLATES))
        table.add_note(
            "paper shape: performance insensitive to block size, dominated "
            "by lbTHRES; dpar-naive omitted (significantly slower)"
        )
        tables.append(table)
    return tables
