"""IR construction: derive the loop structure from a workload.

:func:`from_workload` is the front of the pass pipeline — it turns a
:class:`~repro.core.workload.NestedLoopWorkload` or
:class:`~repro.core.recursive.RecursiveTreeWorkload` into the nested
seq/par :class:`~repro.ir.nodes.LoopNode` structure the passes transform,
using the cached per-fingerprint analyses (the same
:class:`~repro.core.analysis.WorkloadAnalysis` /
:class:`~repro.core.analysis.TreeAnalysis` artifacts the templates
specialize against), so building IR for a workload that was ever run is
pure arithmetic on precomputed facts.

The two canonical shapes:

* **nested loop** (Fig. 1(a)) — ``par outer`` over the outer iterations
  wrapping ``par inner``, whose :class:`~repro.ir.nodes.TripInfo` carries
  the trace-exact trip statistics (count = outer size, total = pair
  count, lo/hi = min/max f(i)).
* **recursive tree** (Fig. 3) — ``seq recursion`` over the tree levels
  (the only true ordering in the computation) wrapping ``par nodes``
  (one instance per level, lo/hi = level widths), wrapping ``par
  children`` (one instance per internal node — rec-naive's launch unit)
  wrapping ``par grandchildren`` (one instance per launch owner —
  rec-hier's launch unit).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.analysis import get_analysis, get_tree_analysis
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.registry import workload_kind as ir_kind_of
from repro.core.workload import NestedLoopWorkload
from repro.ir.nodes import LoopNode, TripInfo, par, seq
from repro.ir.validate import validate

__all__ = ["from_workload", "ir_kind_of"]


def _build_nested(workload: NestedLoopWorkload) -> LoopNode:
    count, total, lo, hi = get_analysis(workload).trip_summary()
    inner = par("inner", TripInfo(count=count, total=total, lo=lo, hi=hi))
    return par(
        "outer",
        TripInfo(count=1, total=count, lo=count, hi=count),
        children=(inner,),
    )


def _build_tree(workload: RecursiveTreeWorkload) -> LoopNode:
    tree = workload.tree
    facts = get_tree_analysis(workload).structure_summary()
    widths = np.diff(tree.level_offsets)
    depth = tree.depth

    grandchildren = par(
        "grandchildren",
        TripInfo(
            count=facts["n_launch_owners"],
            total=facts["grandchildren_total"],
            lo=facts["grandchildren_lo"],
            hi=facts["grandchildren_hi"],
        ),
    )
    children = par(
        "children",
        TripInfo(
            count=facts["n_internal"],
            total=facts["children_total"],
            lo=facts["children_lo"],
            hi=facts["children_hi"],
        ),
        # a launch owner without children (a 1-node tree's root) is an
        # empty grandchild loop; attach only when the edge is consistent
        children=(grandchildren,) if facts["n_internal"] else (),
    )
    nodes = par(
        "nodes",
        TripInfo(
            count=depth,
            total=facts["n_nodes"],
            lo=int(widths.min()),
            hi=int(widths.max()),
        ),
        children=(children,) if facts["n_internal"] else (),
    )
    return seq(
        "recursion",
        TripInfo(count=1, total=depth, lo=depth, hi=depth),
        children=(nodes,),
    )


def from_workload(workload) -> LoopNode:
    """Build (and validate) the parallelization IR of a workload.

    Deterministic per workload fingerprint: two workloads with identical
    traces produce IR with identical :meth:`~repro.ir.nodes.LoopNode.key`
    values — the property that lets the IR feed selection cache keys.
    """
    kind = ir_kind_of(workload)
    with obs.span("ir.build", kind=kind,
                  workload=getattr(workload, "name", "?")):
        if kind == "nested-loop":
            ir = _build_nested(workload)
        else:
            ir = _build_tree(workload)
        return validate(ir)
