"""Auto-select lowering: transformed IR -> registry template + params.

The back of the pass pipeline.  :func:`auto_select` builds the IR of a
workload, runs the transform passes, and lowers the final mappings onto
the canonical registry templates:

==========================  ===========================================
final IR shape              lowering
==========================  ===========================================
inner loop ``thread``       ``thread-mapped`` (every instance small)
inner loop ``block``        ``block-mapped`` (uniform/consolidated)
split, large side ``block``  race ``dual-queue`` / ``dbuf-global`` /
                            ``dbuf-shared`` over the threshold ladder
split or whole ``launch``   race ``dpar-opt`` / ``dpar-naive`` over the
                            threshold ladder
tree children ``thread``    ``flat`` (recursion eliminated)
tree children ``launch``    race ``rec-naive`` vs ``flat``
tree children ``block``     race ``rec-hier`` vs ``flat``
==========================  ===========================================

Unambiguous shapes lower directly; ambiguous ones reuse autotune's cost
signal — the candidates actually run on the simulated device and
:func:`~repro.core.autotune.best_run`'s deterministic tie-break picks the
winner, whose parameter point becomes the derived
:class:`~repro.core.params.TemplateParams`.  Race runs flow through the
ordinary plan/run caches, so a race against N candidates costs N cached
template runs, not N rebuilds.

Selections are the ``select`` kind of the tiered cache (memory, then
disk; :mod:`repro.core.artifactcache`) under a repr-stable key
``(workload fingerprint, device fingerprint, pass-config key, params,
engine)``, so the decision is stable across processes and
sessions (fingerprint-stability is what lets ``template="auto"`` share
the plan cache with the equivalent named run).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

from repro import obs
from repro.core.analysis import get_analysis
from repro.core.artifactcache import tiered_cache
from repro.core.autotune import best_run
from repro.core.params import TemplateParams
from repro.core.registry import canonical_name, resolve
from repro.errors import IRError
from repro.gpusim.config import KEPLER_K20, supports_dynamic_parallelism
from repro.gpusim.executor import get_default_engine
from repro.ir.build import from_workload, ir_kind_of
from repro.ir.nodes import LoopNode
from repro.ir.passes import (
    LARGE_SUFFIX,
    PassConfig,
    PassContext,
    PassDecision,
    run_pipeline,
)

__all__ = ["Selection", "auto_select", "is_auto", "clear_selection_cache"]

#: spelling of the automatic template choice accepted by the facade
AUTO = "auto"


def is_auto(template) -> bool:
    """Whether a template argument asks for automatic selection."""
    return isinstance(template, str) and template.strip().lower() == AUTO


@dataclass(frozen=True)
class Selection:
    """One auto-select decision, with its full audit trail."""

    #: canonical registry name of the chosen template
    template: str
    #: derived parameter point (race winner's, else the caller's)
    params: TemplateParams
    #: template family (``"nested-loop"`` or ``"tree"``)
    kind: str
    #: IR as built from the workload
    ir: LoopNode
    #: IR after the pass pipeline
    final_ir: LoopNode
    #: every pass rewrite, in order
    decisions: tuple[PassDecision, ...]
    #: human-readable lowering rationale
    reasons: tuple[str, ...]
    #: ``(template, lb_threshold)`` candidates raced (empty = direct)
    raced: tuple[tuple[str, int], ...]
    #: content digest of the final IR (what the decision was made from)
    fingerprint: str

    def to_dict(self) -> dict:
        """JSON-friendly form (the ``repro.explain`` payload)."""
        return {
            "template": self.template,
            "kind": self.kind,
            "params": {
                f.name: getattr(self.params, f.name)
                for f in dataclass_fields(self.params)
            },
            "ir": self.ir.to_dict(),
            "final_ir": self.final_ir.to_dict(),
            "decisions": [d.to_dict() for d in self.decisions],
            "reasons": list(self.reasons),
            "raced": [list(c) for c in self.raced],
            "fingerprint": self.fingerprint,
        }


def _find_subject(final_ir: LoopNode, kind: str) -> LoopNode | None:
    """The node whose mapping drives the lowering."""
    label = "inner" if kind == "nested-loop" else "children"
    return final_ir.find(label)


def _nested_candidates(node: LoopNode | None) -> tuple[list[str], str]:
    if node is None:
        return ["thread-mapped"], "no inner loop: plain parallel loop"
    if node.kind == "split":
        large = next(
            (c for c in node.children if c.label.endswith(LARGE_SUFFIX)), None
        )
        mapping = large.mapping if large is not None else "block"
        if mapping == "launch":
            return (
                ["dpar-opt", "dpar-naive"],
                "split with dynamic-parallelism large side: race the "
                "dpar family over the threshold ladder",
            )
        return (
            ["dual-queue", "dbuf-global", "dbuf-shared"],
            "split with consolidated large side: race the block-mapped "
            "load-balancing family over the threshold ladder",
        )
    if node.mapping == "thread":
        return ["thread-mapped"], "every instance below lbTHRES: thread-mapped"
    if node.mapping == "launch":
        return (
            ["dpar-opt", "dpar-naive"],
            "whole loop promoted to child launches: race the dpar family",
        )
    return ["block-mapped"], "whole loop consolidated: block-mapped"


def _tree_candidates(node: LoopNode | None) -> tuple[list[str], str]:
    if node is None or node.mapping == "thread":
        return (
            ["flat"],
            "child loops below the promotion threshold: recursion "
            "eliminated (flat)",
        )
    if node.mapping == "launch":
        return (
            ["rec-naive", "flat"],
            "child loops promoted to per-node launches: race rec-naive "
            "against the flat elimination",
        )
    return (
        ["rec-hier", "flat"],
        "promoted launches consolidated into block groups: race rec-hier "
        "against the flat elimination",
    )


def _params_key(params: TemplateParams) -> tuple:
    return tuple(
        (f.name, getattr(params, f.name)) for f in dataclass_fields(params)
    )


def _race(workload, kind, candidates, thresholds, device, params, engine):
    """Run every viable (template, threshold) candidate; pick the winner.

    Reuses autotune's cost signal: candidates execute on the simulated
    device (through the plan/run caches) and
    :func:`~repro.core.autotune.best_run` breaks ties deterministically.
    """
    dynpar_ok = supports_dynamic_parallelism(device)
    runs = []
    raced: list[tuple[str, int]] = []
    for name in candidates:
        template = resolve(name, kind=kind)
        if template.uses_dynamic_parallelism and not dynpar_ok:
            continue
        lbts = thresholds if kind == "nested-loop" else (params.lb_threshold,)
        for lbt in lbts:
            p = params.replace(lb_threshold=int(lbt))
            runs.append(template.run(workload, device, p, engine=engine))
            raced.append((name, int(lbt)))
    if not runs:
        raise IRError(
            f"no auto-select candidate ({', '.join(candidates)}) is "
            f"runnable on {device.name}"
        )
    winner = best_run(runs)
    return winner, tuple(raced)


def auto_select(
    workload,
    device=KEPLER_K20,
    params: TemplateParams | None = None,
    engine: str | None = None,
    cfg: PassConfig | None = None,
) -> Selection:
    """Choose the template (and params) for a workload via the IR pipeline.

    Deterministic and cached: the same ``(workload fingerprint, device,
    pass config, params, engine)`` always yields the same
    :class:`Selection`, served from the tiered cache when seen before.
    """
    params = params or TemplateParams()
    kind = ir_kind_of(workload)
    if cfg is None:
        cfg = PassConfig(
            lb_threshold=params.lb_threshold,
            dynamic_parallelism=supports_dynamic_parallelism(device),
        )
    key = (
        workload.fingerprint(),
        device.fingerprint(),
        cfg.key(),
        _params_key(params),
        engine or get_default_engine(),
    )

    def build():
        with obs.span("ir.select", kind=kind,
                      workload=getattr(workload, "name", "?")):
            return _select(workload, kind, device, params, engine, cfg)

    selection, level = tiered_cache().fetch("select", key, build)
    if level == "memory" and obs.enabled():
        obs.instant("ir.select.cache_hit",
                    workload=getattr(workload, "name", "?"))
    return selection


def _select(workload, kind, device, params, engine, cfg) -> Selection:
    ir = from_workload(workload)
    ctx = PassContext(
        split_counts=get_analysis(workload).split_counts
        if kind == "nested-loop" else None,
    )
    result = run_pipeline(ir, cfg, ctx)
    subject = _find_subject(result.ir, kind)
    if kind == "nested-loop":
        candidates, reason = _nested_candidates(subject)
    else:
        candidates, reason = _tree_candidates(subject)
    reasons = [reason]
    if len(candidates) == 1:
        chosen, derived, raced = candidates[0], params, ()
        reasons.append(f"unambiguous lowering: {chosen}")
    else:
        winner, raced = _race(
            workload, kind, candidates, cfg.thresholds, device, params, engine
        )
        chosen, derived = winner.template, winner.params
        if obs.enabled():
            obs.add_counter("ir.select.race_candidates", len(raced))
        reasons.append(
            f"race over {len(raced)} candidates won by {chosen} "
            f"(lbTHRES={derived.lb_threshold}, "
            f"{winner.time_ms:.3f} ms simulated)"
        )
    # the registry's .name for thread-mapped is the historical "baseline";
    # selections always speak canonical names
    chosen = canonical_name(chosen)
    return Selection(
        template=chosen,
        params=derived,
        kind=kind,
        ir=ir,
        final_ir=result.ir,
        decisions=tuple(result.decisions),
        reasons=tuple(reasons),
        raced=raced,
        fingerprint=result.ir.fingerprint(),
    )


def clear_selection_cache() -> None:
    """Drop selections from memory (tests and benchmarks)."""
    tiered_cache().clear("select")
