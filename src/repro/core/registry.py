"""Unified template registry: canonical paper name -> template.

Every parallelization template the repo implements — the nested-loop
load-balancing family of Figs. 1/2 and the recursive tree family of
Fig. 3 — is reachable through one :func:`resolve` call, and :func:`workload_kind`
names the family (the ``kind`` :func:`resolve` takes) a workload belongs
to.  Canonical names
follow the paper (``thread-mapped``, ``dbuf-global``, ``rec-hier``, ...);
the alias map accepts the historical spellings (``baseline``) and
underscore variants, so existing callers keep working.
"""

from __future__ import annotations

from repro.core.base import NestedLoopTemplate, _TemplateBase
from repro.core.delayed_buffer import (
    DelayedBufferGlobalTemplate,
    DelayedBufferSharedTemplate,
)
from repro.core.dual_queue import DualQueueTemplate
from repro.core.dynamic_par import DparNaiveTemplate, DparOptTemplate
from repro.core.recursive import (
    FlatTreeTemplate,
    RecHierTreeTemplate,
    RecNaiveTreeTemplate,
    RecursiveTreeWorkload,
)
from repro.core.thread_mapped import BlockMappedTemplate, ThreadMappedTemplate
from repro.core.workload import NestedLoopWorkload
from repro.errors import ConfigError, PlanError, WorkloadError

__all__ = [
    "NESTED_LOOP_TEMPLATES",
    "TREE_TEMPLATE_CLASSES",
    "ALL_TEMPLATES",
    "LOAD_BALANCING_TEMPLATES",
    "TEMPLATE_ALIASES",
    "canonical_name",
    "check_template",
    "resolve",
    "workload_kind",
]

#: all nested-loop templates by paper name (legacy keys kept: ``baseline``
#: is the historical key for the thread-mapped template)
NESTED_LOOP_TEMPLATES: dict[str, type[NestedLoopTemplate]] = {
    "baseline": ThreadMappedTemplate,
    "block-mapped": BlockMappedTemplate,
    "dual-queue": DualQueueTemplate,
    "dbuf-global": DelayedBufferGlobalTemplate,
    "dbuf-shared": DelayedBufferSharedTemplate,
    "dpar-naive": DparNaiveTemplate,
    "dpar-opt": DparOptTemplate,
}

#: tree (recursive-computation) templates by paper name
TREE_TEMPLATE_CLASSES = {
    "flat": FlatTreeTemplate,
    "rec-naive": RecNaiveTreeTemplate,
    "rec-hier": RecHierTreeTemplate,
}

#: the five load-balancing variants evaluated in Figs. 4-6
LOAD_BALANCING_TEMPLATES = (
    "dual-queue", "dbuf-global", "dbuf-shared", "dpar-naive", "dpar-opt",
)

#: canonical name -> (kind, class); the single source every lookup uses
ALL_TEMPLATES: dict[str, tuple[str, type]] = {
    "thread-mapped": ("nested-loop", ThreadMappedTemplate),
    "block-mapped": ("nested-loop", BlockMappedTemplate),
    "dual-queue": ("nested-loop", DualQueueTemplate),
    "dbuf-global": ("nested-loop", DelayedBufferGlobalTemplate),
    "dbuf-shared": ("nested-loop", DelayedBufferSharedTemplate),
    "dpar-naive": ("nested-loop", DparNaiveTemplate),
    "dpar-opt": ("nested-loop", DparOptTemplate),
    "flat": ("tree", FlatTreeTemplate),
    "rec-naive": ("tree", RecNaiveTreeTemplate),
    "rec-hier": ("tree", RecHierTreeTemplate),
}

#: accepted alternative spellings -> canonical name
TEMPLATE_ALIASES: dict[str, str] = {
    "baseline": "thread-mapped",   # historical registry key / class .name
    "rec-hierarchical": "rec-hier",
}

_KINDS = ("nested-loop", "tree")


def workload_kind(workload) -> str:
    """Template family a workload belongs to (``nested-loop`` | ``tree``).

    Raises :class:`WorkloadError` for anything that is not a
    :class:`NestedLoopWorkload` or :class:`RecursiveTreeWorkload`.
    """
    if isinstance(workload, NestedLoopWorkload):
        return "nested-loop"
    if isinstance(workload, RecursiveTreeWorkload):
        return "tree"
    raise WorkloadError(
        "workload must be a NestedLoopWorkload or RecursiveTreeWorkload, "
        f"got {type(workload).__name__}"
    )


def canonical_name(name: str) -> str:
    """Normalize a template name to its canonical registry key.

    Accepts canonical names, aliases and underscore spellings; raises
    :class:`PlanError` for anything unknown.
    """
    if not isinstance(name, str):
        raise PlanError(f"template name must be a string, got {type(name).__name__}")
    key = name.strip().lower().replace("_", "-")
    key = TEMPLATE_ALIASES.get(key, key)
    if key not in ALL_TEMPLATES:
        known = ", ".join(sorted(ALL_TEMPLATES))
        raise PlanError(f"unknown template {name!r}; known: {known}")
    return key


def check_template(template) -> None:
    """Raise :class:`ConfigError` unless ``template`` is a name or a template instance."""
    if not isinstance(template, (str, _TemplateBase)):
        raise ConfigError("template must be a registry name or a template instance, "
                          f"got {type(template).__name__}")


def resolve(name: str, kind: str | None = None):
    """Instantiate a template by name from the merged registry.

    Parameters
    ----------
    name:
        canonical paper name (``thread-mapped``, ``dbuf-shared``,
        ``rec-hier``, ...) or an accepted alias (``baseline``).
    kind:
        restrict the lookup to ``"nested-loop"`` or ``"tree"`` templates;
        None accepts either.  A name that exists under a different kind
        raises :class:`PlanError` naming the mismatch.
    """
    if kind is not None and kind not in _KINDS:
        raise PlanError(f"unknown template kind {kind!r}; known: {', '.join(_KINDS)}")
    key = canonical_name(name)
    actual_kind, cls = ALL_TEMPLATES[key]
    if kind is not None and actual_kind != kind:
        raise PlanError(
            f"template {name!r} is a {actual_kind} template, not {kind}"
        )
    return cls()
