"""The ``plan`` kind of the tiered cache (:mod:`repro.core.artifactcache`),
under the plan cache's interface.  Plans are keyed on ``(workload
fingerprint, template name, device fingerprint, PLAN_RELEVANT_PARAMS)``;
the ``run`` results executed from them are cleared with them.
"""

from __future__ import annotations

from repro.core.artifactcache import tiered_cache
from repro.errors import ConfigError

__all__ = ["default_cache", "fingerprint_of"]


def fingerprint_of(workload) -> str:
    """Content fingerprint of any workload the templates accept.

    Thin dispatch over the workload's own (memoized) ``fingerprint()`` —
    the identity the plan cache and the serving layer's micro-batcher both
    key on.  Raises :class:`ConfigError` for objects with no fingerprint.
    """
    fingerprint = getattr(workload, "fingerprint", None)
    if fingerprint is None:
        raise ConfigError(
            f"{type(workload).__name__} has no fingerprint(); expected a "
            "NestedLoopWorkload or RecursiveTreeWorkload"
        )
    return fingerprint()


class _PlanView:
    """The ``plan`` kind's memory level: live counters, size and reset."""

    @property
    def stats(self):
        """Live :class:`~repro.core.artifactcache.LevelStats`."""
        return tiered_cache().stats["plan", "memory"]

    def __len__(self) -> int:
        return tiered_cache().count("plan")

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every plan and every run result from memory (optionally
        also their counters): the cold restart."""
        for kind in ("plan", "run"):
            tiered_cache().clear(kind, reset_stats)


def default_cache() -> _PlanView:
    """The process-wide plan cache: a view of the tiered cache's plans."""
    return _PlanView()
