"""Template tuning parameters.

Two knobs dominate the paper's evaluation: the load-balancing threshold
``lbTHRES`` (how big an inner loop must be before it is moved to the
block-mapped / nested phase — Figs. 4-6, Table II) and the block size used
by the block-mapped portions (Fig. 4).  The thread-mapped phases use the
paper's fixed 192-thread blocks (the core count of a Kepler SM).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigError, check_count

__all__ = ["TemplateParams", "DEFAULT_THREAD_BLOCK", "DEFAULT_LB_BLOCK", "check_params"]

#: the paper's thread-mapped block size ("we use 192 threads per block,
#: equaling the number of cores per streaming multiprocessor")
DEFAULT_THREAD_BLOCK = 192
#: the paper's block-mapped block size after the Fig. 4 study ("in the
#: remaining experiments we use small blocks consisting of 64 threads")
DEFAULT_LB_BLOCK = 64


#: every field is an integer count; the least value each accepts
_COUNT_FLOORS = {
    "lb_threshold": 1, "thread_block": 32, "lb_block": 1,
    "registers_per_thread": 1, "streams_per_block": 1, "max_grid_blocks": 1,
}


@dataclass(frozen=True, kw_only=True)
class TemplateParams:
    """Knobs shared by all parallelization templates (keyword-only).

    Fields
    ------
    lb_threshold:
        the paper's ``lbTHRES``: iterations with f(i) > lb_threshold move
        to the load-balanced (block-mapped / buffered / nested) phase.
        Must be >= 1 — a zero threshold would empty the thread-mapped
        phase entirely, which no template supports.
    thread_block:
        block size of thread-mapped kernels (paper default: 192, the core
        count of a Kepler SM).  At least one warp (32).
    lb_block:
        block size of the block-mapped code portions — the Fig. 4 x-axis
        (paper choice after that study: 64).
    registers_per_thread:
        per-thread register usage assumed by the occupancy calculation
        (the paper reports low register pressure; default 24).
    streams_per_block:
        device streams available to each block for nested launches; 1
        means only the per-block NULL stream (Fig. 9's "stream" variants
        use 2).
    max_grid_blocks:
        clamp on the grid size of any generated kernel; exceeding it is a
        :class:`~repro.errors.PlanError` at plan time, not a silent
        truncation.
    """

    #: iterations with f(i) > lb_threshold go to the load-balanced phase
    lb_threshold: int = 32
    #: block size of thread-mapped kernels
    thread_block: int = DEFAULT_THREAD_BLOCK
    #: block size of block-mapped kernels
    lb_block: int = DEFAULT_LB_BLOCK
    #: registers per thread assumed for occupancy (paper: low usage)
    registers_per_thread: int = 24
    #: extra device streams per thread-block for nested launches
    #: (1 = the per-block NULL stream only; Fig. 9's "stream" variants use 2)
    streams_per_block: int = 1
    #: maximum blocks a thread-mapped grid may use (grid-size clamp)
    max_grid_blocks: int = 65_535

    def __post_init__(self) -> None:
        for name, floor in _COUNT_FLOORS.items():
            check_count(name, getattr(self, name), floor)

    def replace(self, **changes: object) -> "TemplateParams":
        """Copy with changes (revalidated)."""
        return dataclasses.replace(self, **changes)


def check_params(params) -> None:
    """Raise :class:`ConfigError` unless ``params`` is a TemplateParams or None."""
    if params is not None and not isinstance(params, TemplateParams):
        raise ConfigError(f"params must be a TemplateParams or None, got {type(params).__name__}")
