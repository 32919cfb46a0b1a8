"""Experiment registry: one entry per paper table/figure.

Experiments are plain functions ``(config) -> list[ResultTable]``
registered under the ids used throughout DESIGN.md and EXPERIMENTS.md
(``fig2`` ... ``fig9``, ``table1``, ``table2``, ``baselines``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.table import ResultTable
from repro.errors import ExperimentError
from repro.gpusim.config import KEPLER_K20, DeviceConfig

__all__ = ["ExperimentConfig", "Experiment", "EXPERIMENTS", "register", "get_experiment", "run_experiment"]


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``scale`` trades run time for dataset size (1.0 = closest to the
    paper; the default keeps a full sweep laptop-sized).  Experiments
    document per-id what scale changes.
    """

    scale: float = 0.05
    seed: int = 0
    device: DeviceConfig = field(default_factory=lambda: KEPLER_K20)

    def __post_init__(self) -> None:
        if not (0 < self.scale <= 1.0):
            raise ExperimentError("scale must be in (0, 1]")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ExperimentError(
                f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class Experiment:
    """One reproducible paper artifact."""

    id: str
    title: str
    paper_ref: str
    description: str
    runner: Callable[[ExperimentConfig], list[ResultTable]]

    def run(self, config: ExperimentConfig | None = None) -> list[ResultTable]:
        """Execute and return the result tables."""
        return self.runner(config or ExperimentConfig())


EXPERIMENTS: dict[str, Experiment] = {}


def register(id: str, title: str, paper_ref: str, description: str):
    """Decorator registering an experiment runner under ``id``."""

    def wrap(fn: Callable[[ExperimentConfig], list[ResultTable]]):
        if id in EXPERIMENTS:
            raise ExperimentError(f"experiment {id!r} registered twice")
        EXPERIMENTS[id] = Experiment(
            id=id, title=title, paper_ref=paper_ref,
            description=description, runner=fn,
        )
        return fn

    return wrap


def get_experiment(id: str) -> Experiment:
    """Look up an experiment; importing the experiment package lazily."""
    _ensure_loaded()
    try:
        return EXPERIMENTS[id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(f"unknown experiment {id!r}; known: {known}") from None


def run_experiment(id: str, config: ExperimentConfig | None = None) -> list[ResultTable]:
    """Convenience: look up + run."""
    return get_experiment(id).run(config)


def all_experiments() -> dict[str, Experiment]:
    """The full registry (loads experiment modules on first use)."""
    _ensure_loaded()
    return dict(EXPERIMENTS)


def _ensure_loaded() -> None:
    import repro.bench.experiments  # noqa: F401  (registers on import)
