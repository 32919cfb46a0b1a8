"""Shared helpers for the experiment modules."""

from __future__ import annotations

from repro.bench.registry import ExperimentConfig
from repro.core.params import TemplateParams
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import citeseer_like, uniform_random_graph, wiki_vote_like

__all__ = [
    "scaled",
    "citeseer_for",
    "wiki_vote_for",
    "random_graph_for",
    "params_for",
    "LB_SWEEP",
    "FIG6_TEMPLATES",
]

#: the lbTHRES sweep used by Figs. 5/6 and Table II
LB_SWEEP = (32, 64, 128, 256, 1024)

#: templates shown in Figs. 4/6 (dpar-naive is "not shown for readability")
FIG6_TEMPLATES = ("dual-queue", "dbuf-global", "dbuf-shared", "dpar-opt")


def scaled(full_value: int, config: ExperimentConfig, reference: float = 1.0,
           minimum: int = 1) -> int:
    """Scale a paper-sized quantity by ``config.scale / reference``."""
    return max(minimum, int(round(full_value * config.scale / reference)))


def citeseer_for(config: ExperimentConfig, weighted: bool = True) -> CSRGraph:
    """The CiteSeer-profile dataset at the experiment scale."""
    return citeseer_like(scale=config.scale, seed=config.seed, weighted=weighted)


def wiki_vote_for(config: ExperimentConfig) -> CSRGraph:
    """Wiki-Vote is small enough to always run at full size."""
    return wiki_vote_like(seed=config.seed)


def random_graph_for(config: ExperimentConfig,
                     degree_range: tuple[int, int]) -> CSRGraph:
    """Fig. 9's uniform random graph, node count scaled."""
    n = scaled(50_000, config, reference=0.15, minimum=2000)
    return uniform_random_graph(n, degree_range, seed=config.seed)


def params_for(lb_threshold: int, **kw) -> TemplateParams:
    """Template parameters with a given lbTHRES."""
    return TemplateParams(lb_threshold=lb_threshold, **kw)
