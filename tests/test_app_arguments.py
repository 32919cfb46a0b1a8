"""Template runs and the apps check their device and params arguments.

A device that is not a :class:`DeviceConfig` and params that are not a
:class:`TemplateParams` raise :class:`ConfigError` naming the argument
before anything runs, on all nine applications and on ``template.run``.
Only None selects the default params: ``{}`` is malformed, not the
defaults.
"""

import numpy as np
import pytest

from repro.apps import (
    BCApp,
    BFSApp,
    PageRankApp,
    RecursiveBFSApp,
    SortApp,
    SpMVApp,
    SSSPApp,
    TreeDescendantsApp,
    TreeHeightsApp,
)
from repro.core import NestedLoopWorkload
from repro.core.registry import resolve
from repro.errors import ConfigError
from repro.gpusim import KEPLER_K20
from repro.graphs import uniform_random_graph
from repro.trees.generator import generate_tree


def _graph():
    graph = uniform_random_graph(200, (1, 6), seed=3)
    graph.weights = np.random.default_rng(4).integers(
        1, 10, size=graph.n_edges).astype(np.float64)
    return graph


def _tree():
    return generate_tree(depth=3, outdegree=4, seed=1)


def _workload():
    return NestedLoopWorkload(
        "arguments", np.random.default_rng(7).integers(0, 25, size=150))


#: entry point -> call(config, params); params=None where it takes none
ENTRY_POINTS = {
    "SpMVApp": lambda c, p: SpMVApp(_graph()).run("dual-queue", c, p),
    "SSSPApp": lambda c, p: SSSPApp(_graph(), source=0).run(
        "dual-queue", c, p),
    "BCApp": lambda c, p: BCApp(_graph(), n_sources=1).run(
        "dual-queue", c, p),
    "PageRankApp": lambda c, p: PageRankApp(_graph()).run(
        "dual-queue", c, p),
    "BFSApp": lambda c, p: BFSApp(_graph(), source=0).run(
        "dual-queue", c, p),
    "TreeDescendantsApp": lambda c, p: TreeDescendantsApp(_tree()).run(
        "rec-hier", c, p),
    "TreeHeightsApp": lambda c, p: TreeHeightsApp(_tree()).run(
        "rec-hier", c, p),
    "RecursiveBFSApp": lambda c, p: RecursiveBFSApp(_graph(), source=0).run(
        "rec-hier", c, p),
    "SortApp": lambda c, p: SortApp(np.arange(64)[::-1]).run("mergesort", c),
    "template.run": lambda c, p: resolve("dual-queue").run(_workload(), c, p),
}
TAKES_PARAMS = [name for name in ENTRY_POINTS if name != "SortApp"]

CASES = (
    [pytest.param(name, {"config": bad}, "device must be a DeviceConfig",
                  id=f"{name}-config-{label}")
     for name in ENTRY_POINTS
     for label, bad in (("str", "k20"), ("none", None))]
    + [pytest.param(name, {"params": bad},
                    "params must be a TemplateParams or None",
                    id=f"{name}-params-{label}")
       for name in TAKES_PARAMS
       for label, bad in (("dict", {"lb_threshold": 64}), ("empty", {}))]
)


@pytest.mark.parametrize("entry, argument, match", CASES)
def test_malformed_argument_raises_config_error(entry, argument, match):
    config = argument.get("config", KEPLER_K20)
    with pytest.raises(ConfigError, match=match):
        ENTRY_POINTS[entry](config, argument.get("params"))
