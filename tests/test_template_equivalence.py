"""Property test: every template plans and runs any graph shape.

Hypothesis generates random small graphs; SSSP, BFS and SpMV are run
under a baseline and a load-balancing template.  An app's
``AppRun.result`` is its functional result (the serial reference for
SSSP and BFS), not read off the simulated device, so these cases check
that each template plans and runs every round of an arbitrary graph —
zero-trip rows, isolated sources, rows longer than lbTHRES — and returns
the same result as the baseline.  The SpMV case also checks the product
against scipy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BFSApp, SpMVApp, SSSPApp
from repro.core import TemplateParams
from repro.gpusim import KEPLER_K20
from repro.graphs import CSRGraph

PARAMS = TemplateParams(lb_threshold=8)


@st.composite
def random_csr(draw):
    n = draw(st.integers(2, 60))
    n_edges = draw(st.integers(0, 150))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=n_edges)
    dst = rng.integers(0, n, size=n_edges)
    keep = src != dst
    weights = rng.integers(1, 9, size=int(keep.sum())).astype(np.float64)
    return CSRGraph.from_edges(n, src[keep], dst[keep], weights)


class TestTemplateEquivalence:
    @given(random_csr())
    @settings(max_examples=15, deadline=None)
    def test_sssp_fixpoint_template_invariant(self, graph):
        app = SSSPApp(graph, source=0)
        base = app.run("baseline", KEPLER_K20, PARAMS).result
        dbuf = app.run("dbuf-shared", KEPLER_K20, PARAMS).result
        np.testing.assert_array_equal(base, dbuf)

    @given(random_csr())
    @settings(max_examples=15, deadline=None)
    def test_bfs_levels_template_invariant(self, graph):
        app = BFSApp(graph, source=0)
        base = app.run("baseline", KEPLER_K20, PARAMS).result
        dq = app.run("dual-queue", KEPLER_K20, PARAMS).result
        np.testing.assert_array_equal(base, dq)

    @given(random_csr())
    @settings(max_examples=15, deadline=None)
    def test_spmv_product_template_invariant(self, graph):
        app = SpMVApp(graph, seed=0)
        base = app.run("baseline", KEPLER_K20, PARAMS).result
        dpar = app.run("dpar-opt", KEPLER_K20, PARAMS).result
        np.testing.assert_array_equal(base, dpar)
        # and both match scipy
        np.testing.assert_allclose(base, graph.to_scipy() @ app.x, rtol=1e-12)
