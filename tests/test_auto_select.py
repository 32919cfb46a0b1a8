"""The parallelization IR + auto-select pass layer.

Four contracts pinned here:

1. **bit-exactness** — ``repro.run(workload)`` (auto) produces the exact
   run the selected template produces when named directly, on both
   workload families and on every registry template's home workload;
2. **repr-stability** — IR structural keys survive an
   ``ast.literal_eval(repr(...))`` round trip and fingerprints are
   deterministic across rebuilds (they feed disk-cache keys);
3. **pass discipline** — promote/consolidate are idempotent and preserve
   the root's total trip count;
4. **plumbing** — selection decisions are cached, and the serving layer
   accepts ``submit(workload)`` with the config's default ``"auto"``.
"""

import ast

import numpy as np
import pytest

import repro
from repro.core import RecursiveTreeWorkload, TemplateParams
from repro.core.analysis import clear_analysis_cache, get_analysis
from repro.core.registry import ALL_TEMPLATES, canonical_name
from repro.core.workload import NestedLoopWorkload
from repro.errors import IRError, WorkloadError
from repro.gpusim import FERMI_C2050, KEPLER_K20
from repro.ir import (
    PassConfig,
    PassContext,
    TripInfo,
    auto_select,
    clear_selection_cache,
    consolidate_pass,
    from_workload,
    ir_kind_of,
    par,
    promote_pass,
    run_pipeline,
    seq,
    validate,
)
from repro.trees.generator import generate_tree


@pytest.fixture(scope="module")
def loop_workload():
    rng = np.random.default_rng(11)
    return NestedLoopWorkload("parity-loop", rng.integers(0, 40, size=200))


@pytest.fixture(scope="module")
def tree_workload():
    return RecursiveTreeWorkload(generate_tree(depth=5, outdegree=3, seed=3))


@pytest.fixture(autouse=True)
def _fresh_selection_cache():
    clear_selection_cache()
    yield
    clear_selection_cache()


def _workload_for(kind, loop_workload, tree_workload):
    return loop_workload if kind == "nested-loop" else tree_workload


class TestBitExactness:
    @pytest.mark.parametrize("kind", ["nested-loop", "tree"])
    def test_auto_equals_named(self, kind, loop_workload, tree_workload):
        workload = _workload_for(kind, loop_workload, tree_workload)
        auto = repro.run(workload)
        named = repro.run(workload, auto.selection.template,
                          params=auto.selection.params)
        assert auto.time_ms == named.time_ms
        assert auto.result.cycles == named.result.cycles
        assert auto.metrics.as_dict() == named.metrics.as_dict()
        assert canonical_name(auto.template) == auto.selection.template

    @pytest.mark.parametrize("name", sorted(ALL_TEMPLATES))
    def test_every_registry_workload(self, name, loop_workload,
                                     tree_workload):
        # auto must stay bit-exact on each template's home workload family
        kind = ALL_TEMPLATES[name][0]
        workload = _workload_for(kind, loop_workload, tree_workload)
        selection = auto_select(workload)
        auto = repro.run(workload, "auto")
        named = repro.run(workload, selection.template,
                          params=selection.params)
        assert auto.time_ms == named.time_ms
        assert auto.result.cycles == named.result.cycles

    def test_selection_attached_only_on_auto(self, loop_workload):
        assert repro.run(loop_workload).selection is not None
        assert repro.run(loop_workload, "dual-queue").selection is None


class TestReprStability:
    @pytest.mark.parametrize("kind", ["nested-loop", "tree"])
    def test_key_literal_eval_round_trip(self, kind, loop_workload,
                                         tree_workload):
        workload = _workload_for(kind, loop_workload, tree_workload)
        ir = from_workload(workload)
        key = ir.key()
        assert ast.literal_eval(repr(key)) == key
        final = run_pipeline(ir).ir
        assert ast.literal_eval(repr(final.key())) == final.key()

    def test_fingerprint_deterministic_across_rebuilds(self, loop_workload):
        a = from_workload(loop_workload)
        clear_analysis_cache()
        b = from_workload(loop_workload)
        assert a.key() == b.key()
        assert a.fingerprint() == b.fingerprint()

    def test_pass_config_key_is_literal(self):
        cfg = PassConfig(lb_threshold=64)
        assert ast.literal_eval(repr(cfg.key())) == cfg.key()

    def test_selection_fingerprint_stable(self, loop_workload):
        first = auto_select(loop_workload).fingerprint
        clear_selection_cache()
        clear_analysis_cache()
        second = auto_select(loop_workload).fingerprint
        assert first == second


class TestPassDiscipline:
    def _ctx(self, workload):
        return PassContext(split_counts=get_analysis(workload).split_counts)

    @pytest.mark.parametrize("kind", ["nested-loop", "tree"])
    def test_passes_idempotent(self, kind, loop_workload, tree_workload):
        workload = _workload_for(kind, loop_workload, tree_workload)
        cfg = PassConfig()
        ctx = self._ctx(workload) if kind == "nested-loop" else PassContext()
        once = run_pipeline(from_workload(workload), cfg, ctx).ir
        promoted_again, _ = promote_pass(once, cfg, ctx)
        consolidated_again, _ = consolidate_pass(promoted_again, cfg, ctx)
        assert promoted_again.key() == once.key()
        assert consolidated_again.key() == once.key()

    @pytest.mark.parametrize("kind", ["nested-loop", "tree"])
    def test_total_trips_preserved(self, kind, loop_workload, tree_workload):
        workload = _workload_for(kind, loop_workload, tree_workload)
        ir = from_workload(workload)
        cfg = PassConfig()
        ctx = self._ctx(workload) if kind == "nested-loop" else PassContext()
        final = run_pipeline(ir, cfg, ctx).ir
        assert final.trips == ir.trips
        totals_before = {n.label: n.trips.total for n in ir.walk()
                         if n.kind != "split"}
        split_totals = {n.label: n.trips.total for n in final.walk()
                        if n.kind == "split"}
        for label, total in split_totals.items():
            assert total == totals_before[label]

    def test_pipeline_validates_output(self, loop_workload):
        final = run_pipeline(from_workload(loop_workload)).ir
        assert validate(final) is final

    def test_hand_built_ir_without_histogram(self):
        # no split_counts: straddling subloops promote whole on the mean
        inner = par("inner", TripInfo(10, 40, 1, 39))
        outer = seq("outer", TripInfo(1, 10, 10, 10), children=(inner,))
        wrapped = par("root", TripInfo(1, 1, 1, 1), children=(outer,))
        rewritten, _ = promote_pass(validate(wrapped),
                                    PassConfig(lb_threshold=32),
                                    PassContext())
        inner = rewritten.find("inner")
        assert inner.mapping in ("thread", "launch")

    def test_invalid_workload_kind_rejected(self):
        with pytest.raises(WorkloadError):
            ir_kind_of(object())
        with pytest.raises(WorkloadError):
            from_workload(object())


class TestSelectionCaching:
    def test_memory_cache_hit(self, loop_workload):
        first = auto_select(loop_workload)
        second = auto_select(loop_workload)
        assert second is first

    def test_device_changes_selection_key(self, loop_workload):
        k20 = auto_select(loop_workload, device=KEPLER_K20)
        fermi = auto_select(loop_workload, device=FERMI_C2050)
        assert k20 is not fermi

    def test_params_feed_pass_config(self, loop_workload):
        selection = auto_select(loop_workload,
                                params=TemplateParams(lb_threshold=64))
        assert selection.params.lb_threshold in (32, 64, 128, 256)

    def test_no_candidates_is_ir_error(self):
        assert issubclass(IRError, repro.PlanError)


class TestServiceAuto:
    def test_submit_workload_only_uses_auto(self, loop_workload):
        with repro.serve(max_batch=4) as svc:
            response = svc.request(loop_workload)
        assert response.status == "ok"
        assert canonical_name(response.template) in ALL_TEMPLATES

    def test_named_submit_still_works(self, loop_workload):
        with repro.serve(max_batch=4) as svc:
            response = svc.request("dual-queue", loop_workload)
        assert response.status == "ok"
        assert response.template == "dual-queue"
