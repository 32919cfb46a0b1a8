"""Tests for the top-level facade (repro.run / repro.compare /
repro.explain) and the unified template registry."""

import warnings

import numpy as np
import pytest

import repro
from repro.core import RecursiveTreeWorkload, TemplateParams
from repro.core.registry import (
    ALL_TEMPLATES,
    NESTED_LOOP_TEMPLATES,
    TREE_TEMPLATE_CLASSES,
    canonical_name,
    resolve,
)
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.errors import ConfigError, PlanError, WorkloadError
from repro.gpusim import FERMI_C2050, KEPLER_K20
from repro.trees.generator import generate_tree
from test_executor_fused import assert_result_equal


#: (template, keyword arguments, the argument the ConfigError names):
#: inputs every front door (``repro.run``, ``TemplateService.submit``)
#: must reject before selection, under a named template and under auto
MALFORMED_ARGUMENTS = [
    ("thread-mapped", dict(params={"lb_threshold": 3}), "params"),
    ("auto", dict(params={"lb_threshold": 3}), "params"),
    ("thread-mapped", dict(device="k20"), "device"),
    ("auto", dict(device="k20"), "device"),
    (5, {}, "template"),
    (["flat"], {}, "template"),
]
MALFORMED_IDS = ["named-params", "auto-params", "named-device",
                 "auto-device", "int-template", "list-template"]


@pytest.fixture(scope="module")
def loop_workload():
    rng = np.random.default_rng(0)
    trips = rng.zipf(1.8, size=400).clip(max=300).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name="api-wl", trip_counts=trips,
        streams=[AccessStream("x", rng.integers(0, nnz, size=nnz) * 4)],
    )


@pytest.fixture(scope="module")
def tree_workload():
    tree = generate_tree(depth=5, outdegree=3, seed=1)
    return RecursiveTreeWorkload(tree, "descendants")


class TestRegistryResolve:
    def test_every_canonical_name_resolves(self):
        for name, (kind, cls) in ALL_TEMPLATES.items():
            template = resolve(name)
            assert isinstance(template, cls)
            assert resolve(name, kind=kind).name == template.name

    def test_aliases_and_normalization(self):
        assert canonical_name("baseline") == "thread-mapped"
        assert canonical_name("  Thread_Mapped ") == "thread-mapped"
        assert type(resolve("baseline")) is type(resolve("thread-mapped"))
        assert type(resolve("dbuf_global")) is type(resolve("dbuf-global"))

    def test_unknown_name_lists_known(self):
        with pytest.raises(PlanError, match="rec-hier"):
            resolve("quantum-mapped")

    def test_kind_mismatch(self):
        with pytest.raises(PlanError, match="tree template"):
            resolve("rec-hier", kind="nested-loop")
        with pytest.raises(PlanError, match="nested-loop template"):
            resolve("dbuf-shared", kind="tree")
        with pytest.raises(PlanError, match="unknown template kind"):
            resolve("dbuf-shared", kind="gpu")

    def test_legacy_registries_cover_all(self):
        merged = set(NESTED_LOOP_TEMPLATES) | set(TREE_TEMPLATE_CLASSES)
        aliases = {"baseline"}
        assert merged - aliases <= set(ALL_TEMPLATES)

    def test_resolve_reexported_at_top_level(self):
        assert repro.resolve is resolve
        assert repro.TemplateParams is TemplateParams
        assert repro.NestedLoopWorkload is NestedLoopWorkload
        assert repro.RecursiveTreeWorkload is RecursiveTreeWorkload


class TestRunFacade:
    def test_nested_loop_from_top_level(self, loop_workload):
        run = repro.run(loop_workload, "dbuf-shared")
        assert run.template == "dbuf-shared"
        assert run.time_ms > 0

    def test_tree_from_top_level(self, tree_workload):
        run = repro.run(tree_workload, "rec-hier")
        assert run.template == "rec-hier"
        assert run.time_ms > 0

    def test_default_template_is_auto(self, loop_workload):
        run = repro.run(loop_workload)
        assert canonical_name(run.template) in ALL_TEMPLATES
        assert run.selection is not None
        assert run.selection.template == canonical_name(run.template)

    def test_kwargs_device_and_params(self, loop_workload):
        k20 = repro.run(loop_workload, "dual-queue",
                        params=TemplateParams(lb_threshold=64))
        fermi = repro.run(loop_workload, "dual-queue",
                          device=FERMI_C2050,
                          params=TemplateParams(lb_threshold=64))
        assert k20.params.lb_threshold == 64
        assert fermi.time_ms != k20.time_ms

    def test_template_instance_accepted(self, loop_workload):
        instance = resolve("block-mapped")
        run = repro.run(loop_workload, instance, device=KEPLER_K20)
        assert run.template == "block-mapped"

    def test_family_misdispatch_rejected(self, loop_workload, tree_workload):
        with pytest.raises(PlanError):
            repro.run(loop_workload, "flat")
        with pytest.raises(PlanError):
            repro.run(tree_workload, "thread-mapped")

    def test_bad_workload_type(self):
        with pytest.raises(WorkloadError, match="NestedLoopWorkload"):
            repro.run(object(), "thread-mapped")

    def test_legacy_argument_order_rejected(self, loop_workload):
        with pytest.raises(WorkloadError, match="NestedLoopWorkload"):
            repro.run("dbuf-shared", loop_workload)

    def test_exact_kwarg_removed(self, loop_workload):
        with pytest.raises(TypeError):
            repro.run(loop_workload, "dbuf-global", exact=True)

    def test_params_must_be_template_params(self, loop_workload):
        with pytest.raises(ConfigError, match="got dict"):
            repro.run(loop_workload, "baseline", params={"lb_threshold": 3})

    @pytest.mark.parametrize("template, kwargs, argument",
                             MALFORMED_ARGUMENTS, ids=MALFORMED_IDS)
    def test_malformed_argument_is_named(self, loop_workload, template,
                                         kwargs, argument):
        with pytest.raises(ConfigError, match=f"^{argument} must be"):
            repro.run(loop_workload, template, **kwargs)


class TestEngineSelection:
    def test_engine_kwarg_fast_and_exact_agree(self, loop_workload):
        fast = repro.run(loop_workload, "dbuf-global", engine="fast")
        exact = repro.run(loop_workload, "dbuf-global", engine="exact")
        assert_result_equal(fast.result, exact.result)

    def test_engine_kwarg_no_warning(self, loop_workload):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.run(loop_workload, "dbuf-global", engine="exact")

    def test_compare_accepts_engine(self, loop_workload):
        runs = repro.compare(loop_workload, ["thread-mapped", "dual-queue"],
                             engine="exact")
        assert [r.template for r in runs] == ["baseline", "dual-queue"]

    def test_unknown_engine_rejected(self, loop_workload):
        with pytest.raises(repro.ConfigError, match="unknown engine"):
            repro.run(loop_workload, "dbuf-global", engine="warp")


class TestCompareFacade:
    def test_order_preserved(self, loop_workload):
        names = ["dbuf-global", "thread-mapped", "dual-queue"]
        runs = repro.compare(loop_workload, names)
        assert [r.template for r in runs] == \
            ["dbuf-global", "baseline", "dual-queue"]

    def test_default_is_auto(self, loop_workload):
        runs = repro.compare(loop_workload)
        assert len(runs) == 1
        assert runs[0].selection is not None

    def test_include_auto(self, loop_workload):
        runs = repro.compare(loop_workload, ["thread-mapped"], include="auto")
        assert len(runs) == 2
        assert runs[0].template == "baseline"
        assert runs[1].selection is not None

    def test_single_name_string_accepted(self, loop_workload):
        runs = repro.compare(loop_workload, "dual-queue")
        assert [r.template for r in runs] == ["dual-queue"]

    def test_legacy_argument_order_rejected(self, loop_workload):
        with pytest.raises(WorkloadError, match="NestedLoopWorkload"):
            repro.compare(["dual-queue"], loop_workload)

    def test_positional_args_rejected(self, loop_workload):
        with pytest.raises(TypeError):
            repro.run(loop_workload, "thread-mapped", KEPLER_K20)

    def test_params_must_be_template_params(self, loop_workload):
        with pytest.raises(ConfigError, match="got dict"):
            repro.compare(loop_workload, ["dual-queue"],
                          params={"lb_threshold": 3})


class TestExplainFacade:
    def test_explain_structure(self, loop_workload):
        info = repro.explain(loop_workload)
        assert info["template"] in ALL_TEMPLATES
        assert info["kind"] == "nested-loop"
        assert isinstance(info["fingerprint"], str)
        assert isinstance(info["decisions"], list)
        assert isinstance(info["reasons"], list)
        assert "final_ir" in info and "ir" in info

    def test_params_must_be_template_params(self, loop_workload):
        with pytest.raises(ConfigError, match="got dict"):
            repro.explain(loop_workload, params={"lb_threshold": 3})

    def test_device_must_be_device_config(self, loop_workload):
        with pytest.raises(ConfigError, match="^device must be"):
            repro.explain(loop_workload, device="k20")

    def test_explain_matches_run(self, loop_workload):
        info = repro.explain(loop_workload)
        run = repro.run(loop_workload)
        assert canonical_name(run.template) == info["template"]
