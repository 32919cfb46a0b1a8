"""Removal contracts for retired entry points and call shapes.

Each of these surfaces is **gone**; the tests pin the removal so that
using one fails loudly (an import, type or workload error), never
silently:

* ``get_template`` and the ``exact=`` kwarg;
* the template-first argument order of ``repro.run``/``repro.compare``;
* the ``executor=`` argument of template runs (``backend`` replaces it);
* ``repro.gpusim.execute_fused`` (``GpuExecutor.run_many`` replaces it);
* the service's ``fuse_batches`` knob (windows always fuse);
* the device group's work-stealing mode (``steal_chunks``) and the
  ``record_timeline`` switch of ``DeviceGroup``, ``SimBackend`` and
  ``backend_for``;
* the ``ServiceConfig`` fields ``default_template``, ``default_priority``
  and ``default_deadline_s`` (pass the ``submit`` argument),
  ``batch_window_s`` (the batch loop dispatches whatever is queued at
  once), ``stats_window`` (the stats keep a fixed 4,096-sample window),
  and the service's device group and its autoscaler: ``devices``,
  ``autoscale``, ``max_devices``, ``min_devices``,
  ``scale_check_interval_s``, ``scale_up_pending_per_device``,
  ``scale_up_p99_ms`` and ``scale_cooldown_s`` (every fusion group runs on
  a one-device backend of its own; ``repro.run(devices=N)`` shards work
  across devices);
* the service's SLO layer: the ``ServiceConfig`` fields
  ``max_pending_per_class``, ``tenant_quota``, ``tenant_quotas``,
  ``shed_deadlines`` and ``degrade_pending_threshold``, the ``priority``,
  ``tenant`` and ``deadline_s`` arguments of ``submit``, and the
  priority-class queue module ``repro.service.admission`` (admission is
  one ``max_pending`` bound over one FIFO queue);
* the serving load generator ``repro.service.loadgen``, the
  ``python -m repro.service`` demo, the ``service`` bench experiment and
  the helpers only they used (``percentiles``, ``workload_cost``); host
  wall time of the service is the repository benchmark's ``serve``
  workload;
* the applications the paper does not evaluate: connected components
  (``CCApp``, ``cc_serial``), triangle counting, k-core and MIS
  (``TrianglesApp``, ``KCoreApp``, ``MISApp``), their serial references
  and their modules.
"""

import asyncio
import importlib
import importlib.util
import warnings

import numpy as np
import pytest

import repro
from repro.backends import DeviceGroup, SimBackend, backend_for
from repro.bench.registry import get_experiment
from repro.core.registry import resolve
from repro.core.workload import NestedLoopWorkload
from repro.errors import ExperimentError, WorkloadError
from repro.gpusim import KEPLER_K20, GpuExecutor
from repro.service import TemplateService


@pytest.fixture()
def workload():
    rng = np.random.default_rng(7)
    return NestedLoopWorkload("deprecations", rng.integers(0, 25, size=150))


class TestGetTemplateRemoved:
    def test_import_fails(self):
        with pytest.raises(ImportError):
            from repro.core.registry import get_template  # noqa: F401

    def test_not_in_core_namespace(self):
        import repro.core
        import repro.core.registry
        assert not hasattr(repro.core, "get_template")
        assert not hasattr(repro.core.registry, "get_template")
        assert "get_template" not in repro.core.registry.__all__


class TestExactKwargRemoved:
    def test_run_rejects_exact(self, workload):
        with pytest.raises(TypeError):
            repro.run(workload, "dbuf-global", exact=True)

    def test_compare_rejects_exact(self, workload):
        with pytest.raises(TypeError):
            repro.compare(workload, ["dual-queue"], exact=True)

    def test_engine_is_the_replacement(self, workload):
        from test_executor_fused import assert_result_equal

        fast = repro.run(workload, "dbuf-global", engine="fast")
        exact = repro.run(workload, "dbuf-global", engine="exact")
        assert_result_equal(fast.result, exact.result)


class TestLegacyArgumentOrder:
    def test_run_rejects_template_first(self, workload):
        with pytest.raises(WorkloadError, match="NestedLoopWorkload"):
            repro.run("dbuf-global", workload)

    def test_compare_rejects_template_first(self, workload):
        with pytest.raises(WorkloadError, match="NestedLoopWorkload"):
            repro.compare(["dual-queue"], workload)

    def test_modern_path_is_warning_free(self, workload):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.run(workload, "dbuf-global", engine="exact")
            repro.compare(workload, ["dual-queue"])


class TestExecutorArgumentRemoved:
    def test_template_run_rejects_executor(self, workload):
        with pytest.raises(TypeError):
            resolve("dbuf-global").run(workload, KEPLER_K20,
                                       executor=GpuExecutor(KEPLER_K20))

    def test_execute_fused_import_fails(self):
        with pytest.raises(ImportError):
            from repro.gpusim import execute_fused  # noqa: F401


class TestFuseBatchesRemoved:
    def test_serve_rejects_fuse_batches(self):
        with pytest.raises(TypeError):
            repro.serve(fuse_batches=False)


class TestBackendOptionsRemoved:
    def test_device_group_rejects_steal_chunks(self):
        with pytest.raises(TypeError):
            DeviceGroup(n_devices=2, steal_chunks=4)

    def test_backend_for_rejects_steal_chunks(self):
        with pytest.raises(TypeError):
            backend_for(devices=2, steal_chunks=4)

    def test_backend_for_rejects_record_timeline(self):
        with pytest.raises(TypeError):
            backend_for(devices=2, record_timeline=True)

    def test_device_group_rejects_record_timeline(self):
        with pytest.raises(TypeError):
            DeviceGroup(n_devices=2, record_timeline=True)

    def test_sim_backend_rejects_record_timeline(self):
        with pytest.raises(TypeError):
            SimBackend(KEPLER_K20, record_timeline=True)


class TestServiceDefaultsRemoved:
    @pytest.mark.parametrize("field, value", [
        ("default_template", "dbuf-global"),
        ("default_priority", "high"),
        ("default_deadline_s", 5.0),
        ("min_devices", 1),
        ("scale_up_p99_ms", 50.0),
        ("batch_window_s", 0.002),
        ("devices", 2),
        ("autoscale", True),
        ("max_devices", 3),
        ("scale_check_interval_s", 0.05),
        ("scale_up_pending_per_device", 8),
        ("scale_cooldown_s", 0.25),
        ("stats_window", 4096),
        ("max_pending_per_class", {"low": 4}),
        ("tenant_quota", 1),
        ("tenant_quotas", {"acme": 1}),
        ("shed_deadlines", False),
        ("degrade_pending_threshold", 1),
    ])
    def test_serve_rejects_removed_field(self, field, value):
        with pytest.raises(TypeError):
            repro.serve(**{field: value})


class TestServiceSLORemoved:
    @pytest.mark.parametrize("argument, value", [
        ("priority", "high"),
        ("tenant", "acme"),
        ("deadline_s", 5.0),
    ])
    def test_submit_rejects_removed_argument(self, workload, argument,
                                             value):
        """The argument is a TypeError, and the same service then answers
        a valid request."""
        async def scenario():
            service = TemplateService()
            await service.start()
            try:
                with pytest.raises(TypeError):
                    await asyncio.wait_for(service.submit(
                        "thread-mapped", workload, **{argument: value}), 5.0)
                return await asyncio.wait_for(
                    service.submit("thread-mapped", workload), 30.0)
            finally:
                await asyncio.wait_for(service.stop(), 30.0)

        assert asyncio.run(scenario()).status == "ok"

    def test_admission_module_import_fails(self):
        with pytest.raises(ImportError):
            import repro.service.admission  # noqa: F401


class TestServingHarnessRemoved:
    def test_loadgen_import_fails(self):
        with pytest.raises(ImportError):
            import repro.service.loadgen  # noqa: F401

    def test_no_service_main(self):
        assert importlib.util.find_spec("repro.service.__main__") is None

    def test_service_experiment_unknown(self):
        with pytest.raises(ExperimentError):
            get_experiment("service")

    def test_percentiles_import_fails(self):
        with pytest.raises(ImportError):
            from repro.service import percentiles  # noqa: F401

    def test_workload_cost_import_fails(self):
        with pytest.raises(ImportError):
            from repro.service import workload_cost  # noqa: F401


class TestNonPaperAppsRemoved:
    def test_names_and_modules_import_fails(self):
        import repro.apps
        import repro.cpu.reference

        for name in ("CCApp", "cc_serial", "TrianglesApp", "KCoreApp",
                     "MISApp"):
            assert not hasattr(repro.apps, name), name
            assert name not in repro.apps.__all__
        for name in ("simple_undirected", "triangles_serial",
                     "kcore_serial", "mis_serial"):
            assert not hasattr(repro.cpu.reference, name), name
            assert name not in repro.cpu.reference.__all__
        for module in ("cc", "kcore", "mis", "triangles"):
            with pytest.raises(ImportError):
                importlib.import_module(f"repro.apps.{module}")
