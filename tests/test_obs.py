"""The repro.obs tracing layer: spans, nesting, export, zero-cost-off."""

import json
import threading

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.workload import AccessStream, NestedLoopWorkload


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts disabled with an empty tracer and a cold plan
    cache (plan.build counts depend on it), and leaves no residue."""
    from repro.core.plancache import default_cache

    obs.set_enabled(False)
    obs.reset()
    default_cache().clear()
    yield
    obs.set_enabled(False)
    obs.reset()


def make_workload(outer=300, seed=7, name="obs-wl"):
    rng = np.random.default_rng(seed)
    trips = rng.zipf(1.8, size=outer).clip(max=60).astype(np.int64)
    nnz = int(trips.sum())
    return NestedLoopWorkload(
        name=name, trip_counts=trips,
        streams=[AccessStream("x", rng.integers(0, nnz, size=nnz) * 4)],
    )


class TestDisabled:
    def test_span_is_shared_noop(self):
        assert obs.span("anything", key="value") is obs.NOOP_SPAN
        with obs.span("anything"):
            pass
        assert obs.summary()["events"] == 0

    def test_nothing_records_while_disabled(self):
        obs.instant("marker")
        obs.add_counter("c", 5)
        obs.complete("done", 0.0, 1.0)
        obs.sim_complete("k", 0.0, 1.0)
        s = obs.summary()
        assert s["events"] == 0 and s["sim_events"] == 0
        assert s["counters"] == {} and s["wall_ms"] == {}

    def test_template_run_records_nothing(self):
        repro.run(make_workload(), "dbuf-shared")
        assert obs.summary()["events"] == 0

    def test_current_stack_empty(self):
        assert obs.current_stack() == ()


class TestSpans:
    def test_span_records_duration_and_tags(self):
        obs.set_enabled(True)
        with obs.span("outer", template="t"):
            pass
        events = obs.get_tracer().events
        assert len(events) == 1
        ev = events[0]
        assert ev["name"] == "outer" and ev["ph"] == "X"
        assert ev["dur_us"] >= 0 and ev["args"] == {"template": "t"}
        assert ev["parent"] is None

    def test_nesting_records_parent(self):
        obs.set_enabled(True)
        with obs.span("outer"):
            assert obs.current_stack() == ("outer",)
            with obs.span("inner"):
                assert obs.current_stack() == ("outer", "inner")
        by_name = {e["name"]: e for e in obs.get_tracer().events}
        assert by_name["inner"]["parent"] == "outer"
        assert by_name["outer"]["parent"] is None
        # inner finished first and fits inside outer
        assert by_name["inner"]["ts_us"] >= by_name["outer"]["ts_us"]
        assert by_name["inner"]["dur_us"] <= by_name["outer"]["dur_us"]

    def test_nesting_is_per_thread(self):
        obs.set_enabled(True)
        seen = {}

        def worker():
            with obs.span("thread-span"):
                seen["stack"] = obs.current_stack()

        with obs.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # the worker thread does not inherit the main thread's open span
        assert seen["stack"] == ("thread-span",)

    def test_span_records_error_tag(self):
        obs.set_enabled(True)
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        (ev,) = obs.get_tracer().events
        assert ev["args"]["error"] == "ValueError"

    def test_summary_aggregates_per_name(self):
        obs.set_enabled(True)
        for _ in range(3):
            with obs.span("repeat"):
                pass
        obs.add_counter("widgets", 2)
        obs.add_counter("widgets")
        s = obs.summary()
        assert s["wall_ms"]["repeat"]["count"] == 3
        assert s["counters"] == {"widgets": 3}

    def test_event_cap_keeps_aggregates_exact(self):
        obs.set_enabled(True)
        tracer = obs.get_tracer()
        tracer.max_events = 5
        for _ in range(8):
            with obs.span("capped"):
                pass
        s = obs.summary()
        assert s["events"] == 5 and s["dropped"] == 3
        assert s["wall_ms"]["capped"]["count"] == 8


class TestInstrumentation:
    def test_template_run_emits_catalogue_spans(self):
        wl = make_workload(name="obs-catalogue")
        obs.set_enabled(True)
        repro.run(wl, "dbuf-shared")
        repro.run(wl, "dbuf-shared")  # second run hits the plan cache
        s = obs.summary()
        assert s["wall_ms"]["plan.build"]["count"] == 1
        assert s["wall_ms"]["plan.cache_hit"]["count"] == 1
        assert s["wall_ms"]["gpusim.execute"]["count"] == 2
        assert s["wall_ms"]["gpusim.profile"]["count"] == 2
        assert s["counters"]["cache.plan.memory.hits"] == 1
        assert s["counters"]["cache.plan.memory.misses"] == 1
        # per-kernel events landed on the simulated track
        assert s["sim_events"] > 0

    def test_tree_template_emits_spans(self):
        from repro.core.recursive import RecursiveTreeWorkload
        from repro.trees.generator import generate_tree

        wl = RecursiveTreeWorkload(
            generate_tree(depth=4, outdegree=3, seed=5), "descendants")
        obs.set_enabled(True)
        repro.run(wl, "flat")
        s = obs.summary()
        assert s["wall_ms"]["plan.build"]["count"] == 1
        assert s["wall_ms"]["gpusim.execute"]["count"] == 1

    def test_tracing_does_not_change_results(self):
        wl = make_workload(name="obs-equiv")
        baseline = repro.run(wl, "dual-queue")
        obs.set_enabled(True)
        traced = repro.run(wl, "dual-queue")
        assert traced.time_ms == pytest.approx(baseline.time_ms, rel=1e-12)
        # the no-timeline contract survives tracing
        assert traced.result.records == []


class TestExecutorCounters:
    """Traced executor passes report their own work: dispatch passes,
    events per kind and stale SM checks, once per execution."""

    KINDS = ("host_ready", "gmu_done", "sm_check", "linger_done", "tail_done")

    @pytest.mark.parametrize("engine", ["fast", "exact"])
    def test_rec_naive_events_match_its_launches(self, engine):
        from repro.core.recursive import RecursiveTreeWorkload
        from repro.trees.generator import generate_tree

        wl = RecursiveTreeWorkload(
            generate_tree(depth=4, outdegree=8, sparsity=0.5, seed=3),
            "descendants")
        obs.set_enabled(True)
        run = repro.run(wl, "rec-naive", engine=engine)
        counters = obs.summary()["counters"]
        result = run.result
        assert result.n_device_launches > 0
        assert counters["executor.events.gmu_done"] == result.n_device_launches
        assert counters["executor.events.host_ready"] == (
            result.n_launches - result.n_device_launches)
        assert counters["executor.dispatch_passes"] >= result.n_launches
        for kind in self.KINDS:
            assert f"executor.events.{kind}" in counters
        assert 0 <= counters["executor.stale_checks"] \
            <= counters["executor.events.sm_check"]

    def test_counted_only_while_tracing(self):
        repro.run(make_workload(name="obs-quiet"), "dual-queue")
        assert obs.summary()["counters"] == {}


class TestChromeExport:
    def test_valid_trace_with_required_names(self):
        obs.set_enabled(True)
        repro.run(make_workload(name="obs-export"), "dbuf-shared")
        trace = obs.chrome_trace()
        count = obs.validate_chrome_trace(
            trace,
            required_names=("plan.build", "gpusim.execute", "gpusim.profile"),
        )
        assert count > 0
        assert trace["displayTimeUnit"] == "ms"
        # sim events carry the synthetic device pid, wall events do not
        pids = {e["pid"] for e in trace["traceEvents"]
                if e.get("cat") == "sim"}
        assert pids == {obs.SIM_PID}
        json.dumps(trace)  # round-trippable

    def test_write_chrome_trace(self, tmp_path):
        obs.set_enabled(True)
        with obs.span("only"):
            pass
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        obs.validate_chrome_trace(loaded, required_names=("only",))

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError, match="traceEvents"):
            obs.validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="no name"):
            obs.validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError, match="dur"):
            obs.validate_chrome_trace(
                {"traceEvents": [{"name": "a", "ph": "X", "ts": 0.0}]})
        with pytest.raises(ValueError, match="no events named"):
            obs.validate_chrome_trace(
                {"traceEvents": [
                    {"name": "a", "ph": "X", "ts": 0.0, "dur": 1.0}]},
                required_names=("missing",))
        with pytest.raises(ValueError, match="only metadata"):
            obs.validate_chrome_trace(
                {"traceEvents": [{"name": "process_name", "ph": "M"}]})
