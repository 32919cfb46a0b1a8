"""Tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import spans  # noqa: E402
from measure import open_loop, percentile, poisson_schedule, self_times, tail  # noqa: E402
from spans import Entry, Recorder, Span, install, layer_metrics  # noqa: E402


# ------------------------------------------------------------- tail rule
def test_tail_needs_ten_samples_beyond():
    values = list(range(1, 101))            # 100 samples
    assert tail(values) == (90.0, 90, 10)   # p95 would leave only 5 beyond
    assert tail(values[:99])[0] == 50.0     # p90 of 99 leaves 9 beyond
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(10_000)))[0] == 99.9
    assert tail(list(range(19))) is None    # even the median has 9 beyond


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7], 0) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


# ------------------------------------------------------------- self time
def _span(sid, parent, start, end, thread=1, name="x"):
    return Span(sid, parent, name, start, end, None, thread)


def test_self_time_subtracts_children_only():
    spans_ = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 6.0),
        # a worker thread's root overlaps span 1 in wall time but is not
        # its child, so it takes nothing from span 1's self time
        _span(5, 0, 2.0, 8.0, thread=2),
        _span(6, 5, 3.0, 5.0, thread=2),
    ]
    assert self_times(spans_) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 4.0, 6: 2.0}


def test_self_time_clips_children_to_the_parent():
    assert self_times([_span(1, 0, 0.0, 2.0), _span(2, 1, 1.0, 3.0)])[1] == 1.0


def test_spans_nest_per_thread_including_worker_threads():
    recorder = Recorder()
    recorder.active = True

    def leaf():
        time.sleep(0.002)

    def worker_body():
        recorder.call("worker.inner", leaf, (), {})

    def on_worker():
        thread = threading.Thread(
            target=lambda: recorder.call("worker.root", worker_body, (), {}))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    recorder.op = 7
    recorder.span("op", on_worker)
    got = {s.name: s for s in recorder.spans()}
    assert got["op"].parent == 0
    # the worker's span is a root on its own thread, its callee nests in it
    assert got["worker.root"].parent == 0
    assert got["worker.root"].thread != got["op"].thread
    assert got["worker.inner"].parent == got["worker.root"].id
    assert all(s.op == 7 for s in got.values())
    selfs = self_times(recorder.spans())
    root, inner = got["worker.root"], got["worker.inner"]
    assert selfs[root.id] == pytest.approx(
        (root.end - root.start) - (inner.end - inner.start))
    assert selfs[got["op"].id] == pytest.approx(got["op"].end - got["op"].start)


def test_inactive_recorder_records_nothing():
    recorder = Recorder()
    assert recorder.call("x", lambda: 3, (), {}) == 3
    assert recorder.spans() == []


def test_span_records_a_raising_call():
    recorder = Recorder()
    recorder.active = True
    with pytest.raises(KeyError):
        recorder.call("boom", {}.__getitem__, ("k",), {})
    (span,) = recorder.spans()
    assert span.name == "boom" and span.end >= span.start


# ----------------------------------------------------------- open loop
def test_open_loop_times_from_due_and_reports_lateness():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 2.0]          # the generator ran late on the second
    done = [0.1, 1.6, 2.05]
    latencies, lateness = open_loop(due, sent, done)
    assert latencies == pytest.approx([0.1, 0.6, 0.05])
    assert lateness == pytest.approx([0.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        open_loop([0.0], [0.0, 1.0], [0.1])


def test_poisson_schedule_is_seeded_with_a_fixed_count():
    a = poisson_schedule(np.random.default_rng(3), 200, 10.0)
    b = poisson_schedule(np.random.default_rng(3), 200, 10.0)
    assert a == b and len(a) == 200
    assert a == sorted(a) and 0.0 <= a[0] and a[-1] < 10.0
    assert a != poisson_schedule(np.random.default_rng(4), 200, 10.0)


# ------------------------------------------------------- wrapper table
class _Thing:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return x * 2


def test_absent_table_entries_are_reported_not_fatal(monkeypatch):
    module = types.ModuleType("perfbench_fake_target")
    module.Thing = _Thing
    module.REGISTRY = {"a": ("kind", _Thing)}
    monkeypatch.setitem(sys.modules, module.__name__, module)
    table = (
        Entry("gone.module", "perfbench_no_such_module", "f"),
        Entry("gone.attr", module.__name__, "Thing.deleted_path"),
        Entry("gone.class", module.__name__, "Missing.method"),
        Entry("thing.method", module.__name__, "Thing.method"),
        Entry("thing.build", module.__name__, "Thing.build"),
        Entry("thing.each", module.__name__, "REGISTRY", each="method"),
    )
    original = vars(_Thing)["method"]
    recorder = Recorder()
    recorder.active = True
    installed = install(recorder, table)
    try:
        assert len(installed.absent) == 3
        assert _Thing().method(1) == 2 and _Thing.build(2) == 4
        # the registry entry names the same method: wrapped once, not twice
        assert [s.name for s in recorder.spans()] == ["thing.method", "thing.build"]
    finally:
        installed.remove()
    assert vars(_Thing)["method"] is original
    assert isinstance(vars(_Thing)["build"], classmethod)
    # the layer arithmetic copes with layers that produced no spans at all
    metrics = layer_metrics(recorder.spans(), 1, {}, 0.0)
    assert metrics["plan.specialize_ms"] == 0.0
    assert metrics["trace.unattributed_frac"] == 0.0


def test_every_table_entry_resolves_at_this_commit():
    sys.path.insert(1, str(HERE.parent / "src"))
    recorder = Recorder()
    installed = install(recorder)
    try:
        assert installed.absent == []
        from repro.gpusim.executor import GpuExecutor

        assert GpuExecutor.run.__wrapped__ is not None
    finally:
        installed.remove()
    from repro.gpusim.executor import GpuExecutor

    assert not hasattr(GpuExecutor.run, "__wrapped__")


def test_layer_metrics_attribute_container_self_time():
    spans_ = [
        Span(1, 0, "op", 0.0, 1.0, 0, 1),
        Span(2, 1, "plan.specialize", 0.0, 0.6, 0, 1),
        Span(3, 1, "gpusim.run", 0.6, 0.9, 0, 1, note=40),
    ]
    metrics = layer_metrics(spans_, 1, {}, 0.0)
    assert metrics["plan.specialize_ms"] == pytest.approx(600.0)
    assert metrics["gpusim.execute_ms"] == pytest.approx(300.0)
    assert metrics["gpusim.launches"] == 40
    assert metrics["gpusim.us_per_launch"] == pytest.approx(7500.0)
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.1)


# ------------------------------------------------------ benchmark record
def test_benchmark_json_matches_what_the_benchmark_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert measure.MIN_BEYOND == 10
    assert spans.CONTAINERS  # the attribution has something to subtract
