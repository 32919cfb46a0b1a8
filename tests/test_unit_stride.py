"""Unit-stride streams against the per-pair oracle.

A stream whose addresses are ``base + pair * element_bytes`` (the row
arrays of a CSR loop, ``col[row_start + j]``) is costed without a sort: a
thread-mapped phase counts it from the rows alone, and the window tables
with one neighbour comparison.  Both must build bit-identical launch
graphs to the per-pair path: every ``Launch`` cost array and every
``ProfileCounters`` field.  The oracle is the per-pair path, forced by
clearing the analysis's unit-stride record before any table is built.
"""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SpMVApp
from repro.core import mapping
from repro.core.analysis import WorkloadAnalysis
from repro.core.mapping import add_thread_mapped_inner, clear_phase_memo
from repro.core.params import TemplateParams
from repro.core.registry import NESTED_LOOP_TEMPLATES, resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.gpusim.config import KEPLER_K20
from repro.gpusim.costmodel import KernelCostBuilder
from repro.graphs import citeseer_like
from repro.graphs.generators import degree_sequence_graph, lognormal_degrees
from test_window_table import _build, _graph, _plan_state

ELEMENT_BYTES = (1, 2, 3, 4, 8, 12, 16, 64, 128, 256)
#: (lbTHRES, lb_block, thread_block): warp multiples and blocks whose
#: warps straddle a block boundary, for both the rows and the windows
POINTS = [(lbt, lb_block, thread_block)
          for lbt in (1, 8, 64)
          for lb_block, thread_block in ((64, 192), (96, 64), (32, 100),
                                         (48, 48))]


def _oracle(wl) -> WorkloadAnalysis:
    """A fresh analysis of ``wl`` that records no unit-stride stream."""
    an = WorkloadAnalysis.from_workload(wl)
    an.unit_stride = (False,) * len(an.unit_stride)
    return an


def _trace(trips, element_bytes, bases, gather=False, atomics=False,
           seed=0) -> NestedLoopWorkload:
    """Unit-stride row streams of the given element sizes and base
    addresses, optionally with a scattered gather and live atomics."""
    trips = np.asarray(trips, dtype=np.int64)
    nnz = int(trips.sum())
    rng = np.random.default_rng(seed)
    streams = [AccessStream(f"rows{k}", base + np.arange(nnz) * eb, "load", eb)
               for k, (eb, base) in enumerate(zip(element_bytes, bases))]
    if gather:
        streams.append(AccessStream("gather", rng.integers(0, 4096, nnz) * 8,
                                    "load", 8))
    targets = None
    if atomics:
        targets = np.where(rng.random(nnz) < 0.5, rng.integers(0, 9, nnz), -1)
    return NestedLoopWorkload("unit-stride", trips, streams,
                              atomic_targets=targets)


def _mixed_trips(n, seed) -> np.ndarray:
    """Runs of short rows and zero-trip rows between long rows: short rows
    share segments with their neighbours, and the long rows keep the
    near-lane mask below the pair count (the closed form is taken)."""
    rng = np.random.default_rng(seed)
    trips = rng.integers(1, 9, n)
    trips[rng.random(n) < 0.25] = 0
    long = rng.random(n) < 0.4
    trips[long] = rng.integers(200, 400, int(long.sum()))
    trips[3:9] = 0
    return trips


def _synthetic():
    """Element sizes narrower and wider than a segment at unaligned bases,
    a unit-stride staged store, a gather and hot atomic targets."""
    wl = _trace(_mixed_trips(300, seed=4), (1, 3, 12, 256),
                (5, 1_000_003, 77, 64), gather=True, atomics=True, seed=4)
    out = AccessStream("out", 9 + np.arange(wl.n_pairs) * 4, "store", 4,
                       staged_in_shared=True)
    return NestedLoopWorkload("synthetic", wl.trip_counts, wl.streams + [out],
                              atomic_targets=wl.atomic_targets)


def _spmv_long():
    """SpMV on rows as long as CiteSeer's (mean degree ~70)."""
    degrees = lognormal_degrees(300, 70.0, 400, seed=8)
    graph = degree_sequence_graph(degrees, seed=9, locality=0.5)
    return SpMVApp(graph, seed=0).workload()


WORKLOADS = {
    "spmv": lambda: SpMVApp(_graph(), seed=0).workload(),
    "spmv-long": _spmv_long,
    "rows": lambda: _trace(_mixed_trips(300, seed=2), (4, 8), (0, 4 * 7 + 68)),
    "synthetic": _synthetic,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("template", sorted(NESTED_LOOP_TEMPLATES))
def test_templates_match_per_pair_oracle(template, workload):
    wl = WORKLOADS[workload]()
    an = WorkloadAnalysis.from_workload(wl)
    assert any(an.unit_stride)
    oracle = _oracle(wl)
    for lbt, lb_block, thread_block in POINTS:
        params = TemplateParams(lb_threshold=lbt, lb_block=lb_block,
                                thread_block=thread_block)
        got = _plan_state(*_build(template, wl, an, params))
        assert got == _plan_state(*_build(template, wl, oracle, params)), params


# ------------------------------------------------------ thread-mapped phases

def _builder_state(builder):
    """Every per-warp array and counter a phase leaves on its builder."""
    arrays = builder._arrays
    return (arrays.compute_slots.tobytes(), arrays.mem_transactions.tobytes(),
            arrays.atomic_cycles.tobytes(),
            dataclasses.asdict(builder.counters))


def _thread_phase(wl, an, rows, threads, block, trips=None):
    clear_phase_memo()
    n_blocks = -(-(int(threads.max()) + 1) // block)
    builder = KernelCostBuilder(KEPLER_K20, "phase", block, n_blocks)
    add_thread_mapped_inner(builder, wl, rows, threads, trips=trips,
                            analysis=an)
    return builder


@pytest.fixture
def closed_streams(monkeypatch):
    """The stream indices each thread-mapped phase counted in closed form."""
    taken = []
    real = mapping._unit_stride_counts

    def spy(*args):
        known = real(*args)
        taken.append(sorted(known))
        return known

    monkeypatch.setattr(mapping, "_unit_stride_counts", spy)
    return taken


def _thread_map(kind, n, rng):
    """(rows, threads) of an identity, rank, sparse ascending or shuffled
    thread map over ``n`` rows."""
    rows = np.arange(n, dtype=np.int64)
    if kind == "identity":
        return rows, rows
    subset = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
    if kind == "rank":
        return subset, np.arange(subset.size, dtype=np.int64)
    if kind == "sparse":
        threads = np.sort(rng.choice(2 * n, size=subset.size, replace=False))
        return subset, threads
    return subset, rng.permutation(subset.size)  # rows do not ascend


@st.composite
def _phases(draw):
    n = draw(st.integers(1, 160))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p_zero, p_long = draw(st.sampled_from(
        ((0.0, 0.0), (0.3, 0.0), (0.2, 0.3), (0.1, 0.6), (0.0, 1.0))))
    trips = rng.integers(1, 9, n)
    long = rng.random(n) < p_long
    trips[long] = rng.integers(40, 300, int(long.sum()))
    trips[rng.random(n) < p_zero] = 0
    for start, length in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, 30)),
            max_size=3)):
        trips[start:start + length] = 0
    sizes = draw(st.lists(st.sampled_from(ELEMENT_BYTES), min_size=1,
                          max_size=3))
    bases = draw(st.lists(st.integers(0, 4096), min_size=len(sizes),
                          max_size=len(sizes)))
    return dict(
        trips=trips, sizes=sizes, bases=bases, seed=seed,
        gather=draw(st.booleans()), atomics=draw(st.booleans()),
        kind=draw(st.sampled_from(("identity", "rank", "sparse",
                                   "shuffled"))),
        block=draw(st.sampled_from((32, 64, 192, 48, 100))),
        capped=draw(st.booleans()),
    )


def _check_phase(case):
    wl = _trace(case["trips"], case["sizes"], case["bases"],
                gather=case["gather"], atomics=case["atomics"],
                seed=case["seed"])
    rng = np.random.default_rng(case["seed"])
    rows, threads = _thread_map(case["kind"], wl.outer_size, rng)
    trips = None
    if case["capped"]:
        full = wl.trip_counts[rows]
        trips = rng.integers(full // 2, full + 1)
    got = _thread_phase(wl, WorkloadAnalysis.from_workload(wl), rows,
                        threads, case["block"], trips)
    want = _thread_phase(wl, _oracle(wl), rows, threads, case["block"],
                         trips)
    assert _builder_state(got) == _builder_state(want)


@settings(max_examples=150, deadline=None)
@given(_phases())
def test_thread_phase_matches_per_pair_oracle(case):
    _check_phase(case)


@pytest.mark.parametrize("element_bytes", ELEMENT_BYTES)
@pytest.mark.parametrize("kind", ("identity", "rank", "sparse"))
@pytest.mark.parametrize("block", (48, 100, 192))
def test_long_rows_take_the_closed_form(element_bytes, kind, block,
                                        closed_streams):
    """Short rows between long ones share segments, and the closed form
    (not the short-row rule) counts them, exactly."""
    case = dict(trips=_mixed_trips(150, seed=element_bytes),
                sizes=[element_bytes], bases=[element_bytes * 7 + 5],
                seed=block, gather=True, atomics=False, kind=kind,
                block=block, capped=kind == "sparse")
    _check_phase(case)
    assert closed_streams[0] == [0]


def test_zero_trip_run_between_sharing_lanes(closed_streams):
    """In warp 0, lane 21 shares segments with lane 0 across 20 zero-trip
    lanes; warp 1's long rows keep the closed form taken."""
    trips = [3] + [0] * 20 + [2] + [5] * 10 + [300] * 8
    wl = _trace(trips, (8,), (64,))
    rows = np.arange(len(trips), dtype=np.int64)
    got = _thread_phase(wl, WorkloadAnalysis.from_workload(wl), rows, rows,
                        32)
    assert closed_streams == [[0]]
    want = _thread_phase(wl, _oracle(wl), rows, rows, 32)
    assert got._arrays.mem_transactions.tolist() == [18, 8 * 300]
    assert _builder_state(got) == _builder_state(want)


def test_short_rows_take_the_per_pair_path(closed_streams):
    """On short rows the near-lane mask would outgrow the pairs, so the
    row streams are sorted like any other (never-seen serve traces)."""
    degrees = lognormal_degrees(1_000, 10.0, 200, seed=3)
    wl = SpMVApp(degree_sequence_graph(degrees, seed=4, locality=0.6),
                 seed=3).workload()
    an = WorkloadAnalysis.from_workload(wl)
    assert an.unit_stride == (True, True, False)
    rows = np.arange(wl.outer_size, dtype=np.int64)
    got = _thread_phase(wl, an, rows, rows, 192)
    assert closed_streams == [[]]
    assert _builder_state(got) == _builder_state(
        _thread_phase(wl, _oracle(wl), rows, rows, 192))


# ---------------------------------------------------------------- windows

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ELEMENT_BYTES),
       st.integers(0, 4096), st.integers(1, 40))
def test_window_tables_match_sorted_counts(seed, element_bytes, base,
                                           n_blocks):
    rng = np.random.default_rng(seed)
    trips = _mixed_trips(int(rng.integers(1, 120)), seed)
    short = rng.random(trips.size) < 0.5
    trips[short] = rng.integers(0, 70, int(short.sum()))
    wl = _trace(trips, (element_bytes,), (base,), gather=True, seed=seed)
    an, oracle = WorkloadAnalysis.from_workload(wl), _oracle(wl)
    got, want = an.warp_windows(wl, 64, 32), oracle.warp_windows(wl, 64, 32)
    assert [s.tobytes() for s in got.segments] == [
        s.tobytes() for s in want.segments]
    subset = np.flatnonzero(rng.random(wl.outer_size) < 0.6)
    for rows in (subset, rng.permutation(subset)):  # ascending, shuffled
        got = an.buffer_windows(wl, rows, n_blocks, 64, 32)
        want = oracle.buffer_windows(wl, rows, n_blocks, 64, 32)
        assert [s.tobytes() for s in got.segments] == [
            s.tobytes() for s in want.segments]


# ------------------------------------------------------------------ counts

@pytest.fixture
def phase_calls(monkeypatch):
    """Calls of ``pairs_of`` and ``mapping.transaction_counts`` made inside
    each kind of mapping phase, plus the phases costed, by phase tag."""
    calls = collections.Counter()
    active = []
    real_run = mapping._run_phase

    def run_phase(builder, key, body):
        def counted(b):
            calls[key[0], "phases"] += 1
            active.append(key[0])
            try:
                body(b)
            finally:
                active.pop()
        real_run(builder, key, counted)

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            if active:
                calls[active[-1], name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mapping, "_run_phase", run_phase)
    monkeypatch.setattr(mapping, "transaction_counts",
                        spy("sorts", mapping.transaction_counts))
    monkeypatch.setattr(NestedLoopWorkload, "pairs_of",
                        spy("pairs_of", NestedLoopWorkload.pairs_of))
    return calls


#: every registry template with a thread-mapped phase
THREAD_MAPPED = sorted(set(NESTED_LOOP_TEMPLATES) - {"block-mapped"})


@pytest.mark.parametrize("template", THREAD_MAPPED)
def test_unit_stride_rows_expand_no_pairs(template, phase_calls):
    """All streams unit-stride, no atomics, rows of 64+ pairs: the
    thread-mapped phase neither expands pairs nor sorts."""
    trips = np.random.default_rng(1).integers(64, 200, 400)
    wl = _trace(trips, (4, 8, 12), (0, 100_004, 3))
    an = WorkloadAnalysis.from_workload(wl)
    clear_phase_memo()
    resolve(template).specialize(wl, an, KEPLER_K20,
                                 TemplateParams(lb_threshold=128))
    assert phase_calls["thread", "phases"] >= 1
    assert phase_calls["thread", "pairs_of"] == 0
    assert phase_calls["thread", "sorts"] == 0


@pytest.mark.parametrize("template", THREAD_MAPPED)
def test_spmv_thread_phase_sorts_only_the_gather(template, phase_calls):
    """SpMV's col and val arrays are unit-stride; only ``x[col]`` sorts."""
    wl = SpMVApp(citeseer_like(scale=0.005, seed=0), seed=0).workload()
    an = WorkloadAnalysis.from_workload(wl)
    assert an.unit_stride == (True, True, False)
    for lbt in (64, 192):
        clear_phase_memo()
        resolve(template).specialize(wl, an, KEPLER_K20,
                                     TemplateParams(lb_threshold=lbt))
    phases = phase_calls["thread", "phases"]
    assert phases >= 1
    assert phase_calls["thread", "sorts"] == phases
    assert phase_calls["thread", "pairs_of"] == phases
