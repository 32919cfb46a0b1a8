"""The warp-window table against the per-pair oracle.

With a warp-multiple block size every block-mapped or partitioned issue
slot is one 32-step window of the pair stream, and the mapping layer costs
the phase from the analysis's window facts instead of expanding pairs.
Both paths must build bit-identical launch graphs: every ``Launch`` cost
array and every ``ProfileCounters`` field.  The oracle is the per-pair
path, forced by declaring that no block size issues whole windows.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import BFSApp, SpMVApp, SSSPApp
from repro.core import analysis as analysis_mod
from repro.core.analysis import WorkloadAnalysis
from repro.core.mapping import clear_phase_memo
from repro.core.mutation import MutationBatch, PairInserts
from repro.core.params import TemplateParams
from repro.core.registry import resolve
from repro.core.workload import AccessStream, NestedLoopWorkload
from repro.gpusim.config import KEPLER_K20
from repro.graphs.generators import degree_sequence_graph, lognormal_degrees

TEMPLATES = ("block-mapped", "dual-queue", "dbuf-shared", "dbuf-global",
             "dpar-opt", "dpar-naive")
WARP_MULTIPLES = (32, 64, 96, 128, 192, 256)
#: block sizes whose warps straddle loop steps: always the per-pair path
OTHER_BLOCKS = (48, 100)
THRESHOLDS = (1, 8, 64)


def _graph(rows=300, seed=3):
    degrees = lognormal_degrees(rows, 12.0, 150, seed=seed)
    return degree_sequence_graph(degrees, seed=seed + 1, locality=0.5)


def _sssp_round():
    app = SSSPApp(_graph(), source=0)
    rounds = list(app._rounds())
    frontier, edge_idx, targets, improving, _ = rounds[len(rounds) // 2]
    return app.round_workload(frontier, edge_idx, targets, improving)


def _bfs_level():
    app = BFSApp(_graph(), source=0)
    frontiers = list(app._level_frontiers())
    return app._level_workload(frontiers[len(frontiers) // 2])


def _synthetic():
    """Zero-trip rows, one row longer than every block, hot atomic
    targets, and staged stores narrower and wider than a segment."""
    rng = np.random.default_rng(11)
    trips = rng.integers(0, 40, size=90)
    trips[::7] = 0
    trips[5] = 700
    nnz = int(trips.sum())
    pairs = np.arange(nnz)
    return NestedLoopWorkload(
        name="synthetic",
        trip_counts=trips,
        streams=[
            AccessStream("seq", pairs * 4, "load", 4),
            AccessStream("gather", rng.integers(0, 3_000, nnz) * 8, "load", 8),
            AccessStream("narrow", rng.integers(0, 500, nnz) * 4, "store", 4,
                         staged_in_shared=True),
            AccessStream("wide", rng.integers(0, 500, nnz) * 256, "store",
                         256, staged_in_shared=True),
        ],
        atomic_targets=np.where(rng.random(nnz) < 0.6,
                                rng.integers(0, 12, nnz), -1),
    )


WORKLOADS = {
    "spmv": lambda: SpMVApp(_graph(), seed=0).workload(),
    "sssp": _sssp_round,
    "bfs": _bfs_level,
    "synthetic": _synthetic,
}


def _per_pair(monkeypatch):
    monkeypatch.setattr(analysis_mod, "_issues_whole_windows",
                        lambda block_size, warp_size: False)


def _build(template, wl, an, params):
    """One specialize with a cold phase memo (a warm memo would replay
    the other path's effect)."""
    clear_phase_memo()
    return resolve(template).specialize(wl, an, KEPLER_K20, params)


def _plan_state(graph, schedule):
    """Every launch field, cost array (as bytes) and counter, plus the
    schedule: equal states mean bit-identical plans."""
    launches = []
    for launch in graph.launches:
        state = {k: v for k, v in vars(launch).items()
                 if k not in ("costs", "counters")}
        launches.append((
            state,
            launch.costs.block_cycles.tobytes(),
            launch.costs.block_floor.tobytes(),
            launch.costs.serial_tail,
            dataclasses.asdict(launch.counters),
        ))
    return launches, {k: v.tolist() for k, v in schedule.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("template", TEMPLATES)
def test_table_matches_per_pair_oracle(template, workload, monkeypatch):
    wl = WORKLOADS[workload]()
    an = WorkloadAnalysis.from_workload(wl)
    points = [TemplateParams(lb_threshold=lbt, lb_block=block)
              for lbt in THRESHOLDS for block in WARP_MULTIPLES + OTHER_BLOCKS]
    table = [_plan_state(*_build(template, wl, an, p)) for p in points]
    _per_pair(monkeypatch)
    for params, got in zip(points, table):
        assert got == _plan_state(*_build(template, wl, an, params)), params


def test_live_atomics_on_both_sides_of_every_threshold():
    """The oracle sees live atomics in short and long rows at every
    lbTHRES: the SSSP round at each, the synthetic input at 8 and 64."""
    for name, thresholds in (("sssp", THRESHOLDS), ("synthetic", (8, 64))):
        wl = WORKLOADS[name]()
        trips = np.repeat(wl.trip_counts, wl.trip_counts)
        live = wl.atomic_targets >= 0
        for lbt in thresholds:
            assert np.any(live & (trips <= lbt)), (name, lbt)
            assert np.any(live & (trips > lbt)), (name, lbt)


def test_other_block_sizes_take_the_per_pair_path():
    wl = _synthetic()
    an = WorkloadAnalysis.from_workload(wl)
    rows = np.arange(wl.outer_size)
    for block in OTHER_BLOCKS:
        assert an.warp_windows(wl, block, 32) is None
        assert an.buffer_windows(wl, rows, 4, block, 32) is None
    # a device with another warp size never reads the 32-step table
    assert an.warp_windows(wl, 64, 64) is None
    assert an._windows is None
    assert an.warp_windows(wl, 64, 32) is an.warp_windows(wl, 256, 32)


def test_row_windows_hold_the_trace_facts():
    wl = _synthetic()
    an = WorkloadAnalysis.from_workload(wl)
    table = an.warp_windows(wl, 64, 32)
    assert table.counts.tolist() == (-(-wl.trip_counts // 32)).tolist()
    long_row = table.offsets[5] + np.arange(table.counts[5])
    start = wl.pair_offsets[5]
    for k, window in enumerate(long_row):
        pairs = np.arange(start + 32 * k, min(start + 32 * k + 32,
                                              wl.pair_offsets[6]))
        gather = np.unique(wl.streams[1].addresses[pairs] // 128)
        assert table.segments[1][window] == gather.size
        wide = np.unique(pairs * 256 // 128)
        assert table.staged[3][window] == wide.size
        targets = wl.atomic_targets[pairs]
        live = targets[targets >= 0]
        assert table.live[window] == live.size
        top = np.bincount(live).max() if live.size else 0
        assert table.mult[window] == top
    assert table.staged[0] is None and table.staged[1] is None


def test_delta_derived_analysis_matches_from_workload():
    wl = _synthetic()
    parent = WorkloadAnalysis.from_workload(wl)
    parent.warp_windows(wl, 64, 32)  # the parent's table must not leak
    parent.buffer_windows(wl, np.arange(10), 4, 64, 32)
    rng = np.random.default_rng(5)
    batch = MutationBatch(
        inserts=PairInserts(
            outer_ids=rng.integers(0, wl.outer_size, 9),
            stream_addresses=[rng.integers(0, 400, 9) * s.element_bytes
                              for s in wl.streams],
            atomic_targets=rng.integers(-1, 12, 9),
        ),
        delete_pairs=rng.choice(wl.n_pairs, size=9, replace=False),
    )
    child, delta = wl.mutated(batch)
    derived = parent.apply_delta(delta)
    assert derived is not None
    assert derived._windows is None and not derived._buffer_windows
    fresh = WorkloadAnalysis.from_workload(child)
    for template in TEMPLATES:
        for block in (64, 96, 48):
            params = TemplateParams(lb_threshold=8, lb_block=block)
            assert (_plan_state(*_build(template, child, derived, params))
                    == _plan_state(*_build(template, child, fresh, params)))
