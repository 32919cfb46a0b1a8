"""Multi-device backend: shard workloads across N simulated devices.

:class:`DeviceGroup` owns N :class:`~repro.backends.sim.SimBackend`
members (identical device configs) and supports two modes of use:

* **Graph routing** (:meth:`DeviceGroup.submit_many`) — each launch
  graph goes to the least-loaded member, where load is the simulated busy
  time it has accumulated plus its in-flight submissions.  This is how
  the serving layer spreads independent batches over devices.
* **Sharded runs** (:func:`run_sharded`) — one workload is split by the
  planner in :mod:`repro.core.sharding`, each shard builds and executes
  its own plan on its member device (concurrently, on a thread pool —
  the simulator releases no locks but each shard run is pure Python +
  NumPy, so threads mainly overlap the per-shard executor passes), and
  the per-device results merge into one combined
  :class:`GroupExecutionResult` whose components stay inspectable.

Merge semantics mirror real concurrent devices: simulated time is the
**max** over members (they run in parallel), busy cycles / launch counts
/ profiler counters are **sums**, and the merged launch graph is the
concatenation of the shard graphs (parent links and stream ids offset
per shard) so profiling and inspection tools keep working unchanged.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.backends.base import Backend, BackendCapabilities, capabilities_of
from repro.backends.sim import SimBackend
from repro.errors import ConfigError
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.executor import ExecutionResult
from repro.gpusim.kernels import HOST, LaunchGraph, ProfileCounters

__all__ = ["DeviceGroup", "GroupExecutionResult", "run_sharded"]


@dataclass
class GroupExecutionResult(ExecutionResult):
    """Merged outcome of a multi-device run; per-device parts attached.

    Aggregate fields follow concurrent-execution semantics — ``cycles`` /
    ``time_ms`` are the slowest member (the group finishes when the last
    device does), ``sm_busy_cycles`` / ``sm_count`` / launch counts sum —
    so ``sm_utilization`` reads as busy cycles over the whole group's
    cycle budget for the run's duration.
    """

    #: per-member :class:`ExecutionResult`, indexed by device
    per_device: list[ExecutionResult] = field(default_factory=list)
    #: chunks executed on a non-home device (work-stealing runs only)
    steals: int = 0

    @property
    def n_devices(self) -> int:
        """Members that executed a shard."""
        return len(self.per_device)


class DeviceGroup(Backend):
    """N identical simulated devices behind one backend."""

    name = "group"

    def __init__(
        self,
        device: DeviceConfig = KEPLER_K20,
        n_devices: int = 2,
        *,
        engine: str | None = None,
        record_timeline: bool = False,
        steal_chunks: int = 0,
    ) -> None:
        if n_devices < 1:
            raise ConfigError(
                f"a DeviceGroup needs at least 1 device, got {n_devices}"
            )
        if steal_chunks < 0:
            raise ConfigError(
                f"steal_chunks cannot be negative, got {steal_chunks}"
            )
        self.members = [
            SimBackend(device, engine=engine,
                       record_timeline=record_timeline, device_index=i)
            for i in range(n_devices)
        ]
        self._capabilities = capabilities_of(device, devices=n_devices)
        self._lock = threading.Lock()
        self._inflight = [0] * n_devices
        #: work-stealing granularity of :func:`run_sharded`: 0 keeps the
        #: classic one-shard-per-device static split; K > 0 over-shards
        #: into ``n_devices * K`` chunks and lets idle devices steal
        #: unstarted chunks from stragglers (see docs/serving.md)
        self.steal_chunks = steal_chunks
        #: chunks that ran on a non-home device in sharded runs
        self.steals = 0
        #: complete() calls that would have driven an in-flight counter
        #: negative — a double release.  The counter is clamped so load
        #: routing survives, but the underflow is counted (and asserted
        #: zero in the multi-device smoke) instead of silently masked.
        self.release_underflows = 0

    @property
    def device(self) -> DeviceConfig:
        return self.members[0].device

    @property
    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    @property
    def engine(self) -> str | None:
        return self.members[0].engine

    @property
    def record_timeline(self) -> bool:
        return self.members[0].record_timeline

    # ------------------------------------------------------------- routing
    def least_loaded(self) -> int:
        """Member index with the least accumulated + in-flight load."""
        with self._lock:
            return self._pick_locked()

    def _loads_locked(self) -> tuple[list[float], float]:
        """Per-member load (busy + in-flight) and the average busy time
        one in-flight graph is assumed to add."""
        avg = (sum(m.busy_ms for m in self.members)
               / len(self.members)) or 1.0
        load = [m.busy_ms + self._inflight[i] * avg
                for i, m in enumerate(self.members)]
        return load, avg

    def _pick_locked(self) -> int:
        load, _ = self._loads_locked()
        # least load, lowest index on ties
        return min(range(len(load)), key=lambda j: (load[j], j))

    def acquire(self) -> int:
        """Reserve the least-loaded member for an external execution.

        The serving layer reserves one member per fusion group: the group
        runs on a backend of its own (the member's executor never sees
        the graphs), so the reservation tracks expected load until
        :meth:`complete`.
        """
        with self._lock:
            i = self._pick_locked()
            self._inflight[i] += 1
            return i

    def complete(self, index: int, busy_ms: float = 0.0) -> None:
        """Release a reservation, crediting the simulated time it ran.

        A release without a matching :meth:`acquire` (a double release)
        is a caller bug: the counter stays clamped at zero so routing
        keeps working, but the underflow is counted on
        ``release_underflows`` and the ``device.release_underflow`` obs
        counter rather than silently masked.
        """
        with self._lock:
            if self._inflight[index] <= 0:
                self.release_underflows += 1
                obs.add_counter("device.release_underflow")
                obs.instant("device.release_underflow", device=index)
            else:
                self._inflight[index] -= 1
            self.members[index].busy_ms += busy_ms

    # ------------------------------------------------------- elasticity
    def add_member(self) -> int:
        """Grow the group by one device; returns the new member's index.

        The autoscaling path of the serving tier: a new idle member
        immediately attracts routing (least-loaded picks it first).
        """
        with self._lock:
            index = len(self.members)
            first = self.members[0]
            self.members.append(
                SimBackend(first.device, engine=first.engine,
                           record_timeline=first.record_timeline,
                           device_index=index)
            )
            self._inflight.append(0)
            self._capabilities = capabilities_of(
                first.device, devices=len(self.members)
            )
            return index

    def remove_member(self) -> bool:
        """Shrink the group by its last member, only when that member is
        idle (no in-flight reservations); returns whether it shrank.

        Only the *last* member is ever removed so indices handed out by
        :meth:`acquire` stay valid — a device with reservations can never
        disappear underneath a ``complete()``.
        """
        with self._lock:
            if len(self.members) <= 1 or self._inflight[-1] != 0:
                return False
            self.members.pop()
            self._inflight.pop()
            self._capabilities = capabilities_of(
                self.members[0].device, devices=len(self.members)
            )
            return True

    def submit_many(self, graphs: list[LaunchGraph]) -> list[ExecutionResult]:
        """Spread a batch over members, fusing each member's share.

        Graphs are dealt greedily: each graph goes to the member that is
        least loaded *including the graphs already dealt this batch*
        (lowest index on ties — a single graph lands on
        :meth:`least_loaded`), then every member executes its share as
        one fused pass.  Results come back in input order; each graph's
        result is bit-identical to executing it alone on that member.
        """
        if not graphs:
            return []
        with self._lock:
            load, avg = self._loads_locked()
            shares: list[list[int]] = [[] for _ in self.members]
            for pos in range(len(graphs)):
                i = min(range(len(self.members)), key=lambda j: (load[j], j))
                shares[i].append(pos)
                load[i] += avg
                self._inflight[i] += 1
        results: list[ExecutionResult | None] = [None] * len(graphs)
        try:
            for i, share in enumerate(shares):
                if not share:
                    continue
                member_results = self.members[i].submit_many(
                    [graphs[pos] for pos in share]
                )
                for pos, result in zip(share, member_results):
                    results[pos] = result
        finally:
            with self._lock:
                for i, share in enumerate(shares):
                    self._inflight[i] -= len(share)
        return results

    def snapshot(self) -> dict:
        """Per-device load counters (for service/bench stats)."""
        with self._lock:
            return {
                "devices": len(self.members),
                "steal_chunks": self.steal_chunks,
                "steals": self.steals,
                "release_underflows": self.release_underflows,
                "per_device": [
                    {
                        "index": i,
                        "busy_ms": m.busy_ms,
                        "submissions": m.submissions,
                        "inflight": self._inflight[i],
                    }
                    for i, m in enumerate(self.members)
                ],
            }


# ------------------------------------------------------------------ merging

def _merge_graphs(graphs: list[LaunchGraph]) -> LaunchGraph:
    """Concatenate shard graphs, keeping parent links and streams disjoint.

    The merged graph exists for inspection and profiling (occupancy
    weighting, launch listings) — it is never re-executed, the per-shard
    results already are the execution.
    """
    merged = LaunchGraph()
    stream_base = 0
    for graph in graphs:
        parents = np.asarray(graph.parents, dtype=np.int64)
        streams = np.asarray(graph.streams, dtype=np.int64)
        host = parents == HOST
        merged.add_rows(
            graph.classes, graph.class_ids,
            np.where(host, HOST, parents + len(merged)),
            graph.parent_blocks,
            streams=np.where(host, streams + stream_base, streams),
            device_streams=graph.device_streams,
            issue_points=graph.issue_points,
            counts=graph.counts,
        )
        stream_base += int(streams[host].max(initial=0)) + 1
    return merged


def _merge_results(results: list[ExecutionResult]) -> GroupExecutionResult:
    """Fold per-device results into group (concurrent-devices) totals."""
    counters = ProfileCounters()
    for r in results:
        counters.merge(r.counters)
    records = []
    for r in results:
        records.extend(r.records)
    return GroupExecutionResult(
        cycles=max(r.cycles for r in results),
        time_ms=max(r.time_ms for r in results),
        counters=counters,
        sm_busy_cycles=sum(r.sm_busy_cycles for r in results),
        sm_count=sum(r.sm_count for r in results),
        n_launches=sum(r.n_launches for r in results),
        n_device_launches=sum(r.n_device_launches for r in results),
        pool_overflows=sum(r.pool_overflows for r in results),
        records=records,
        per_device=list(results),
    )


def _merge_serial(results: list[ExecutionResult]) -> ExecutionResult:
    """Fold chunk results that ran back-to-back on *one* device.

    The serial dual of :func:`_merge_results`: time and cycles **sum**
    (the device ran the chunks one after another), ``sm_count`` stays the
    single device's SM count.
    """
    counters = ProfileCounters()
    records = []
    for r in results:
        counters.merge(r.counters)
        records.extend(r.records)
    return ExecutionResult(
        cycles=sum(r.cycles for r in results),
        time_ms=sum(r.time_ms for r in results),
        counters=counters,
        sm_busy_cycles=sum(r.sm_busy_cycles for r in results),
        sm_count=results[0].sm_count,
        n_launches=sum(r.n_launches for r in results),
        n_device_launches=sum(r.n_device_launches for r in results),
        pool_overflows=sum(r.pool_overflows for r in results),
        records=records,
    )


def _steal_schedule(shards, runs, n: int):
    """Deterministic greedy work-stealing schedule over measured chunks.

    Chunks are dealt round-robin to home devices; the simulation then
    replays list scheduling — the earliest-finishing device takes its own
    next chunk, or, when its own list is empty, *steals the tail chunk*
    of the device with the most unstarted work left.  Identical member
    devices make a chunk's simulated time placement-independent, so the
    schedule can be computed exactly from the measured per-chunk times.

    Returns ``(assigned, clock, steals)``: per-device chunk lists, the
    per-device finish times, and how many chunks ran away from home.
    """
    from collections import deque

    own = [deque() for _ in range(n)]
    for shard, run in zip(shards, runs):
        own[shard.index % n].append((shard, run))
    remaining = [
        sum(run.result.time_ms for _, run in queue) for queue in own
    ]
    assigned = [[] for _ in range(n)]
    clock = [0.0] * n
    steals = 0
    for _ in range(len(shards)):
        device = min(range(n), key=lambda i: (clock[i], i))
        if own[device]:
            shard, run = own[device].popleft()
            home = device
        else:
            home = max(
                (i for i in range(n) if own[i]),
                key=lambda i: (remaining[i], -i),
            )
            shard, run = own[home].pop()
            steals += 1
        remaining[home] -= run.result.time_ms
        assigned[device].append((shard, run))
        clock[device] += run.result.time_ms
    return assigned, clock, steals


def _run_stolen(template, workload, group: DeviceGroup,
                config: DeviceConfig, shards, runs):
    """Merge over-sharded chunk runs under a work-stealing schedule."""
    from repro.core.base import TemplateRun, check_schedule
    from repro.gpusim.profiler import profile

    n = len(group.members)
    assigned, clock, steals = _steal_schedule(shards, runs, n)
    group.steals += steals
    obs.add_counter("device.steals", steals)
    per_device = []
    for device, chunk_runs in enumerate(assigned):
        if not chunk_runs:
            continue
        serial = _merge_serial([run.result for _, run in chunk_runs])
        per_device.append(serial)
        member = group.members[device]
        member.busy_ms += serial.time_ms
        member.submissions += len(chunk_runs)
        for shard, _ in chunk_runs:
            if shard.kind == "nested-loop":
                obs.add_counter(f"device.{device}.outer", shard.n_members)
                obs.add_counter(f"device.{device}.pairs",
                                shard.workload.n_pairs)
            else:
                obs.add_counter(f"device.{device}.nodes", shard.n_members)
    result = _merge_results(per_device)
    result.steals = steals
    graph = _merge_graphs([r.graph for r in runs])
    if shards[0].kind == "nested-loop":
        schedule = _merge_schedules(shards, runs)
        check_schedule(schedule, workload.outer_size)
    else:
        schedule = {"nodes": np.arange(workload.tree.n_nodes)}
    metrics = profile(graph, result, config)
    return TemplateRun(
        template=template.name,
        workload=workload.name,
        graph=graph,
        result=result,
        metrics=metrics,
        schedule=schedule,
        params=runs[0].params,
        device_runs=runs,
    )


def _merge_schedules(shards, runs) -> dict[str, np.ndarray]:
    """Map shard-local schedules back to original outer-iteration ids."""
    merged: dict[str, list[np.ndarray]] = {}
    for shard, run in zip(shards, runs):
        for phase, local_ids in run.schedule.items():
            local_ids = np.asarray(local_ids, dtype=np.int64)
            merged.setdefault(phase, []).append(shard.members[local_ids])
    return {
        phase: np.sort(np.concatenate(parts))
        for phase, parts in merged.items()
    }


def run_sharded(template, workload, group: DeviceGroup,
                config: DeviceConfig, params):
    """Run one workload sharded across a device group; merge the results.

    Each shard goes through the full single-device ``template.run`` path
    on its member backend — plan cache, disk artifact cache and run tier
    all apply per shard (shard fingerprints keep their keys disjoint from
    whole-workload keys).  Returns a merged
    :class:`~repro.core.base.TemplateRun` with ``device_runs`` holding
    the per-shard runs, or ``None`` when the workload cannot shard
    (caller falls back to single-device execution).
    """
    from repro.core.base import check_schedule
    from repro.core.sharding import shard_workload
    from repro.gpusim.profiler import profile

    n = len(group.members)
    if group.steal_chunks > 0 and n > 1:
        # work-stealing mode: over-shard into n*K chunks so a straggler
        # device's unstarted chunks can migrate to idle devices.  Chunk
        # timing is placement-independent (identical members), so chunks
        # execute concurrently on scratch backends and the steal schedule
        # is replayed deterministically from the measured times.
        chunks = shard_workload(workload, n * group.steal_chunks)
        if chunks is not None and len(chunks) > n:

            def run_chunk(shard):
                scratch = SimBackend(group.device, engine=group.engine)
                with obs.span("device.chunk", chunk=shard.index,
                              template=template.name,
                              workload=shard.workload.name):
                    return template.run(shard.workload, config, params,
                                        backend=scratch)

            with ThreadPoolExecutor(max_workers=n) as pool:
                chunk_runs = list(pool.map(run_chunk, chunks))
            return _run_stolen(template, workload, group, config,
                               chunks, chunk_runs)

    shards = shard_workload(workload, n)
    if shards is None:
        return None

    def run_one(shard):
        member = group.members[shard.index]
        with obs.span("device.run", device=shard.index,
                      template=template.name, workload=shard.workload.name):
            run = template.run(shard.workload, config, params,
                               backend=member)
        if shard.kind == "nested-loop":
            obs.add_counter(f"device.{shard.index}.outer", shard.n_members)
            obs.add_counter(f"device.{shard.index}.pairs",
                            shard.workload.n_pairs)
        else:
            obs.add_counter(f"device.{shard.index}.nodes", shard.n_members)
        return run

    if len(shards) == 1:
        runs = [run_one(shards[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            runs = list(pool.map(run_one, shards))

    result = _merge_results([r.result for r in runs])
    graph = _merge_graphs([r.graph for r in runs])
    if shards[0].kind == "nested-loop":
        schedule = _merge_schedules(shards, runs)
        check_schedule(schedule, workload.outer_size)
    else:
        schedule = {"nodes": np.arange(workload.tree.n_nodes)}
    metrics = profile(graph, result, config)
    from repro.core.base import TemplateRun

    return TemplateRun(
        template=template.name,
        workload=workload.name,
        graph=graph,
        result=result,
        metrics=metrics,
        schedule=schedule,
        params=runs[0].params,
        device_runs=runs,
    )
