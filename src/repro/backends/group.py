"""Multi-device backend: shard workloads across N simulated devices.

:class:`DeviceGroup` owns N :class:`~repro.backends.sim.SimBackend`
members (identical device configs) and supports two modes of use:

* **Graph routing** (:meth:`DeviceGroup.submit_many`) — each launch
  graph goes to the least-loaded member, where load is the simulated busy
  time it has accumulated plus its in-flight submissions.
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
from repro.errors import check_count
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
    ) -> None:
        check_count("n_devices", n_devices, 1)
        self.members = [
            SimBackend(device, engine=engine, device_index=i)
            for i in range(n_devices)
        ]
        self._capabilities = capabilities_of(device, devices=n_devices)
        self._lock = threading.Lock()
        self._inflight = [0] * n_devices

    @property
    def device(self) -> DeviceConfig:
        return self.members[0].device

    @property
    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    @property
    def engine(self) -> str | None:
        return self.members[0].engine

    # ------------------------------------------------------------- routing
    def submit_many(self, graphs: list[LaunchGraph]) -> list[ExecutionResult]:
        """Spread a batch over members, fusing each member's share.

        Graphs are dealt greedily: each graph goes to the member that is
        least loaded *including the graphs already dealt this batch*
        (lowest index on ties).  A member's load is its simulated busy
        time plus its in-flight graphs, each counted at the members'
        average busy time.  Then every member executes its share as one
        fused pass.  Results come back in input order; each graph's
        result is bit-identical to executing it alone on that member.
        """
        if not graphs:
            return []
        with self._lock:
            avg = (sum(m.busy_ms for m in self.members)
                   / len(self.members)) or 1.0
            load = [m.busy_ms + self._inflight[i] * avg
                    for i, m in enumerate(self.members)]
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
    from repro.core.base import TemplateRun, check_schedule
    from repro.core.sharding import shard_workload
    from repro.gpusim.profiler import profile

    shards = shard_workload(workload, len(group.members))
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
