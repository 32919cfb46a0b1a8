"""`QueueBackend`: the persistent-queue execution model behind the seam.

Implements the same :class:`~repro.backends.base.Backend` contract as the
BSP simulator — ``submit_many(graphs) -> [ExecutionResult]`` — so every
template runs on it unchanged.  A submitted launch graph is converted to
a :class:`~repro.queue.tasks.TaskGraph`:

* each thread-block of each launch becomes one task;
* host launches keep their stream order as *phase* dependencies (the
  blocks of launch *k* in a stream gate launch *k+1*'s blocks — the
  conservative reading of BSP semantics, after IrGL's observation that
  only cross-kernel data dependencies need the barrier);
* device (dynamic-parallelism) launches lose the grid-management queue
  entirely: their blocks become *spawned* tasks pushed by the parent
  block's task — frontier-push semantics with no launch latency.

Asynchronous applications skip the conversion and hand a
:class:`TaskGraph` straight to :meth:`QueueBackend.submit_tasks`.

Cache integration: the backend advertises ``run_cache_tag``, which the
template run wrappers put in every ``run`` cache key, so queue results
never share an entry with BSP results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.backends.base import Backend, BackendCapabilities, capabilities_of
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.executor import ExecutionResult
from repro.gpusim.kernels import HOST, LaunchGraph
from repro.queue.model import QueueConfig, QueueStats, simulate, worker_count
from repro.queue.tasks import TaskGraph

__all__ = ["QueueBackend", "QueueExecutionResult", "graph_to_tasks"]


@dataclass
class QueueExecutionResult(ExecutionResult):
    """An :class:`ExecutionResult` with the queue model's extra metrics.

    ``n_launches`` is 1 — the persistent kernel — and
    ``n_device_launches`` 0 regardless of how many nested launches the
    submitted graph declared: spawns became queue pushes.
    """

    n_workers: int = 0
    n_queues: int = 0
    tasks_enqueued: int = 0
    tasks_executed: int = 0
    tasks_cancelled: int = 0
    steals: int = 0
    polls: int = 0
    max_queue_depth: int = 0
    enqueue_contention_cycles: float = 0.0
    dequeue_contention_cycles: float = 0.0
    counter_contention_cycles: float = 0.0
    #: cycles between the last task completing and the last worker retiring
    termination_cycles: float = 0.0
    #: summed worker-cycles spent quiescing (idle tail during detection)
    termination_wait_cycles: float = 0.0
    worker_busy_cycles: np.ndarray = field(
        default_factory=lambda: np.zeros(0)
    )

    @property
    def termination_overhead(self) -> float:
        """Termination detection as a fraction of the makespan."""
        if self.cycles <= 0:
            return 0.0
        return self.termination_cycles / self.cycles


def graph_to_tasks(graph: LaunchGraph, config: DeviceConfig,
                   name: str = "launch-graph") -> TaskGraph:
    """Convert a BSP launch graph into the queue model's task population."""
    work_parts: list[np.ndarray] = []
    phase_parts: list[np.ndarray] = []
    dep_parts: list[np.ndarray] = []
    spawn_parts: list[np.ndarray] = []
    tails: list[float] = []

    #: first task id of each row; replicas of a bulk launch share one
    #: costs record but spawn from the same parent block
    first_task: list[int] = []
    n_tasks = 0
    last_phase_in_stream: dict[int, int] = {}
    #: per class: each block's task work (its work, or its floor if longer)
    class_blocks = [np.maximum(cls.costs.block_cycles, cls.costs.block_floor)
                    for cls in graph.classes]

    for row, cid in enumerate(graph.class_ids):
        costs = graph.classes[cid].costs
        blocks = class_blocks[cid]
        reps = graph.counts[row]
        parent = graph.parents[row]
        first_task.append(n_tasks)
        if parent == HOST:
            pid = len(tails)
            stream = graph.streams[row]
            dep = last_phase_in_stream.get(stream, -1)
            last_phase_in_stream[stream] = pid
            tails.append(float(costs.serial_tail) * reps)
            total = blocks.size * reps
            w = np.tile(blocks, reps)
            work_parts.append(w)
            phase_parts.append(np.full(total, pid, dtype=np.int64))
            dep_parts.append(np.full(total, dep, dtype=np.int64))
            spawn_parts.append(np.full(total, -1, dtype=np.int64))
            n_tasks += total
        else:
            parent_first = first_task[parent]
            # serial tails of spawned kernels have no barrier to hide
            # behind; fold them into the replica's last block
            w = np.tile(blocks, reps)
            if costs.serial_tail:
                w = w.copy()
                w[blocks.size - 1::blocks.size] += costs.serial_tail
            total = blocks.size * reps
            spawner = parent_first + graph.parent_blocks[row]
            work_parts.append(w)
            phase_parts.append(np.full(total, -1, dtype=np.int64))
            dep_parts.append(np.full(total, -1, dtype=np.int64))
            spawn_parts.append(np.full(total, spawner, dtype=np.int64))
            n_tasks += total

    return TaskGraph(
        name=name,
        work_cycles=np.concatenate(work_parts),
        spawned_by=np.concatenate(spawn_parts),
        phase=np.concatenate(phase_parts),
        phase_dep=np.concatenate(dep_parts),
        phase_tail_cycles=np.asarray(tails, dtype=np.float64),
        counters=graph.aggregate_counters(),
    )


class QueueBackend(Backend):
    """Persistent-worker task-queue execution of launch/task graphs.

    Parameters
    ----------
    device:
        device configuration to simulate (default Kepler K20).
    queue_config:
        :class:`~repro.queue.model.QueueConfig` tunables (worker block
        size, queue count, poll interval); defaults model Atos's setup.
    engine:
        kept for seam compatibility (cache keys, BSP fallback); the
        queue model itself has a single engine.
    """

    name = "queue"

    def __init__(
        self,
        device: DeviceConfig = KEPLER_K20,
        *,
        queue_config: QueueConfig | None = None,
        engine: str | None = None,
    ) -> None:
        self._device = device
        self.queue_config = queue_config or QueueConfig()
        self._engine = engine
        base = capabilities_of(device)
        self._capabilities = BackendCapabilities(
            dynamic_parallelism=base.dynamic_parallelism,
            shared_mem_per_block=base.shared_mem_per_block,
            devices=1,
            persistent_queue=True,
        )
        #: load/accounting counters (mirrors SimBackend's surface)
        self.busy_ms = 0.0
        self.submissions = 0

    @property
    def device(self) -> DeviceConfig:
        return self._device

    @property
    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    @property
    def engine(self) -> str | None:
        return self._engine

    @property
    def n_workers(self) -> int:
        """Persistent worker blocks this backend schedules."""
        return worker_count(self._device, self.queue_config)

    @property
    def run_cache_tag(self) -> str:
        """Disambiguates queue results in the disk ``run`` tier."""
        return f"queue[{self.queue_config.key()}]"

    def fingerprint(self) -> str:
        """Queue runs must never share cache identity with BSP runs."""
        return f"queue[{self.queue_config.key()}]:{self._device.fingerprint()}"

    def submit_many(self, graphs: list[LaunchGraph]) -> list[QueueExecutionResult]:
        """Convert each launch graph to tasks and drain it through the
        queues, one persistent-kernel run per graph."""
        return [self.submit_tasks(graph_to_tasks(graph, self._device))
                for graph in graphs]

    def submit_tasks(self, tasks: TaskGraph) -> QueueExecutionResult:
        """Execute an already-built task graph (asynchronous app path)."""
        with obs.span("queue.execute", tasks=tasks.n_tasks,
                      workers=self.n_workers):
            stats = simulate(tasks, self._device, self.queue_config)
        result = self._result_from(tasks, stats)
        self.busy_ms += result.time_ms
        self.submissions += 1
        if obs.enabled():
            obs.add_counter("queue.tasks", stats.tasks_enqueued)
            obs.add_counter("queue.cancelled", stats.tasks_cancelled)
            obs.add_counter("queue.steals", stats.steals)
            obs.add_counter("queue.polls", stats.polls)
            obs.add_counter("queue.depth", stats.max_queue_depth)
            obs.add_counter("queue.termination_wait",
                            int(stats.termination_wait_cycles))
            obs.add_counter("queue.worker_busy_cycles",
                            int(stats.busy_total))
        return result

    def _result_from(self, tasks: TaskGraph,
                     stats: QueueStats) -> QueueExecutionResult:
        cfg = self._device
        # SMs host n_workers/sm_count workers each; normalize summed
        # worker-busy time back to SM terms for the utilization metric
        workers_per_sm = max(stats.n_workers / cfg.sm_count, 1e-9)
        return QueueExecutionResult(
            cycles=stats.makespan_cycles,
            time_ms=cfg.cycles_to_ms(stats.makespan_cycles),
            counters=tasks.counters,
            sm_busy_cycles=stats.busy_total / workers_per_sm,
            sm_count=cfg.sm_count,
            n_launches=1,
            n_device_launches=0,
            pool_overflows=0,
            n_workers=stats.n_workers,
            n_queues=stats.n_queues,
            tasks_enqueued=stats.tasks_enqueued,
            tasks_executed=stats.tasks_executed,
            tasks_cancelled=stats.tasks_cancelled,
            steals=stats.steals,
            polls=stats.polls,
            max_queue_depth=stats.max_queue_depth,
            enqueue_contention_cycles=stats.enqueue_contention_cycles,
            dequeue_contention_cycles=stats.dequeue_contention_cycles,
            counter_contention_cycles=stats.counter_contention_cycles,
            termination_cycles=stats.termination_cycles,
            termination_wait_cycles=stats.termination_wait_cycles,
            worker_busy_cycles=stats.worker_busy_cycles,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<QueueBackend device={self._device.name!r} "
                f"workers={self.n_workers} "
                f"queues={self.queue_config.n_queues}>")
