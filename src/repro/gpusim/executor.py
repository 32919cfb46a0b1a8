"""Event-driven execution engine: SMs, streams and nested launches.

The executor runs a :class:`~repro.gpusim.kernels.LaunchGraph` on a
simulated device and produces wall-clock timing plus utilization traces.

Model
-----
* Each SM is a **processor-sharing server**: all resident blocks share its
  issue bandwidth equally (work conservation), so total SM throughput is
  one SM-cycle of work per cycle regardless of how many blocks are
  resident.  A block additionally cannot retire before its *floor* (its
  critical warp's standalone time); it lingers holding resources until
  then.  Processor sharing is simulated exactly with the virtual-time
  technique, so the whole run costs O(events log events).
* Blocks are dispatched FIFO per launch, to the SM with the most free
  warps, subject to the real resource footprints (warps, block slots,
  shared memory, registers) and the concurrent-kernel limit.
* Host launches in one stream serialize (plus launch overhead); different
  streams are independent.
* Device (dynamic-parallelism) launches are *issued* when their issuing
  parent block completes, then pass through a single-server grid
  management unit (GMU) with fixed service rate and latency; overflowing
  the pending-launch pool virtualizes the queue (large penalty).  Launches
  sharing a device stream key (same parent block + stream) execute
  sequentially — the semantics behind the paper's "one additional stream
  per thread-block" experiments.
* A parent kernel is tree-complete only when all its descendants are —
  CUDA's parent/child completion rule.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigError, LaunchError
from repro.gpusim.config import DeviceConfig, supports_dynamic_parallelism
from repro.gpusim.kernels import HOST, LaunchClass, LaunchGraph, ProfileCounters
from repro.gpusim.occupancy import occupancy

__all__ = [
    "GpuExecutor",
    "ExecutionResult",
    "LaunchRecord",
    "ENGINES",
    "resolve_engine",
    "set_default_engine",
    "get_default_engine",
]

_EPS = 1e-9

#: available execution engines: ``"fast"`` batches homogeneous blocks into
#: cohort events, ``"exact"`` is the reference event-per-block engine.
ENGINES = ("fast", "exact")

_default_engine = "fast"

#: the event kinds of :func:`_drive`'s heap, in the order the traced
#: ``executor.events.<kind>`` counters are emitted
_EVENT_KINDS = ("host_ready", "gmu_done", "sm_check", "linger_done", "tail_done")


def resolve_engine(engine: str | None, *, error=ConfigError) -> str | None:
    """Validate an engine name; the one engine-string check in the repo.

    Returns the engine unchanged (``None`` means "defer to the process
    default").  Every entry point — ``repro.run``, the serving layer, the
    bench CLI — funnels through here, so an invalid name fails with the
    same message everywhere; ``error`` only selects which exception class
    carries it (the service raises its own :class:`ServiceError`).
    """
    if engine is not None and engine not in ENGINES:
        raise error(f"unknown engine {engine!r}; known: {', '.join(ENGINES)}")
    return engine


def set_default_engine(name: str) -> None:
    """Select the engine used when :class:`GpuExecutor` gets ``engine=None``.

    The bench runner's ``--engine`` flag routes through here so every
    executor constructed anywhere in a run (apps, templates, experiments)
    falls back to the selected engine.
    """
    global _default_engine
    if name not in ENGINES:
        raise ConfigError(f"unknown engine {name!r}; known: {', '.join(ENGINES)}")
    _default_engine = name


def get_default_engine() -> str:
    """The engine currently used by default (``"fast"`` unless overridden)."""
    return _default_engine


@dataclass
class LaunchRecord:
    """Timing record of one launch instance."""

    name: str
    start_cycles: float
    end_cycles: float
    n_blocks: int
    device: bool

    @property
    def duration_cycles(self) -> float:
        """End minus start, in SM-cycles."""
        return self.end_cycles - self.start_cycles


@dataclass
class ExecutionResult:
    """Outcome of executing a launch graph."""

    cycles: float
    time_ms: float
    counters: ProfileCounters
    sm_busy_cycles: float
    sm_count: int
    n_launches: int
    n_device_launches: int
    pool_overflows: int
    records: list[LaunchRecord] = field(default_factory=list)

    @property
    def sm_utilization(self) -> float:
        """Busy SM-cycles over available SM-cycles (0.0 - 1.0)."""
        if self.cycles <= 0:
            return 0.0
        return self.sm_busy_cycles / (self.cycles * self.sm_count)


class _Block:
    """A dispatched thread-block being served by an SM."""

    __slots__ = ("launch", "index", "work", "floor", "admit_time", "target_v", "done_service")

    def __init__(self, launch: "_LaunchState", index: int, work: float, floor: float):
        self.launch = launch
        self.index = index
        self.work = work
        self.floor = floor
        self.admit_time = 0.0
        self.target_v = 0.0
        self.done_service = False


class _SM:
    """Processor-sharing SM with resource accounting."""

    __slots__ = (
        "index", "free_warps", "free_blocks", "free_smem", "free_regs",
        "serving", "virtual", "t_last", "version", "busy_cycles",
    )

    def __init__(self, index: int, config: DeviceConfig):
        self.index = index
        self.free_warps = config.max_warps_per_sm
        self.free_blocks = config.max_blocks_per_sm
        self.free_smem = config.shared_mem_per_sm
        self.free_regs = config.registers_per_sm
        self.serving: list[tuple[float, int, _Block]] = []  # heap by target_v
        self.virtual = 0.0
        self.t_last = 0.0
        self.version = 0
        self.busy_cycles = 0.0

    def advance(self, now: float) -> None:
        """Accrue service up to ``now`` (call before changing residency)."""
        if now < self.t_last - _EPS:
            raise LaunchError("simulation time went backwards")
        dt = max(0.0, now - self.t_last)
        k = len(self.serving)
        if k:
            self.virtual += dt / k
            self.busy_cycles += dt
        self.t_last = now

    def next_completion(self) -> float:
        """Predicted absolute time of the earliest service completion."""
        if not self.serving:
            return math.inf
        target = self.serving[0][0]
        k = len(self.serving)
        return self.t_last + max(0.0, target - self.virtual) * k


@dataclass
class _Footprint:
    warps: int
    smem: int
    regs: int


class _LaunchState:
    """Mutable execution state of one launch instance: replica ``replica``
    of graph row ``row``, whose class is ``cls`` (class id ``cid``)."""

    __slots__ = (
        "cls", "cid", "row", "replica", "serial", "footprint", "n_blocks",
        "next_block", "run_cursor", "outstanding_blocks", "outstanding_children",
        "ready", "dispatch_started", "start_time", "end_time",
        "tree_completed", "parent_state", "group_key", "tail_elapsed",
    )

    def __init__(self, cls: LaunchClass, cid: int, row: int, replica: int,
                 footprint: _Footprint):
        self.cls = cls
        self.cid = cid
        self.row = row
        self.replica = replica
        self.serial = 0
        self.footprint = footprint
        self.n_blocks = cls.costs.n_blocks
        self.next_block = 0
        #: index into the class's block runs of the run ``next_block`` is in
        #: (maintained by the fast engine's run-batched dispatch)
        self.run_cursor = 0
        self.outstanding_blocks = self.n_blocks
        self.outstanding_children = 0
        self.ready = False
        self.dispatch_started = False
        self.start_time = math.inf
        self.end_time = 0.0
        self.tree_completed = False
        self.parent_state: _LaunchState | None = None
        self.group_key: tuple[int, int, int] | None = None
        self.tail_elapsed = False

    @property
    def fully_dispatched(self) -> bool:
        return self.next_block >= self.n_blocks


class GpuExecutor:
    """Executes launch graphs on a simulated device.

    Parameters
    ----------
    config:
        the device to simulate.
    record_timeline:
        keep per-launch timing records (off by default: launch graphs with
        hundreds of thousands of nested launches would bloat the result).
    max_launch_instances:
        safety valve against runaway dynamic parallelism in experiments.
    engine:
        ``"fast"`` (cohort-batched events), ``"exact"`` (the reference
        event-per-block engine) or ``None`` to use the module default set
        via :func:`set_default_engine`.  Both engines implement the same
        virtual-time processor-sharing model; the fast engine batches
        homogeneous blocks into cohort events and is validated against the
        exact engine by the equivalence suite.
    """

    def __init__(
        self,
        config: DeviceConfig,
        record_timeline: bool = False,
        max_launch_instances: int = 2_000_000,
        engine: str | None = None,
    ) -> None:
        resolve_engine(engine)
        self.config = config
        self.record_timeline = record_timeline
        self.max_launch_instances = max_launch_instances
        self.engine = engine

    # ------------------------------------------------------------------- API
    def run(self, graph: LaunchGraph) -> ExecutionResult:
        """Simulate the graph; returns timing + aggregated counters."""
        return self._execute([graph])[0]

    def run_many(self, graphs) -> list[ExecutionResult]:
        """Simulate N graphs (same device) in one event-loop pass.

        Results are per graph and bit-identical to N sequential
        :meth:`run` calls: every lane keeps fully disjoint simulation
        state; only the event heap — and therefore the Python-level loop
        and setup overhead — is shared (see :func:`_drive`).  Empty graphs
        yield the same zero result ``run`` returns, at their original
        positions.
        """
        return self._execute(list(graphs))

    def _execute(self, graphs: list[LaunchGraph]) -> list[ExecutionResult]:
        """The one execution body behind :meth:`run` and :meth:`run_many`."""
        results: list[ExecutionResult | None] = [None] * len(graphs)
        live: list[int] = []
        for i, graph in enumerate(graphs):
            graph.validate(self.config)
            if not len(graph):
                results[i] = ExecutionResult(
                    cycles=0.0, time_ms=0.0, counters=ProfileCounters(),
                    sm_busy_cycles=0.0, sm_count=self.config.sm_count,
                    n_launches=0, n_device_launches=0, pool_overflows=0,
                )
                continue
            if (max(graph.parents) != HOST
                    and not supports_dynamic_parallelism(self.config)):
                raise LaunchError(
                    f"{self.config.name} does not support dynamic parallelism"
                )
            live.append(i)
        if not live:
            return results
        engine = self.engine or _default_engine
        lane_cls = _FastSimulation if engine == "fast" else _Simulation
        lane_graphs = [graphs[i] for i in live]
        tracing = obs.enabled()
        tally = Counter() if tracing else None
        with obs.span("gpusim.execute", engine=engine, graphs=len(live),
                      launches=sum(len(g) for g in lane_graphs)):
            # while tracing, collect launch records even when the caller
            # did not ask for a timeline — they become per-kernel trace
            # events
            lane_results = _drive(lane_cls, self.config, lane_graphs,
                                  self.record_timeline or tracing,
                                  self.max_launch_instances, tally)
        if tracing:
            obs.add_counter("executor.fused_graphs", len(live))
            obs.add_counter("executor.dispatch_passes", tally["passes"])
            for kind in _EVENT_KINDS:
                obs.add_counter(f"executor.events.{kind}", tally[kind])
            obs.add_counter("executor.stale_checks", tally["stale"])
            for result in lane_results:
                obs.emit_launch_records(result.records, self.config)
                if not self.record_timeline:
                    result.records = []  # keep the no-timeline contract lean
        for i, result in zip(live, lane_results):
            results[i] = result
        return results


def _drive(lane_cls, config: DeviceConfig, graphs: list[LaunchGraph],
           record_timeline: bool, max_instances: int,
           tally: Counter | None = None) -> list[ExecutionResult]:
    """Run one lane per graph off a single shared event heap.

    The driver owns the heap and its sequence counter; each lane pushes
    ``(time, seq, lane, kind, payload)`` entries and this loop hands every
    popped event back to its lane.  Lanes keep fully disjoint state —
    SMs, GMU, clocks, stream queues, instances — and per-lane relative
    event order is exactly that of a lane running alone, so results
    demux bit-identically to sequential runs
    (``tests/test_executor_fused.py``).  A single run is the N=1 case.

    With a ``tally`` (tracing), the loop also counts popped events per
    kind, ``sm_check`` events whose SM version moved on (``"stale"``) and
    dispatch passes (``"passes"``); without one it counts nothing.
    """
    events: list[tuple] = []
    seq = itertools.count()
    lanes = [lane_cls(config, graph, record_timeline, max_instances,
                      events, seq) for graph in graphs]
    for lane in lanes:
        lane._setup()
    pop = heapq.heappop
    if tally is not None:
        for lane in lanes:
            lane._dispatch = _counted(lane._dispatch, tally)
        while events:
            time, _, lane, kind, payload = pop(events)
            tally[kind] += 1
            if kind == "sm_check" and payload[0].version != payload[1]:
                tally["stale"] += 1
            lane._handle(time, kind, payload)
    while events:
        time, _, lane, kind, payload = pop(events)
        lane._handle(time, kind, payload)
    return [lane._finalize() for lane in lanes]


def _counted(dispatch, tally: Counter):
    """``dispatch`` (a lane's bound ``_dispatch``), counting each pass."""
    def counted() -> bool:
        tally["passes"] += 1
        return dispatch()
    return counted


def _children_of(graph: LaunchGraph) -> dict[tuple[int, int], list[int]]:
    """Device rows grouped by (parent row, parent block), in row order."""
    parents = np.asarray(graph.parents, dtype=np.int64)
    rows = np.flatnonzero(parents != HOST)
    if not rows.size:
        return {}
    blocks = np.asarray(graph.parent_blocks, dtype=np.int64)[rows]
    # lexsort is stable: rows of one (parent, block) key keep row order
    order = np.lexsort((blocks, parents[rows]))
    rows, blocks = rows[order], blocks[order]
    parent = parents[rows]
    starts = np.flatnonzero(np.concatenate((
        [True], (parent[1:] != parent[:-1]) | (blocks[1:] != blocks[:-1]))))
    bounds = starts.tolist() + [rows.size]
    row_list = rows.tolist()
    return {
        key: row_list[lo:hi]
        for key, lo, hi in zip(zip(parent[starts].tolist(), blocks[starts].tolist()),
                               bounds, bounds[1:])
    }


class _Simulation:
    """One graph's lane of a :func:`_drive` pass (separate from
    GpuExecutor so the executor object stays reusable and stateless
    between runs).

    All simulation state is lane-local except the event heap and its
    sequence counter, which the driver owns: the lane pushes
    ``(time, seq, lane, kind, payload)`` entries and the driver hands each
    popped event back to :meth:`_handle`.

    This is the **exact** reference engine: one heap entry per dispatched
    block.  The fast engine (:class:`_FastSimulation`) subclasses it and
    overrides only dispatch/service/retire with cohort-batched versions.
    """

    #: SM implementation instantiated per simulated multiprocessor
    sm_class = _SM

    def __init__(
        self,
        config: DeviceConfig,
        graph: LaunchGraph,
        record_timeline: bool,
        max_instances: int,
        events: list[tuple],
        seq: itertools.count,
    ) -> None:
        self.config = config
        self.graph = graph
        self.record_timeline = record_timeline
        self.max_instances = max_instances

        self.now = 0.0
        #: the driver's event heap and sequence counter (shared by lanes;
        #: the counter also orders same-target entries of SM serving heaps)
        self.events = events
        self._seq = seq
        self.sms = [self.sm_class(i, config) for i in range(config.sm_count)]
        self.records: list[LaunchRecord] = []

        # Launch instances (bulk launches expand into replicas).
        self.instances: list[_LaunchState] = []
        #: child rows registered on (parent row, parent block), in row
        #: order — replicas of a bulk parent only get children on replica 0.
        self.children_of: dict[tuple[int, int], list[int]] = {}

        # streams / GMU
        self.gmu_free = 0.0
        self.gmu_pending = 0
        self.pool_overflows = 0
        self.device_stream_tail: dict[tuple[int, int, int], _LaunchState | None] = {}
        self.device_stream_queue: dict[tuple[int, int, int], list[_LaunchState]] = {}

        self.ready_list: list[_LaunchState] = []
        #: cleared by engines that can prove a dispatch pass would place
        #: nothing (the fast engine); the reference engine leaves it True
        #: so the shared event loop's inlined guard never skips it
        self._dispatch_dirty = True
        self.n_device_instances = 0
        #: per class of the graph: its footprint on this device
        self._footprints: list[_Footprint] = []

    # ----------------------------------------------------------------- setup
    def _footprint(self, cls: LaunchClass) -> _Footprint:
        cfg = self.config
        occ = occupancy(cfg, cls.block_size, cls.registers_per_thread,
                        cls.shared_mem_per_block)
        wpb = occ.warps_per_block
        regs = cls.registers_per_thread * wpb * cfg.warp_size
        regs = -(-regs // cfg.register_alloc_granularity) * cfg.register_alloc_granularity
        smem = cls.shared_mem_per_block
        if smem:
            smem = -(-smem // cfg.shared_mem_alloc_granularity) * cfg.shared_mem_alloc_granularity
        return _Footprint(warps=wpb, smem=smem, regs=regs)

    def _push_event(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self.events, (time, next(self._seq), self, kind, payload))

    def _new_instance(self, row: int, replica: int) -> _LaunchState:
        if len(self.instances) >= self.max_instances:
            raise LaunchError(
                f"launch-instance limit {self.max_instances} exceeded — "
                "runaway dynamic parallelism?"
            )
        cid = self.graph.class_ids[row]
        state = _LaunchState(self.graph.classes[cid], cid, row, replica,
                             self._footprints[cid])
        state.serial = len(self.instances)
        self.instances.append(state)
        return state

    def _setup(self) -> None:
        graph = self.graph
        self._footprints = [self._footprint(cls) for cls in graph.classes]
        self._host_queues: dict[int, list[_LaunchState]] = {}
        host_overhead = self.config.us_to_cycles(self.config.host_launch_overhead_us)
        # Build instances for host launches immediately; device launches are
        # instantiated per replica and wait for their parent block.
        for row, parent in enumerate(graph.parents):
            if parent == HOST:
                if graph.counts[row] != 1:
                    raise LaunchError("bulk (count > 1) host launches are not supported")
                state = self._new_instance(row, 0)
                # The first launch of each stream becomes ready after the
                # host launch overhead; successors are released when their
                # predecessor's launch tree completes.
                self._chain_host(state, host_overhead)
        self.children_of = _children_of(graph)

    # Host stream chaining: keep a per-stream list of pending launches; a
    # launch becomes ready when its predecessor's tree completes.
    def _chain_host(self, state: _LaunchState, ready_hint: float) -> None:
        stream = self.graph.streams[state.row]
        queue = self._host_queues.setdefault(stream, [])
        queue.append(state)
        if len(queue) == 1:
            self._push_event(ready_hint, "host_ready", state)

    # ------------------------------------------------------------------- run
    def _handle(self, time: float, kind: str, payload: object) -> None:
        self.now = max(self.now, time)
        if kind == "host_ready":
            self._on_ready(payload)  # type: ignore[arg-type]
        elif kind == "gmu_done":
            self._on_gmu_done(payload)  # type: ignore[arg-type]
        elif kind == "sm_check":
            sm, version = payload  # type: ignore[misc]
            if sm.version == version:
                self._service_sm(sm)
        elif kind == "linger_done":
            self._on_linger(payload)
        elif kind == "tail_done":
            state = payload  # type: ignore[assignment]
            state.tail_elapsed = True
            self._maybe_tree_complete(state)
        # inlined _dispatch guard: most events leave nothing to place, and
        # at ~1 dispatch probe per event the call overhead itself shows up
        while self.ready_list and self._dispatch_dirty and self._dispatch():
            pass

    def _finalize(self) -> ExecutionResult:
        makespan = self.now
        for sm in self.sms:
            sm.advance(makespan)
        counters = self.graph.aggregate_counters()
        busy = sum(sm.busy_cycles for sm in self.sms)
        return ExecutionResult(
            cycles=makespan,
            time_ms=self.config.cycles_to_ms(makespan),
            counters=counters,
            sm_busy_cycles=busy,
            sm_count=self.config.sm_count,
            n_launches=len(self.instances),
            n_device_launches=self.n_device_instances,
            pool_overflows=self.pool_overflows,
            records=self.records,
        )

    # ---------------------------------------------------------------- events
    def _on_ready(self, state: _LaunchState) -> None:
        state.ready = True
        self.ready_list.append(state)

    def _on_linger(self, payload: object) -> None:
        sm, block = payload  # type: ignore[misc]
        self._retire_block(sm, block)

    def _issue_children(self, parent: _LaunchState, block_index: int) -> None:
        """A parent block completed: issue its registered device launches."""
        if parent.replica != 0:
            return  # children are attached to replica 0 of bulk parents
        key = (parent.row, block_index)
        child_rows = self.children_of.get(key)
        if not child_rows:
            return
        cfg = self.config
        latency = cfg.us_to_cycles(cfg.device_launch_latency_us)
        # GMU service: launches per microsecond -> cycles per launch
        service = cfg.us_to_cycles(1.0 / cfg.device_launch_throughput_per_us)
        counts = self.graph.counts
        device_streams = self.graph.device_streams
        for row in child_rows:
            for replica in range(counts[row]):
                child = self._new_instance(row, replica)
                child.parent_state = parent
                parent.outstanding_children += 1
                self.n_device_instances += 1
                key3 = (parent.row, block_index, device_streams[row])
                child.group_key = key3
                # GMU single-server FIFO
                self.gmu_pending += 1
                penalty = 1.0
                if self.gmu_pending > cfg.pending_launch_limit:
                    penalty = 10.0
                    self.pool_overflows += 1
                start_service = max(self.now, self.gmu_free)
                self.gmu_free = start_service + service * penalty
                done = self.gmu_free + latency
                self._push_event(done, "gmu_done", child)

    def _on_gmu_done(self, child: _LaunchState) -> None:
        self.gmu_pending -= 1
        key = child.group_key
        assert key is not None
        tail = self.device_stream_tail.get(key)
        if tail is None:
            self.device_stream_tail[key] = child
            self._on_ready(child)
        else:
            self.device_stream_queue.setdefault(key, []).append(child)

    def _service_sm(self, sm: _SM) -> None:
        """Handle (predicted) completions on one SM."""
        sm.advance(self.now)
        tol = 1e-6 * (1.0 + abs(sm.virtual))
        while sm.serving and sm.serving[0][0] <= sm.virtual + tol:
            _, _, block = heapq.heappop(sm.serving)
            sm.version += 1
            block.done_service = True
            floor_time = block.admit_time + block.floor
            if floor_time > self.now + _EPS:
                # Holds resources (registers, smem, warp slots) until its
                # critical warp drains, but consumes no further issue slots.
                self._push_event(floor_time, "linger_done", (sm, block))
            else:
                self._retire_block(sm, block)
        self._schedule_sm_check(sm)

    def _schedule_sm_check(self, sm: _SM) -> None:
        nxt = sm.next_completion()
        if nxt is not math.inf:
            self._push_event(nxt, "sm_check", (sm, sm.version))

    def _retire_block(self, sm: _SM, block: _Block) -> None:
        state = block.launch
        fp = state.footprint
        sm.free_warps += fp.warps
        sm.free_blocks += 1
        sm.free_smem += fp.smem
        sm.free_regs += fp.regs
        state.outstanding_blocks -= 1
        self._issue_children(state, block.index)
        if state.outstanding_blocks == 0:
            self._on_blocks_done(state)

    def _on_blocks_done(self, state: _LaunchState) -> None:
        """All blocks retired; apply serial tail, then check tree completion."""
        tail = state.cls.costs.serial_tail
        end = self.now + tail
        state.end_time = end
        if self.record_timeline:
            self.records.append(LaunchRecord(
                name=state.cls.name,
                start_cycles=state.start_time,
                end_cycles=end,
                n_blocks=state.n_blocks,
                device=self.graph.parents[state.row] != HOST,
            ))
        if tail > 0:
            self._push_event(end, "tail_done", state)
        else:
            state.tail_elapsed = True
            self._maybe_tree_complete(state)

    def _maybe_tree_complete(self, state: _LaunchState) -> None:
        if state.tree_completed:
            return
        if (
            state.outstanding_blocks > 0
            or state.outstanding_children > 0
            or not state.tail_elapsed
        ):
            return
        state.tree_completed = True
        # release device-stream successor
        if state.group_key is not None:
            key = state.group_key
            queue = self.device_stream_queue.get(key)
            if queue:
                nxt = queue.pop(0)
                self.device_stream_tail[key] = nxt
                self._on_ready(nxt)
            else:
                self.device_stream_tail[key] = None
        # notify parent
        parent = state.parent_state
        if parent is not None:
            parent.outstanding_children -= 1
            self._maybe_tree_complete(parent)
        else:
            # host launch: release its stream successor
            stream = self.graph.streams[state.row]
            queue = self._host_queues.get(stream)
            if queue and queue[0] is state:
                queue.pop(0)
                if queue:
                    overhead = self.config.us_to_cycles(self.config.host_launch_overhead_us)
                    self._push_event(self.now + overhead, "host_ready", queue[0])

    # -------------------------------------------------------------- dispatch
    def _dispatch(self) -> bool:
        """Place ready blocks onto SMs; returns True if anything moved."""
        if not self.ready_list:
            return False
        cfg = self.config
        queue = self.ready_list
        self.ready_list = []
        progress = False
        active = 0
        leftover: list[_LaunchState] = []
        changed_sms: set[int] = set()
        for state in queue:
            if state.fully_dispatched:
                continue
            if active >= cfg.max_concurrent_kernels:
                leftover.append(state)
                continue
            active += 1
            fp = state.footprint
            costs = state.cls.costs
            while not state.fully_dispatched:
                sm = self._find_sm(fp)
                if sm is None:
                    break
                progress = True
                bi = state.next_block
                state.next_block += 1
                if not state.dispatch_started:
                    state.dispatch_started = True
                    state.start_time = self.now
                block = _Block(
                    state, bi,
                    work=float(costs.block_cycles[bi]),
                    floor=float(costs.block_floor[bi]),
                )
                sm.advance(self.now)
                block.admit_time = self.now
                sm.free_warps -= fp.warps
                sm.free_blocks -= 1
                sm.free_smem -= fp.smem
                sm.free_regs -= fp.regs
                if block.work <= _EPS:
                    # Zero-work block: never enters service; complete
                    # immediately (respecting its floor).
                    block.done_service = True
                    floor_time = block.admit_time + block.floor
                    if floor_time > self.now + _EPS:
                        self._push_event(floor_time, "linger_done", (sm, block))
                    else:
                        self._retire_block(sm, block)
                else:
                    block.target_v = sm.virtual + block.work
                    heapq.heappush(sm.serving,
                                   (block.target_v, next(self._seq), block))
                    sm.version += 1
                    changed_sms.add(sm.index)
            if not state.fully_dispatched:
                leftover.append(state)
        # Anything that became ready while dispatching stays queued for the
        # next pass (the caller loops until no progress).
        self.ready_list.extend(leftover)
        for i in changed_sms:
            self._schedule_sm_check(self.sms[i])
        return progress

    def _find_sm(self, fp: _Footprint) -> _SM | None:
        """The SM with the most free warps that can host ``fp`` (the
        lowest index wins ties), or None."""
        fpw, fps, fpr = fp.warps, fp.smem, fp.regs
        best: _SM | None = None
        best_w = -1
        for sm in self.sms:
            if (
                sm.free_warps > best_w
                and sm.free_warps >= fpw
                and sm.free_blocks >= 1
                and sm.free_smem >= fps
                and sm.free_regs >= fpr
            ):
                best = sm
                best_w = sm.free_warps
        return best


# --------------------------------------------------------------------------
# Fast engine: cohort-batched events
# --------------------------------------------------------------------------


class _FastSM(_SM):
    """Processor-sharing SM whose serving heap holds block *cohorts*.

    ``n_serving`` counts resident blocks (the processor-sharing divisor),
    which no longer equals ``len(serving)`` once homogeneous blocks are
    batched into a single heap entry.
    """

    __slots__ = ("n_serving",)

    def __init__(self, index: int, config: DeviceConfig):
        super().__init__(index, config)
        self.n_serving = 0

    def advance(self, now: float) -> None:
        """Accrue service up to ``now`` (call before changing residency)."""
        if now < self.t_last - _EPS:
            raise LaunchError("simulation time went backwards")
        dt = max(0.0, now - self.t_last)
        if self.n_serving:
            self.virtual += dt / self.n_serving
            self.busy_cycles += dt
        self.t_last = now

    def next_completion(self) -> float:
        """Predicted absolute time of the earliest cohort completion."""
        if not self.serving:
            return math.inf
        target = self.serving[0][0]
        return self.t_last + max(0.0, target - self.virtual) * self.n_serving


class _Cohort:
    """A batch of same-launch blocks admitted to one SM at one instant with
    identical work and floor — they share a virtual-time completion target,
    so one heap entry and one completion event cover the whole batch."""

    __slots__ = ("launch", "indices", "floor", "admit_time", "target_v")

    def __init__(self, launch: _LaunchState, floor: float,
                 admit_time: float, target_v: float):
        self.launch = launch
        self.indices: list[int] = []
        self.floor = floor
        self.admit_time = admit_time
        self.target_v = target_v


class _FastSimulation(_Simulation):
    """Cohort-batched engine.

    Implements the *same* virtual-time processor-sharing model as the exact
    engine, with four changes that only affect constant factors:

    * blocks of one launch admitted to one SM at the same simulation time
      with equal (work, floor) become one :class:`_Cohort` heap entry /
      linger event instead of one entry per block;
    * dispatch passes are skipped entirely unless something changed since
      the last pass (resources freed, a launch became ready, or the
      concurrent-kernel cap cut the last pass's scan short): a pass leaves
      every launch it examined either fully dispatched or blocked on its
      footprint, so repeating it with nothing changed would place nothing;
    * per-block work/floor values come from each launch class's run-length
      encoded blocks (:meth:`KernelCosts.block_runs`, fetched once per
      class per run) instead of NumPy scalar reads;
    * a pass over a lone launch with one block left — every one-block
      child grid — places it without the general pass
      (:meth:`_dispatch_last_block`).

    Cohort retirement follows the exact engine's event ordering: service
    completions retire the whole batch inside one event (the exact engine
    pops equal-target blocks back-to-back in one ``sm_check`` anyway), and
    floor lingers retire block-by-block with a dispatch pass in between
    (the exact engine interleaves exactly this way).  The equivalence
    suite (``tests/test_executor_fastpath.py``) asserts every
    :class:`ExecutionResult` field equal to the exact engine's, bit for
    bit.
    """

    sm_class = _FastSM

    def _setup(self) -> None:
        super()._setup()
        #: per class of the graph: its block runs
        self._runs = [cls.costs.block_runs() for cls in self.graph.classes]
        # rows that actually register device children; retirement skips
        # the per-block child lookup for everything else
        self._parent_rows = {row for (row, _block) in self.children_of}

    # ---------------------------------------------------------------- events
    def _on_ready(self, state: _LaunchState) -> None:
        super()._on_ready(state)
        self._dispatch_dirty = True

    def _service_sm(self, sm: _FastSM) -> None:
        """Handle (predicted) cohort completions on one SM."""
        sm.advance(self.now)
        tol = 1e-6 * (1.0 + abs(sm.virtual))
        while sm.serving and sm.serving[0][0] <= sm.virtual + tol:
            _, _, cohort = heapq.heappop(sm.serving)
            sm.n_serving -= len(cohort.indices)
            sm.version += 1
            floor_time = cohort.admit_time + cohort.floor
            if floor_time > self.now + _EPS:
                # Holds resources until the critical warps drain; one event
                # covers the whole cohort.
                self._push_event(floor_time, "linger_done", (sm, cohort))
            else:
                self._retire_cohort(sm, cohort)
        self._schedule_sm_check(sm)

    def _on_linger(self, payload: object) -> None:
        """Retire a lingering cohort block-by-block, dispatching between
        retirements exactly like the exact engine's per-block events."""
        sm, cohort = payload  # type: ignore[misc]
        state = cohort.launch
        for index in cohort.indices:
            self._retire_one(sm, state, index)
            while self.ready_list and self._dispatch_dirty and self._dispatch():
                pass

    # ----------------------------------------------------------------- retire
    def _retire_one(self, sm: _FastSM, state: _LaunchState, index: int) -> None:
        fp = state.footprint
        sm.free_warps += fp.warps
        sm.free_blocks += 1
        sm.free_smem += fp.smem
        sm.free_regs += fp.regs
        state.outstanding_blocks -= 1
        self._dispatch_dirty = True
        if state.row in self._parent_rows:
            self._issue_children(state, index)
        if state.outstanding_blocks == 0:
            self._on_blocks_done(state)

    def _retire_cohort(self, sm: _FastSM, cohort: _Cohort) -> None:
        state = cohort.launch
        fp = state.footprint
        k = len(cohort.indices)
        sm.free_warps += fp.warps * k
        sm.free_blocks += k
        sm.free_smem += fp.smem * k
        sm.free_regs += fp.regs * k
        state.outstanding_blocks -= k
        self._dispatch_dirty = True
        if state.replica == 0 and state.row in self._parent_rows:
            for index in cohort.indices:
                self._issue_children(state, index)
        if state.outstanding_blocks == 0:
            self._on_blocks_done(state)

    # -------------------------------------------------------------- dispatch
    def _dispatch(self) -> bool:
        """Place ready blocks onto SMs a whole *run* of identical blocks at
        a time, accumulating same-target cohorts.

        One SM scan yields the strict-max-free-warps winner (first index
        wins ties, like :meth:`_Simulation._find_sm`) plus the best
        free-warp levels left (``L``) and right (``R``) of it among the
        other eligible SMs.  While the winner's free warps stay at or above
        ``T = max(L + 1, R)`` it keeps winning the serial per-block scan —
        the other SMs don't change while it absorbs blocks — so the whole
        chunk ``min(run length, (W - T) // warps + 1, eligibility caps)``
        lands in one step instead of one scan per block.  Placement order,
        cohort grouping and event sequencing are identical to the
        per-block scan; only the number of scans changes.
        """
        if not self.ready_list or not self._dispatch_dirty:
            return False
        queue = self.ready_list
        if len(queue) == 1:
            state = queue[0]
            if state.next_block == state.n_blocks - 1:
                return self._dispatch_last_block(state)
        cfg = self.config
        sms = self.sms
        cap = cfg.max_concurrent_kernels
        # Pass-level feasibility screen: most dispatch passes in saturated
        # phases place nothing (every queued footprint is blocked on every
        # SM).  One probe per *distinct* footprint detects that without the
        # per-state scans of the placement loop below; footprints that fail
        # the probe seed ``failed_fps`` so the main loop skips them too.
        # Short queues skip the screen: the placement loop's own scan finds
        # a blocked footprint just as fast as the probe would.
        failed_fps: set[tuple[int, int, int]] = set()
        if len(queue) >= 4:
            feasible: dict[tuple[int, int, int], bool] = {}
            any_fit = False
            for state in queue:
                if state.next_block >= state.n_blocks:
                    continue
                fp = state.footprint
                fp_key = (fp.warps, fp.smem, fp.regs)
                fit = feasible.get(fp_key)
                if fit is None:
                    fpw, fps, fpr = fp_key
                    fit = False
                    for sm in sms:
                        if (
                            sm.free_warps >= fpw
                            and sm.free_blocks >= 1
                            and sm.free_smem >= fps
                            and sm.free_regs >= fpr
                        ):
                            fit = True
                            break
                    feasible[fp_key] = fit
                if fit:
                    any_fit = True
                    break
            if not any_fit:
                # Nothing can place: reproduce the serial pass's queue
                # rebuild (drop fully-dispatched entries up to the
                # concurrency cap, keep the rest wholesale) without
                # scanning per state.
                self._dispatch_dirty = False
                active = 0
                leftover = []
                for qi, state in enumerate(queue):
                    if state.next_block >= state.n_blocks:
                        continue
                    if active >= cap:
                        leftover.extend(queue[qi:])
                        break
                    active += 1
                    leftover.append(state)
                self.ready_list = leftover
                return False
            failed_fps = {key for key, fit in feasible.items() if not fit}
        self.ready_list = []
        self._dispatch_dirty = False
        progress = False
        capped = False
        active = 0
        leftover: list[_LaunchState] = []
        #: (sm index, launch serial, work, floor) -> accumulating cohort
        pending: dict[tuple[int, int, float, float], _Cohort] = {}
        changed_sms: set[int] = set()
        # failed_fps (seeded by the screen above): footprints no SM could
        # host earlier in this pass.  Within one pass free resources never
        # exceed their level at the failed probe (inline zero-work retires
        # only restore what the pass consumed), so a failed footprint stays
        # failed and the rescan can be skipped.
        now = self.now
        for qi, state in enumerate(queue):
            if state.next_block >= state.n_blocks:
                continue
            if active >= cap:
                # over the concurrency cap the serial scan only copies the
                # rest of the queue into leftover; do it wholesale (states
                # already fully dispatched get skipped on the next pass)
                leftover.extend(queue[qi:])
                capped = True
                break
            active += 1
            fp = state.footprint
            fpw, fps, fpr = fp.warps, fp.smem, fp.regs
            fp_key = (fpw, fps, fpr)
            if fp_key in failed_fps:
                leftover.append(state)
                continue
            ends, works, floors = self._runs[state.cid]
            n_blocks = state.n_blocks
            while state.next_block < n_blocks:
                best = None
                best_w = L = R = 0
                for sm in sms:
                    if (
                        sm.free_warps >= fpw
                        and sm.free_blocks >= 1
                        and sm.free_smem >= fps
                        and sm.free_regs >= fpr
                    ):
                        w = sm.free_warps
                        if best is None or w > best_w:
                            L = best_w
                            R = 0
                            best = sm
                            best_w = w
                        elif w > R:
                            R = w
                if best is None:
                    failed_fps.add(fp_key)
                    break
                progress = True
                if not state.dispatch_started:
                    state.dispatch_started = True
                    state.start_time = now
                ri = state.run_cursor
                bi = state.next_block
                run_end = ends[ri]
                work = works[ri]
                floor = floors[ri]
                best.advance(now)
                if work <= _EPS and floor <= _EPS:
                    # Zero-work zero-floor blocks never enter service and
                    # retire inline; each retire restores exactly what its
                    # placement consumed, so the winner's resources — and
                    # hence the scan result — are unchanged block to block:
                    # the whole run retires here without rescanning.
                    for b in range(bi, run_end):
                        state.next_block = b + 1
                        best.free_warps -= fpw
                        best.free_blocks -= 1
                        best.free_smem -= fps
                        best.free_regs -= fpr
                        self._retire_one(best, state, b)
                    state.run_cursor = ri + 1
                    continue
                # resources are held: the winner absorbs blocks until its
                # free warps would drop below T or an eligibility cap hits
                T = max(L + 1, R)
                k = run_end - bi
                k = min(k, (best_w - T) // fpw + 1, best_w // fpw,
                        best.free_blocks)
                if fps:
                    k = min(k, best.free_smem // fps)
                if fpr:
                    k = min(k, best.free_regs // fpr)
                best.free_warps -= fpw * k
                best.free_blocks -= k
                best.free_smem -= fps * k
                best.free_regs -= fpr * k
                state.next_block = bi + k
                if bi + k == run_end:
                    state.run_cursor = ri + 1
                if work <= _EPS:
                    # Zero-work blocks with a floor hold resources until
                    # the floor drains; one linger event covers the chunk
                    # (retirement interleaves per block, see _on_linger).
                    chunk = _Cohort(state, floor, now, 0.0)
                    chunk.indices.extend(range(bi, bi + k))
                    self._push_event(now + floor, "linger_done",
                                     (best, chunk))
                else:
                    key = (best.index, state.serial, work, floor)
                    cohort = pending.get(key)
                    if cohort is None:
                        cohort = _Cohort(state, floor, now,
                                         best.virtual + work)
                        pending[key] = cohort
                    cohort.indices.extend(range(bi, bi + k))
                    best.n_serving += k
                    changed_sms.add(best.index)
            if state.next_block < n_blocks:
                leftover.append(state)
        for (sm_index, _serial, _work, _floor), cohort in pending.items():
            sm = self.sms[sm_index]
            heapq.heappush(sm.serving,
                           (cohort.target_v, next(self._seq), cohort))
            sm.version += 1
        # Anything that became ready while dispatching stays queued for the
        # next pass (the caller loops until no progress).
        self.ready_list.extend(leftover)
        for i in changed_sms:
            self._schedule_sm_check(self.sms[i])
        # Every state examined above ends fully dispatched or blocked on
        # its footprint, so with nothing changed another pass can place
        # only states the cap kept from being examined, and only once this
        # pass finished some; arrivals and retires set the flag themselves.
        if capped and progress:
            self._dispatch_dirty = True
        return progress

    def _dispatch_last_block(self, state: _LaunchState) -> bool:
        """:meth:`_dispatch` for a ready list of one launch with one block
        left — every one-block child grid, and the last block of any grid.

        The general pass would scan once and place that block as a
        one-block chunk: here the exact engine's one strict-max-free-warps
        scan (:meth:`_find_sm`) replaces its best/L/R bookkeeping, cohort
        dict, changed set and chunk arithmetic, and every step after the
        scan is the general pass's, in its order.  The concurrency cap
        never binds a lone launch (``DeviceConfig`` keeps
        ``max_concurrent_kernels >= 1``), and the ready list stays as it
        is when no SM fits.
        """
        self._dispatch_dirty = False
        fp = state.footprint
        best = self._find_sm(fp)
        if best is None:
            return False
        self.ready_list = []
        now = self.now
        if not state.dispatch_started:
            state.dispatch_started = True
            state.start_time = now
        ri = state.run_cursor
        bi = state.next_block
        _ends, works, floors = self._runs[state.cid]
        work = works[ri]
        floor = floors[ri]
        best.advance(now)
        state.next_block = bi + 1
        state.run_cursor = ri + 1
        best.free_warps -= fp.warps
        best.free_blocks -= 1
        best.free_smem -= fp.smem
        best.free_regs -= fp.regs
        if work <= _EPS and floor <= _EPS:
            self._retire_one(best, state, bi)
            return True
        if work <= _EPS:
            chunk = _Cohort(state, floor, now, 0.0)
            chunk.indices.append(bi)
            self._push_event(now + floor, "linger_done", (best, chunk))
            return True
        cohort = _Cohort(state, floor, now, best.virtual + work)
        cohort.indices.append(bi)
        best.n_serving += 1
        heapq.heappush(best.serving, (cohort.target_v, next(self._seq), cohort))
        best.version += 1
        self._schedule_sm_check(best)
        return True
