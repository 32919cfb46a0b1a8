"""Template base classes and the run wrapper."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from repro import obs
from repro.core.analysis import WorkloadAnalysis, get_analysis
from repro.core.artifactcache import tiered_cache
from repro.core.params import TemplateParams, check_params
from repro.core.workload import NestedLoopWorkload
from repro.errors import PlanError
from repro.gpusim.config import DeviceConfig, check_device
from repro.gpusim.executor import (
    ExecutionResult,
    GpuExecutor,
    get_default_engine,
    resolve_engine,
)
from repro.gpusim.kernels import LaunchGraph
from repro.gpusim.profiler import ProfileMetrics, profile

__all__ = [
    "TemplateRun", "NestedLoopTemplate", "check_schedule", "plan_key",
    "run_many",
]


def plan_key(
    template: "NestedLoopTemplate | object",
    workload_fingerprint: str,
    config: DeviceConfig,
    params: TemplateParams,
) -> tuple:
    """Cache key for one template build.

    Only the params fields named in the template's ``PLAN_RELEVANT_PARAMS``
    enter the key (None means all fields): sweeping a parameter the
    template's plan never reads keeps hitting the same entry.  The device
    enters as its content fingerprint string, so equal configs constructed
    in different processes produce identical (and repr-stable) keys — the
    cache's disk level depends on this.
    """
    relevant = getattr(template, "PLAN_RELEVANT_PARAMS", None)
    if relevant is None:
        relevant = tuple(f.name for f in dataclass_fields(params))
    param_items = tuple((name, getattr(params, name)) for name in relevant)
    return (workload_fingerprint, template.name, config.fingerprint(), param_items)


@dataclass
class TemplateRun:
    """Everything one template execution produced."""

    template: str
    workload: str
    graph: LaunchGraph
    result: ExecutionResult
    metrics: ProfileMetrics
    #: phase name -> outer iteration ids handled by that phase
    schedule: dict[str, np.ndarray] = field(default_factory=dict)
    params: TemplateParams | None = None
    #: the auto-select decision behind a ``template="auto"`` run
    #: (:class:`~repro.ir.select.Selection`; None for named-template runs)
    selection: object | None = None
    #: cache level that served the plan: "memory", "disk" or "build"
    plan_level: str | None = None

    @property
    def time_ms(self) -> float:
        """End-to-end simulated time."""
        return self.result.time_ms


def check_schedule(schedule: dict[str, np.ndarray], outer_size: int) -> None:
    """Every outer iteration must be scheduled exactly once across phases.

    This is the work-conservation invariant templates must uphold: load
    balancing may *move* iterations between phases, never drop or
    duplicate them.
    """
    if not schedule:
        raise PlanError("schedule is empty")
    allx = np.concatenate([np.asarray(v, dtype=np.int64) for v in schedule.values()])
    if allx.size != outer_size:
        raise PlanError(
            f"schedule covers {allx.size} iterations, expected {outer_size}"
        )
    seen = np.zeros(outer_size, dtype=bool)
    if allx.size and (allx.min() < 0 or allx.max() >= outer_size):
        raise PlanError("schedule contains out-of-range iterations")
    seen[allx] = True
    if allx.size != np.count_nonzero(seen):
        raise PlanError("schedule assigns some iteration twice")
    if not seen.all():
        raise PlanError("schedule drops iterations")


@dataclass
class _PreparedRun:
    """A template run with its plan resolved but execution still pending.

    What :meth:`_TemplateBase._prepare` returns, so :func:`run_many` can
    resolve many plans first, execute every run-cache miss as **one**
    fused executor pass, and only then finalize.
    """

    template: "_TemplateBase"
    workload: object
    config: DeviceConfig
    params: TemplateParams
    graph: LaunchGraph
    schedule: dict[str, np.ndarray]
    #: cache level that served the plan: "memory", "disk" or "build"
    plan_level: str
    #: ``run``-kind key when this run may be cached, else None (tracing
    #: needs a live run)
    run_key: tuple | None
    #: cached execution result, or None when a live execution is needed
    result: ExecutionResult | None

    def record(self, result: ExecutionResult) -> None:
        """Attach a live execution result, caching it under the run key."""
        self.result = result
        if self.run_key is not None:
            tiered_cache().put("run", self.run_key, result)

    def finish(self) -> TemplateRun:
        """Profile the (now present) result and assemble the TemplateRun."""
        metrics = profile(self.graph, self.result, self.config)
        return TemplateRun(
            template=self.template.name,
            workload=self.workload.name,
            graph=self.graph,
            result=self.result,
            metrics=metrics,
            schedule=self.schedule,
            params=self.params,
            plan_level=self.plan_level,
        )


class _TemplateBase:
    """What the nested-loop and tree template families share: identity
    flags and the one run path.

    A family supplies only what differs — :meth:`_build_plan` (the value
    the cache stores) and :meth:`_split_plan` (the launch graph and
    the schedule a plan reports); :meth:`run` and :meth:`_prepare` are
    common.
    """

    #: template identifier (paper name)
    name: str = "abstract"
    #: whether the template needs CC >= 3.5 nested launches
    uses_dynamic_parallelism: bool = False
    #: :class:`TemplateParams` fields this template's build() reads; the
    #: plan cache keys only on these (None = key on every field)
    PLAN_RELEVANT_PARAMS: tuple[str, ...] | None = None

    def _build_plan(self, workload, config: DeviceConfig,
                    params: TemplateParams):
        """Build the value the tiered cache stores under the plan key."""
        raise NotImplementedError

    def _split_plan(self, plan, workload) -> tuple[LaunchGraph, dict[str, np.ndarray]]:
        """The launch graph and the schedule a plan value reports."""
        raise NotImplementedError

    def run(
        self,
        workload,
        config: DeviceConfig,
        params: TemplateParams | None = None,
        *,
        engine: str | None = None,
    ) -> TemplateRun:
        """Build, validate, execute and profile in one call.

        ``engine`` names the executor engine (None: the process
        default).  This is the one-item case of :func:`run_many`.

        Plans and execution results come from the tiered cache (the
        simulator is deterministic); cached graphs are shared, so treat
        them as read-only.
        """
        return run_many([(self, workload, params)], config, engine=engine)[0]

    def _prepare(self, workload, config: DeviceConfig, params: TemplateParams,
                 engine: str) -> _PreparedRun:
        """Resolve the plan and probe the run cache (skipped under
        tracing, which needs a live run); execution stays pending.
        The returned :class:`_PreparedRun` carries ``result`` on a run
        hit; :func:`run_many` executes the graph otherwise.
        """
        cache = tiered_cache()
        key = plan_key(self, workload.fingerprint(), config, params)

        def build():
            with obs.span("plan.build", template=self.name,
                          workload=workload.name):
                return self._build_plan(workload, config, params)

        plan, level = cache.fetch("plan", key, build)
        if level == "memory" and obs.enabled():
            obs.instant("plan.cache_hit", template=self.name,
                        workload=workload.name)
        graph, schedule = self._split_plan(plan, workload)
        run_key = None
        result = None
        if not obs.enabled():
            run_key = (key, engine)
            result = cache.get("run", run_key)
        return _PreparedRun(
            template=self,
            workload=workload,
            config=config,
            params=params,
            graph=graph,
            schedule=schedule,
            plan_level=level,
            run_key=run_key,
            result=result,
        )


class NestedLoopTemplate(_TemplateBase, ABC):
    """A parallelization template for irregular nested loops (Fig. 1)."""

    def build(
        self,
        workload: NestedLoopWorkload,
        config: DeviceConfig,
        params: TemplateParams,
    ) -> tuple[LaunchGraph, dict[str, np.ndarray]]:
        """Produce the launch graph + phase schedule for a workload.

        Two-stage pipeline: fetch (or compute) the workload-invariant
        :class:`WorkloadAnalysis` from the fingerprint-keyed analysis
        cache, then :meth:`specialize` it to this concrete ``(config,
        params)`` point.  A parameter sweep over N points therefore pays
        the analysis once and runs only the cheap specialize stage N times.
        """
        return self.specialize(workload, get_analysis(workload), config, params)

    @abstractmethod
    def specialize(
        self,
        workload: NestedLoopWorkload,
        analysis: WorkloadAnalysis,
        config: DeviceConfig,
        params: TemplateParams,
    ) -> tuple[LaunchGraph, dict[str, np.ndarray]]:
        """Assemble the launch graph for one concrete parameter point.

        ``analysis`` holds everything that depends on the workload alone
        (sorted trip order, threshold partitions, per-stream segment ids);
        implementations must not mutate it — it is shared across templates,
        parameter points and (via the disk cache) processes.
        """

    def _build_plan(self, workload, config, params):
        """``(graph, schedule)``, with the schedule checked for work
        conservation."""
        graph, schedule = self.build(workload, config, params)
        check_schedule(schedule, workload.outer_size)
        return graph, schedule

    def _split_plan(self, plan, workload):
        return plan

    # convenience used by all subclasses
    @staticmethod
    def _grid_for(n_threads: int, block_size: int, max_blocks: int) -> int:
        if n_threads <= 0:
            raise PlanError("grid needs at least one thread")
        blocks = -(-n_threads // block_size)
        if blocks > max_blocks:
            raise PlanError(
                f"grid of {blocks} blocks exceeds the configured clamp "
                f"({max_blocks}); enlarge TemplateParams.max_grid_blocks"
            )
        return blocks


def run_many(
    items,
    config: DeviceConfig,
    *,
    engine: str | None = None,
) -> list[TemplateRun]:
    """Execute several template runs as one fused executor pass.

    ``items`` is a sequence of ``(template, workload)`` or ``(template,
    workload, params)`` tuples sharing one device config; a template's
    :meth:`~_TemplateBase.run` is the one-item call, and params of None
    mean ``TemplateParams()``.  Every item goes through the caching of
    :meth:`~_TemplateBase._prepare`; the run-cache *misses* then execute
    as **one** :meth:`GpuExecutor.run_many
    <repro.gpusim.executor.GpuExecutor.run_many>` pass on ``engine``
    (None: the process default), each distinct run key once: items
    repeating a key share its result.  Results are bit-identical to
    running each item alone (fused lanes share only the event heap,
    never state) and come back in input order.
    """
    check_device(config)
    engine = resolve_engine(engine) or get_default_engine()
    runs: list[TemplateRun | None] = [None] * len(items)
    pending: list[tuple[int, _PreparedRun]] = []
    #: run key -> the pending item that executes it; later items with the
    #: key are ``repeats`` and take its result
    executes: dict[tuple, _PreparedRun] = {}
    repeats: list[tuple[int, _PreparedRun, _PreparedRun]] = []
    for idx, item in enumerate(items):
        template, workload = item[0], item[1]
        params = item[2] if len(item) > 2 else None
        check_params(params)
        if params is None:
            params = TemplateParams()
        prep = template._prepare(workload, config, params, engine)
        if prep.result is not None:
            runs[idx] = prep.finish()
        elif prep.run_key in executes:
            repeats.append((idx, prep, executes[prep.run_key]))
        else:
            if prep.run_key is not None:
                executes[prep.run_key] = prep
            pending.append((idx, prep))
    if pending:
        results = GpuExecutor(config, engine=engine).run_many(
            [prep.graph for _, prep in pending])
        for (idx, prep), result in zip(pending, results):
            prep.record(result)
            runs[idx] = prep.finish()
    for idx, prep, source in repeats:
        prep.result = source.result
        runs[idx] = prep.finish()
    return runs
