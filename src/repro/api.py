"""One-call facade over the template machinery.

``repro.run(workload)`` is the whole API: the IR pass pipeline picks the
parallelization template (and its parameters) for the workload — build
IR, promote/consolidate, lower onto the registry (see ``docs/ir.md``) —
and the result is the usual :class:`~repro.core.base.TemplateRun` with
the :class:`~repro.ir.select.Selection` attached.  Naming a template is
the *override* form: ``repro.run(workload, "dbuf-shared")`` skips
selection and runs that template.  ``repro.compare`` runs several
templates on one workload and returns the runs in request order;
``repro.explain`` returns the selection audit trail (IR before/after the
passes, every pass decision, the chosen template/params) without
executing anything beyond what selection itself needs.  ``repro.serve``
brings up the long-lived serving runtime (:mod:`repro.service`).

Both run functions accept a template *instance* in place of a name, for
custom templates that never entered the registry.  The workload always
comes first; anything else in that position is a :class:`WorkloadError`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.base import TemplateRun
from repro.core.params import TemplateParams
from repro.core.recursive import RecursiveTreeWorkload
from repro.core.registry import resolve
from repro.core.workload import NestedLoopWorkload
from repro.errors import ConfigError, WorkloadError
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.executor import resolve_engine
from repro.ir.select import auto_select, is_auto

__all__ = ["run", "compare", "explain", "serve"]


def _kind_of(workload) -> str:
    if isinstance(workload, NestedLoopWorkload):
        return "nested-loop"
    if isinstance(workload, RecursiveTreeWorkload):
        return "tree"
    raise WorkloadError(
        "workload must be a NestedLoopWorkload or RecursiveTreeWorkload, "
        f"got {type(workload).__name__}"
    )


def _check_params(params) -> None:
    if params is not None and not isinstance(params, TemplateParams):
        raise ConfigError(
            "params must be a TemplateParams or None, got "
            f"{type(params).__name__}"
        )


def _coerce_backend_arg(backend, device, devices, engine):
    """Resolve the facade's ``backend`` argument to (backend, kind).

    ``backend`` may be None (classic paths, untouched), a kind string
    (``"sim"`` / ``"queue"``) or an already-constructed
    :class:`~repro.backends.Backend`.  Returns the backend object (or
    None) plus the kind string auto-select reasons about.
    """
    from repro.backends import Backend, backend_for, resolve_backend

    if backend is None:
        return None, "sim"
    if isinstance(backend, str):
        kind = resolve_backend(backend)
        if kind == "sim" and devices == 1:
            # the spelled-out default: keep the classic (byte-identical)
            # executor path rather than a differently-constructed backend
            return None, "sim"
        return backend_for(device, devices, engine=engine, kind=kind), kind
    if isinstance(backend, Backend):
        if devices != 1:
            raise ConfigError(
                "pass either a backend instance or devices>1, not both"
            )
        kind = "queue" if backend.capabilities.persistent_queue else "sim"
        return backend, kind
    raise ConfigError(
        f"backend must be a kind string or a repro.backends.Backend, "
        f"got {type(backend).__name__}"
    )


def run(
    workload,
    template="auto",
    *,
    device: DeviceConfig = KEPLER_K20,
    devices: int = 1,
    params: TemplateParams | None = None,
    engine: str | None = None,
    backend=None,
) -> TemplateRun:
    """Run a workload and return the full result.

    Parameters
    ----------
    workload:
        :class:`NestedLoopWorkload` or :class:`RecursiveTreeWorkload`.
    template:
        ``"auto"`` (the default) selects the template through the IR pass
        pipeline — build, threshold promotion, launch consolidation,
        lowering — racing autotune's cost signal where the lowering is
        ambiguous; the decision is attached to the returned run as
        ``.selection``.  To override, pass a canonical paper name
        (``"thread-mapped"``, ``"dbuf-shared"``, ``"rec-hier"``, ...) or
        an already-constructed template instance.  Names are restricted
        to the template family matching the workload type, so
        ``run(nested_loop_workload, "flat")`` fails loudly instead of
        silently misdispatching.
    device:
        simulated device (default: the paper's Kepler K20).
    devices:
        simulated device count.  ``1`` (the default) executes exactly as
        a single device always has; ``N > 1`` shards the workload across
        a :class:`~repro.backends.DeviceGroup` of N identical devices
        and returns a merged run whose ``device_runs`` /
        ``result.per_device`` keep the per-device components inspectable
        (see ``docs/architecture.md``).
    params:
        :class:`TemplateParams`; defaults are the paper's choices.  Under
        ``template="auto"`` these are the starting point — the selection
        may derive a different ``lb_threshold`` (the race winner's).
    engine:
        ``"fast"`` (cohort-batched executor, the default) or ``"exact"``
        (the reference event-per-block engine; bit-identical results —
        see ``docs/performance.md``).  None defers to the process-wide
        default engine.
    backend:
        execution model: ``"sim"`` (bulk-synchronous, the default) or
        ``"queue"`` (Atos-style persistent task queues, single device —
        see ``docs/taskqueue.md``), or an already-constructed
        :class:`~repro.backends.Backend` instance.  Under
        ``template="auto"`` the selection records the chosen backend and
        its capability reasons (``run.selection`` / ``repro.explain``);
        queue-incompatible templates fall back to BSP execution.
    """
    kind = _kind_of(workload)
    _check_params(params)
    engine = resolve_engine(engine)
    if devices < 1:
        raise ConfigError(f"devices must be >= 1, got {devices}")
    backend_obj, backend_kind = _coerce_backend_arg(
        backend, device, devices, engine
    )
    selection = None
    if is_auto(template):
        selection = auto_select(workload, device, params, engine,
                                backend=backend_kind)
        template, params = selection.template, selection.params
    tmpl = resolve(template, kind=kind) if isinstance(template, str) else template
    if backend_obj is None and devices > 1:
        from repro.backends import backend_for

        backend_obj = backend_for(device, devices, engine=engine)
    elif backend_obj is None and engine is not None:
        from repro.backends import SimBackend

        backend_obj = SimBackend(device, engine=engine)
    result = tmpl.run(workload, device, params or TemplateParams(),
                      backend=backend_obj)
    result.selection = selection
    return result


def compare(
    workload,
    templates: Iterable | None = None,
    *,
    include=None,
    device: DeviceConfig = KEPLER_K20,
    devices: int = 1,
    params: TemplateParams | None = None,
    engine: str | None = None,
    backend=None,
) -> list[TemplateRun]:
    """Run several templates on one workload; runs come back in request order.

    ``templates`` defaults to ``("auto",)`` — just the auto-selected run.
    ``include`` appends extra entries (a name or an iterable of names)
    without restating the list: ``compare(wl, ["thread-mapped"],
    include="auto")`` runs the named template plus the auto pick.
    """
    if templates is None:
        templates = ("auto",)
    elif isinstance(templates, str) or not isinstance(templates, Iterable):
        templates = (templates,)
    else:
        templates = tuple(templates)
    if include is not None:
        extra = (include,) if (
            isinstance(include, str) or not isinstance(include, Iterable)
        ) else tuple(include)
        templates = templates + extra
    engine = resolve_engine(engine)
    return [
        run(workload, t, device=device, devices=devices, params=params,
            engine=engine, backend=backend)
        for t in templates
    ]


def explain(
    workload,
    *,
    device: DeviceConfig = KEPLER_K20,
    params: TemplateParams | None = None,
    engine: str | None = None,
    backend: str | None = None,
) -> dict:
    """The auto-select audit trail for a workload, as a structured dict.

    Keys: ``template`` / ``params`` (the decision), ``kind``, ``backend``
    (the chosen execution model, with its capability reasoning in
    ``reasons``), ``ir`` / ``final_ir`` (the loop structure before and
    after the passes, nested dicts), ``decisions`` (every pass rewrite),
    ``reasons`` (the lowering rationale), ``raced`` (the candidates the
    cost race compared, empty for unambiguous lowerings) and
    ``fingerprint`` (the final IR digest that keyed the decision).
    Selection is cached, so explaining and then running costs one
    selection, not two.
    """
    from repro.backends import resolve_backend

    _check_params(params)
    engine = resolve_engine(engine)
    kind = resolve_backend(backend) or "sim"
    return auto_select(workload, device, params, engine,
                       backend=kind).to_dict()


def serve(config=None, **config_kwargs):
    """Start the serving runtime; returns a synchronous service handle.

    The handle is a context manager accepting either a full
    :class:`~repro.service.ServiceConfig` or its fields as keywords::

        with repro.serve(max_batch=32) as svc:
            response = svc.request("dbuf-global", workload)
            print(svc.stats()["latency_ms"])

    See :mod:`repro.service` and ``docs/serving.md``.
    """
    from repro.service.handle import serve as _serve

    return _serve(config, **config_kwargs)
