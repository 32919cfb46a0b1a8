"""``repro.backends`` — execution backends behind the template layer.

The template ``run()`` wrappers, the apps, the service and the bench
runner all obtain their execution substrate here instead of constructing
:class:`~repro.gpusim.executor.GpuExecutor` objects inline.  That one
seam is what multi-device execution threads through: set the process
default to N devices (:func:`set_default_devices`, driven by
``repro.run(..., devices=N)`` and ``python -m repro.bench --devices N``)
and every template run in the process shards across a
:class:`~repro.backends.group.DeviceGroup`; leave it at 1 and everything
behaves — bit for bit, cache keys included — exactly as the
executor-inline code did.

The same seam selects the *execution model*: ``backend_for("queue")`` (or
:func:`set_default_backend`, driven by ``repro.run(..., backend="queue")``
and ``--backend queue``) returns the Atos-style persistent task-queue
backend (:mod:`repro.queue`) instead of the bulk-synchronous simulator.
Templates that need launch-wide barrier semantics
(``queue_compatible = False``) are routed back to a BSP backend by
:func:`effective_backend` — capability-aware fallback, counted on the
``queue.fallbacks`` obs counter.
"""

from __future__ import annotations

from repro import obs
from repro.backends.base import Backend, BackendCapabilities, capabilities_of
from repro.backends.group import DeviceGroup, GroupExecutionResult, run_sharded
from repro.backends.sim import SimBackend
from repro.errors import ConfigError, check_count
from repro.gpusim.config import DeviceConfig, KEPLER_K20

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendCapabilities",
    "DeviceGroup",
    "GroupExecutionResult",
    "SimBackend",
    "backend_for",
    "capabilities_of",
    "coerce_backend",
    "effective_backend",
    "get_default_backend",
    "get_default_devices",
    "resolve_backend",
    "run_sharded",
    "set_default_backend",
    "set_default_devices",
]

#: execution models a backend kind string may name
BACKENDS = ("sim", "queue")

_default_devices = 1
_default_backend = "sim"

#: memoized device groups, keyed on (device fingerprint, n, engine) —
#: groups are stateful (load counters), so reusing one per topology keeps
#: least-loaded routing meaningful across runs in the same process
_groups: dict[tuple, DeviceGroup] = {}


def resolve_backend(kind: str | None, *, error=ConfigError) -> str | None:
    """Validate a backend kind; returns it unchanged (None passes through).

    The backend analogue of
    :func:`~repro.gpusim.executor.resolve_engine`: one shared check with
    one message, so the facade, the service and the bench runner reject
    unknown backends identically.
    """
    if kind is not None and kind not in BACKENDS:
        raise error(f"unknown backend {kind!r}; known: {', '.join(BACKENDS)}")
    return kind


def set_default_backend(kind: str) -> None:
    """Select the execution model used when no backend is passed.

    Mirrors :func:`set_default_devices`: the bench runner's ``--backend``
    flag routes through here so every template run in the process
    executes on the same model.
    """
    global _default_backend
    resolve_backend(kind)
    _default_backend = kind


def get_default_backend() -> str:
    """The backend kind currently used by default (``"sim"`` unless set)."""
    return _default_backend


def set_default_devices(n: int) -> None:
    """Select the device count used when no backend is passed.

    The multi-device analogue of
    :func:`~repro.gpusim.executor.set_default_engine`: the bench runner's
    ``--devices`` flag routes through here so every template run in the
    process (apps, experiments) shards the same way.
    """
    global _default_devices
    check_count("devices", n, 1)
    _default_devices = int(n)


def get_default_devices() -> int:
    """The device count currently used by default (1 unless overridden)."""
    return _default_devices


def backend_for(
    config: DeviceConfig | str = KEPLER_K20,
    devices: int | None = None,
    *,
    engine: str | None = None,
    kind: str | None = None,
) -> Backend:
    """A backend for ``devices`` copies of ``config`` (default topology).

    ``kind`` selects the execution model (``"sim"`` or ``"queue"``;
    defaults to the process default).  As a shorthand the kind may be
    passed positionally in place of the config — ``backend_for("queue")``
    — which uses the default device.

    One sim device returns a fresh :class:`SimBackend` (stateless, like
    the inline executors it replaces); more return the process's memoized
    :class:`DeviceGroup` for that topology.  The queue model is
    single-device: asking for a queue backend over several devices is an
    error rather than a silently different topology.
    """
    if isinstance(config, str):
        if kind is not None:
            raise ConfigError("backend kind given twice")
        kind, config = config, KEPLER_K20
    kind = resolve_backend(kind) or _default_backend
    n = _default_devices if devices is None else devices
    check_count("devices", n, 1)
    if kind == "queue":
        if n > 1:
            raise ConfigError(
                f"the queue backend is single-device (per-device queues); "
                f"got devices={n}"
            )
        from repro.queue.backend import QueueBackend

        return QueueBackend(config, engine=engine)
    if n == 1:
        return SimBackend(config, engine=engine)
    key = (config.fingerprint(), n, engine)
    group = _groups.get(key)
    if group is None:
        group = DeviceGroup(config, n, engine=engine)
        if len(_groups) >= 32:
            _groups.pop(next(iter(_groups)))
        _groups[key] = group
    return group


def coerce_backend(backend: Backend | None, config: DeviceConfig) -> Backend:
    """Resolve what a template run executes on: an explicit ``backend``,
    else the process default topology for ``config``."""
    if backend is None:
        return backend_for(config)
    if not isinstance(backend, Backend):
        raise ConfigError(
            f"backend must be a repro.backends.Backend, "
            f"got {type(backend).__name__}"
        )
    return backend


def effective_backend(backend: Backend, template) -> Backend:
    """Capability-aware routing: fall back to BSP when the queue can't run
    ``template``.

    Queue-incompatible templates (``queue_compatible = False``, e.g. the
    shared-memory delayed buffer, whose staging depends on launch-wide
    two-phase barrier semantics) execute on a plain :class:`SimBackend`
    over the same device and engine.  Every fallback bumps the
    ``queue.fallbacks`` obs counter so routing decisions stay observable.
    Non-queue capability gaps (dynamic parallelism) keep their existing
    loud failure inside the template build.
    """
    caps = backend.capabilities
    if not caps.persistent_queue or caps.supports(template):
        return backend
    if obs.enabled():
        obs.add_counter("queue.fallbacks")
        obs.instant("queue.fallback", template=template.name)
    return SimBackend(backend.device, engine=backend.engine)
