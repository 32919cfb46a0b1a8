"""Single simulated device: :class:`GpuExecutor` behind the backend seam.

:class:`SimBackend` is a thin adapter — it owns one
:class:`~repro.gpusim.executor.GpuExecutor` and forwards
:meth:`~SimBackend.submit_many` to its ``run_many``.  Its job is
fidelity: everything the template layer used to read off the executor
(engine, the device config) is exposed unchanged, so
plan/run cache keys and results for ``devices=1`` are bit-for-bit
identical to the pre-backend code path.

When the backend is a member of a :class:`~repro.backends.group.DeviceGroup`
it carries a ``device_index`` and stamps per-device obs counters
(``device.<i>.launches`` / ``device.<i>.busy_cycles``) per executed graph;
standalone backends leave the obs stream untouched.
"""

from __future__ import annotations

from repro import obs
from repro.backends.base import Backend, BackendCapabilities, capabilities_of
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.executor import ExecutionResult, GpuExecutor
from repro.gpusim.kernels import LaunchGraph

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """One simulated device; wraps a :class:`GpuExecutor`.

    Parameters
    ----------
    device:
        device configuration to simulate (default Kepler K20).
    engine:
        executor engine override, or ``None`` for the process default.
    device_index:
        position within a :class:`DeviceGroup`, or ``None`` when
        standalone.  Indexed backends emit ``device.<i>.*`` obs counters.
    """

    name = "sim"

    def __init__(
        self,
        device: DeviceConfig = KEPLER_K20,
        *,
        engine: str | None = None,
        device_index: int | None = None,
    ) -> None:
        self.executor = GpuExecutor(device, engine=engine)
        self.device_index = device_index
        self._capabilities = capabilities_of(self.executor.config)
        #: simulated busy time submitted through this backend (ms) — the
        #: load signal a DeviceGroup routes on
        self.busy_ms = 0.0
        #: graphs submitted through this backend
        self.submissions = 0

    @property
    def device(self) -> DeviceConfig:
        return self.executor.config

    @property
    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    @property
    def engine(self) -> str | None:
        return self.executor.engine

    def submit_many(self, graphs: list[LaunchGraph]) -> list[ExecutionResult]:
        """Execute ``graphs`` as one executor pass (bit-exact per graph)."""
        results = self.executor.run_many(graphs)
        for result in results:
            self.busy_ms += result.time_ms
            self.submissions += 1
            if self.device_index is not None:
                i = self.device_index
                obs.add_counter(f"device.{i}.launches", result.n_launches)
                obs.add_counter(f"device.{i}.busy_cycles",
                                result.sm_busy_cycles)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        idx = "" if self.device_index is None else f" index={self.device_index}"
        return (f"<SimBackend device={self.device.name!r}"
                f" engine={self.engine!r}{idx}>")
