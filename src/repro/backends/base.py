"""The backend protocol: where launch graphs go to execute.

A :class:`Backend` is the seam between the template layer (which decides
*how* an irregular loop or recursion maps onto kernels) and the execution
substrate (which decides *what it costs to run them*).  Templates build a
:class:`~repro.gpusim.kernels.LaunchGraph`; backends accept a batch of
them through :meth:`Backend.submit_many` (:meth:`Backend.submit` is the
one-graph batch) and return one
:class:`~repro.gpusim.executor.ExecutionResult` per graph.

Separating the two follows the same decomposition Atos and the GPU
load-balancing programming-model literature make: scheduling policy
(templates) above, workload partitioning and device placement (backends)
below.  Three backends ship:

* :class:`~repro.backends.sim.SimBackend` — one simulated device; wraps
  the existing :class:`~repro.gpusim.executor.GpuExecutor` so every
  pre-backend behavior (engines, timelines, caches) is preserved
  bit-for-bit.
* :class:`~repro.backends.group.DeviceGroup` — N simulated devices;
  shards whole workloads across members (template runs) and routes
  individual graphs to the least-loaded member (``submit_many``).
* :class:`~repro.queue.backend.QueueBackend` — one simulated device
  running the Atos-style persistent-worker task-queue model instead of
  bulk-synchronous launches (``capabilities.persistent_queue``; see
  ``docs/taskqueue.md``).

Capabilities are advertised, not probed: :class:`BackendCapabilities`
carries the flags a template or scheduler needs before committing a plan
— dynamic-parallelism support and the shared-memory budget per block —
plus the device count a group exposes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.gpusim.config import DeviceConfig, supports_dynamic_parallelism
from repro.gpusim.executor import ExecutionResult
from repro.gpusim.kernels import LaunchGraph

__all__ = ["Backend", "BackendCapabilities", "capabilities_of"]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, declared up front.

    Templates that require a capability (nested launches, a shared-memory
    staging buffer) can check here before building a plan instead of
    failing inside the executor.
    """

    #: whether nested (device-side) kernel launches are supported
    dynamic_parallelism: bool
    #: shared-memory budget one block may allocate (bytes)
    shared_mem_per_block: int
    #: simulated devices behind this backend (1 for a single device)
    devices: int = 1
    #: whether execution is persistent-worker task queues instead of
    #: bulk-synchronous launches (see ``repro.queue``); queue backends
    #: cannot honor templates that need launch-wide barrier semantics
    persistent_queue: bool = False

    def supports(self, template) -> bool:
        """Whether ``template`` can run here (its declared needs are met)."""
        if (getattr(template, "uses_dynamic_parallelism", False)
                and not self.dynamic_parallelism):
            return False
        if (self.persistent_queue
                and not getattr(template, "queue_compatible", True)):
            return False
        return True


def capabilities_of(config: DeviceConfig, devices: int = 1) -> BackendCapabilities:
    """Capability flags of (a group of) devices described by ``config``."""
    return BackendCapabilities(
        dynamic_parallelism=supports_dynamic_parallelism(config),
        shared_mem_per_block=config.shared_mem_per_block,
        devices=devices,
    )


class Backend(ABC):
    """Executes launch graphs; the template->execution seam.

    Implementations expose the attributes the template ``run()`` wrappers
    key their caches on — ``device``, ``engine`` — so swapping the
    backend never silently changes a cache key.
    """

    #: backend identifier (used in fingerprints and reprs)
    name: str = "abstract"

    @property
    @abstractmethod
    def device(self) -> DeviceConfig:
        """The (member) device configuration this backend simulates."""

    @property
    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Declared capability flags (dynamic parallelism, smem, devices)."""

    @property
    def engine(self) -> str | None:
        """Forced executor engine, or None for the process default."""
        return None

    @property
    def run_cache_tag(self) -> str | None:
        """The execution model's part of the ``run`` cache key.

        None for the BSP backends; execution models whose results differ
        from the plain simulator (the queue backend) return a repr-stable
        tag.
        """
        return None

    @property
    def n_devices(self) -> int:
        """Devices behind this backend (shorthand for capabilities)."""
        return self.capabilities.devices

    @abstractmethod
    def submit_many(self, graphs: list[LaunchGraph]) -> list[ExecutionResult]:
        """Execute a batch of launch graphs; results align with ``graphs``.

        The one execution method a backend implements.  Backends that can
        amortize work across a batch (one fused event loop, one device
        pass) do so here — each result must stay bit-identical to
        executing its graph alone.
        """

    def submit(self, graph: LaunchGraph) -> ExecutionResult:
        """Execute one launch graph: the one-graph batch."""
        return self.submit_many([graph])[0]

    def fingerprint(self) -> str:
        """Repr-stable identity for cache keys incorporating the backend.

        Single-device backends intentionally fingerprint as the bare
        device so plan/run cache keys are unchanged from the pre-backend
        layout (``devices=1`` stays bit-for-bit compatible).
        """
        device_fp = self.device.fingerprint()
        if self.n_devices == 1:
            return device_fp
        return f"{device_fp}x{self.n_devices}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name} "
                f"device={self.device.name!r} devices={self.n_devices}>")
