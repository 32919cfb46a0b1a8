"""Device configuration for the SIMT timing simulator.

:class:`DeviceConfig` collects the architectural parameters the simulator
needs: the hardware hierarchy (SMs, cores, warp size), the resource limits
that bound occupancy (threads/warps/blocks/registers/shared memory per SM),
the memory-system constants used by the coalescing model, and the
launch-overhead constants used by the dynamic-parallelism model.

Presets mirror the machines the paper uses (an Nvidia K20) plus two other
devices useful for sensitivity studies.  All time-like constants are in GPU
*cycles* unless the name says otherwise; conversion to wall-clock uses
``clock_ghz``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from repro.errors import ConfigError, check_count, check_duration

__all__ = [
    "DeviceConfig",
    "KEPLER_K20",
    "KEPLER_K40",
    "FERMI_C2050",
    "preset",
    "PRESETS",
    "check_device",
    "supports_dynamic_parallelism",
]


#: integer fields and the least value each accepts
_COUNT_FLOORS = {
    "sm_count": 1, "cores_per_sm": 1, "warp_size": 1,
    "warp_schedulers_per_sm": 1, "max_threads_per_block": 1,
    "max_threads_per_sm": 1, "max_blocks_per_sm": 1, "max_warps_per_sm": 1,
    "registers_per_sm": 1, "max_registers_per_thread": 1,
    "shared_mem_per_sm": 1, "shared_mem_per_block": 0,
    "register_alloc_granularity": 1, "shared_mem_alloc_granularity": 1,
    "max_grid_dim_x": 1, "mem_segment_bytes": 1, "dram_latency_cycles": 0,
    "shared_mem_cycles": 0, "shared_mem_banks": 1, "atomic_cycles": 1,
    "atomic_conflict_cycles": 0, "max_concurrent_kernels": 1,
    "device_launch_issue_cycles": 0, "pending_launch_limit": 1,
    "max_launch_depth": 1,
}
#: real-valued fields (rates, latencies, costs) -> whether zero is valid
_REAL_ZERO_OK = {
    "clock_ghz": False, "cycles_per_segment": False,
    "memory_parallelism_per_warp": False, "cycles_per_inst": True,
    "loop_overhead_insts": True, "atomic_same_address_cycles": True,
    "host_launch_overhead_us": True, "device_launch_latency_us": True,
    "device_launch_throughput_per_us": False,
    "stream_create_overhead_us": True,
}


@dataclass(frozen=True)
class DeviceConfig:
    """Architectural + cost-model parameters of a simulated GPU.

    The defaults describe a Kepler K20 (GK110), the device used in the
    paper's evaluation.  Instances are immutable; use
    :meth:`replace` to derive variants.
    """

    name: str = "Kepler K20 (GK110)"
    compute_capability: tuple[int, int] = (3, 5)

    # --- hardware hierarchy -------------------------------------------------
    sm_count: int = 13
    cores_per_sm: int = 192
    warp_size: int = 32
    warp_schedulers_per_sm: int = 4
    clock_ghz: float = 0.706

    # --- occupancy limits ---------------------------------------------------
    max_threads_per_block: int = 1024
    max_threads_per_sm: int = 2048
    max_blocks_per_sm: int = 16
    max_warps_per_sm: int = 64
    registers_per_sm: int = 65536
    max_registers_per_thread: int = 255
    shared_mem_per_sm: int = 49152
    shared_mem_per_block: int = 49152
    register_alloc_granularity: int = 256
    shared_mem_alloc_granularity: int = 256
    max_grid_dim_x: int = 2**31 - 1

    # --- memory system ------------------------------------------------------
    #: size of one global-memory transaction segment (bytes).  Kepler
    #: global loads are not L1-cached: they are serviced by L2 in 32-byte
    #: transactions, which is the granularity the profiler's gld/gst
    #: efficiency metrics are defined against.
    mem_segment_bytes: int = 32
    #: SM-cycles per segment at full bandwidth.  K20: 208 GB/s over 13
    #: SMs at 0.706 GHz is ~22.7 B per SM-cycle, i.e. ~1.4 cycles per
    #: 32-byte segment.
    cycles_per_segment: float = 1.5
    #: raw DRAM latency in cycles; exposed when too few warps are resident
    dram_latency_cycles: int = 440
    #: outstanding memory requests one warp keeps in flight (MLP); together
    #: with resident warps this sets how much latency is hidden
    memory_parallelism_per_warp: float = 2.0
    #: shared-memory access cycles per (conflict-free) warp access
    shared_mem_cycles: int = 2
    #: number of shared-memory banks (bank-conflict model)
    shared_mem_banks: int = 32

    # --- instruction cost ---------------------------------------------------
    #: cycles per warp-issued ALU/FPU instruction
    cycles_per_inst: float = 1.0
    #: modelled instructions in one inner-loop body step (index arithmetic,
    #: compare, branch) on top of explicit flops/loads
    loop_overhead_insts: float = 4.0

    # --- atomics ------------------------------------------------------------
    #: cycles for one uncontended global atomic RMW
    atomic_cycles: int = 24
    #: additional serialization cycles per extra conflicting lane
    atomic_conflict_cycles: int = 16
    #: sustained L2 throughput for back-to-back RMWs on ONE address
    #: (cycles per operation) — sets the serial tail of hot-address kernels
    atomic_same_address_cycles: float = 2.0

    # --- concurrency --------------------------------------------------------
    #: hardware limit on concurrently executing grids (Kepler HyperQ: 32)
    max_concurrent_kernels: int = 32

    # --- kernel launch / dynamic parallelism --------------------------------
    #: host-side kernel launch overhead (microseconds)
    host_launch_overhead_us: float = 6.0
    #: device-side (nested) launch: cycles the *parent warp* spends issuing
    device_launch_issue_cycles: int = 800
    #: grid-management latency before a child grid becomes schedulable (us)
    device_launch_latency_us: float = 10.0
    #: sustained device-launch throughput (launches per microsecond) once the
    #: grid management unit pipeline is full (CUDA 6-era measurements put
    #: sustained nested-launch rates in the hundreds of thousands per second)
    device_launch_throughput_per_us: float = 0.5
    #: capacity of the pending-launch pool (CUDA default is 2048)
    pending_launch_limit: int = 2048
    #: maximum nesting depth for dynamic parallelism (CUDA default is 24)
    max_launch_depth: int = 24
    #: overhead of creating/using one extra device stream (microseconds)
    stream_create_overhead_us: float = 1.0

    def __post_init__(self) -> None:
        # every numeric field, so a malformed number fails here rather
        # than as a NaN time, a bare TypeError or a simulation that never
        # places a block (max_concurrent_kernels >= 1 is also what lets
        # the fast engine place a lone launch without the cap check)
        for name, floor in _COUNT_FLOORS.items():
            check_count(f"DeviceConfig.{name}", getattr(self, name), floor)
        for name, zero_ok in _REAL_ZERO_OK.items():
            check_duration(f"DeviceConfig.{name}", getattr(self, name),
                           zero_ok=zero_ok)
        if self.warp_size & (self.warp_size - 1):
            raise ConfigError(f"warp_size must be a power of two, got {self.warp_size}")
        if self.max_threads_per_sm < self.max_threads_per_block:
            raise ConfigError(
                "max_threads_per_sm must be >= max_threads_per_block "
                f"({self.max_threads_per_sm} < {self.max_threads_per_block})"
            )
        if self.max_warps_per_sm * self.warp_size < self.max_threads_per_sm:
            raise ConfigError(
                "max_warps_per_sm * warp_size must cover max_threads_per_sm"
            )
        if self.shared_mem_per_block > self.shared_mem_per_sm:
            raise ConfigError("shared_mem_per_block cannot exceed shared_mem_per_sm")

    # -- derived quantities ---------------------------------------------------
    @property
    def total_cores(self) -> int:
        """Total CUDA cores on the device."""
        return self.sm_count * self.cores_per_sm

    @property
    def warp_throughput_per_cycle(self) -> float:
        """Warp-instructions one SM retires per cycle (cores / warp size)."""
        return self.cores_per_sm / self.warp_size

    @property
    def cycle_ns(self) -> float:
        """Duration of one GPU cycle in nanoseconds."""
        return 1.0 / self.clock_ghz

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert a cycle count into milliseconds of wall-clock time."""
        return cycles * self.cycle_ns * 1e-6

    def ms_to_cycles(self, ms: float) -> float:
        """Convert milliseconds into GPU cycles."""
        return ms * 1e6 * self.clock_ghz

    def us_to_cycles(self, us: float) -> float:
        """Convert microseconds into GPU cycles."""
        return us * 1e3 * self.clock_ghz

    def replace(self, **changes: object) -> "DeviceConfig":
        """Return a copy of this configuration with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """Stable content digest of every architectural field.

        Two configs constructed independently — in different processes,
        different sessions — fingerprint identically iff their fields are
        equal, which is what plan keys and the disk artifact cache need
        (``repr`` of floats is exact round-trip text, so no precision is
        lost).  Memoized per instance; instances are frozen.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        text = "|".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
        )
        digest = hashlib.blake2b(text.encode(), digest_size=12).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def describe(self) -> str:
        """Human-readable multi-line summary of the device."""
        lines = [
            f"{self.name} (sm_{self.compute_capability[0]}{self.compute_capability[1]})",
            f"  SMs: {self.sm_count} x {self.cores_per_sm} cores @ {self.clock_ghz:.3f} GHz",
            f"  limits/SM: {self.max_threads_per_sm} threads, {self.max_warps_per_sm} warps, "
            f"{self.max_blocks_per_sm} blocks, {self.registers_per_sm} regs, "
            f"{self.shared_mem_per_sm} B smem",
            f"  memory: {self.mem_segment_bytes} B segments, "
            f"{self.cycles_per_segment} cyc/segment, {self.dram_latency_cycles} cyc latency",
            f"  dynamic parallelism: {self.device_launch_latency_us:.1f} us launch latency, "
            f"pool {self.pending_launch_limit}, depth {self.max_launch_depth}",
        ]
        return "\n".join(lines)


#: The device used throughout the paper's evaluation.
KEPLER_K20 = DeviceConfig()

#: A larger Kepler part (GK110B) for sensitivity studies.
KEPLER_K40 = DeviceConfig(
    name="Kepler K40 (GK110B)",
    sm_count=15,
    clock_ghz=0.745,
)

#: A Fermi-generation device *without* dynamic parallelism support; used to
#: check that dpar templates are rejected where the hardware lacks nested
#: launch capability (the paper targets such devices with dbuf templates).
FERMI_C2050 = DeviceConfig(
    name="Fermi C2050 (GF100)",
    compute_capability=(2, 0),
    sm_count=14,
    cores_per_sm=32,
    clock_ghz=1.15,
    max_threads_per_sm=1536,
    max_blocks_per_sm=8,
    max_warps_per_sm=48,
    registers_per_sm=32768,
    max_launch_depth=1,  # no nested launches
)

PRESETS: dict[str, DeviceConfig] = {
    "k20": KEPLER_K20,
    "k40": KEPLER_K40,
    "c2050": FERMI_C2050,
}


def preset(name: str) -> DeviceConfig:
    """Look up a device preset by short name (``k20``, ``k40``, ``c2050``)."""
    try:
        return PRESETS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown device preset {name!r}; known presets: {known}") from None


def check_device(device) -> None:
    """Raise :class:`ConfigError` unless ``device`` is a DeviceConfig."""
    if not isinstance(device, DeviceConfig):
        raise ConfigError(f"device must be a DeviceConfig (see preset()), got {device!r}")


def supports_dynamic_parallelism(config: DeviceConfig) -> bool:
    """Whether the device supports nested kernel launches (CC >= 3.5)."""
    return config.compute_capability >= (3, 5)
