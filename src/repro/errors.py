"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching programming errors.
The value checks shared by every entry point (:func:`check_count`,
:func:`check_duration`) live here too, so any layer can use them without
an import cycle.
"""

from __future__ import annotations

import math
import numbers


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid device/CPU configuration or kernel configuration."""


class LaunchError(ReproError):
    """A kernel launch violates device limits (grid size, block size,
    shared memory, pending-launch pool, recursion depth)."""


class WorkloadError(ReproError):
    """A workload description is inconsistent (negative trip counts,
    mismatched array lengths, out-of-range indices)."""


class PlanError(ReproError):
    """A mapping plan is internally inconsistent (iterations dropped or
    duplicated, lane assignments out of range)."""


class IRError(PlanError):
    """A parallelization-IR structure is malformed or trip-count
    inconsistent, or a compiler pass produced an invalid rewrite.
    Subclasses :class:`PlanError`: an invalid IR is an invalid plan."""


class GraphError(ReproError):
    """An invalid graph or tree structure (malformed CSR, bad indices)."""


class DatasetError(ReproError):
    """A dataset cannot be parsed or generated with the given parameters."""


class ExperimentError(ReproError):
    """A benchmark experiment is unknown or was given invalid parameters."""


class ServiceError(ReproError):
    """The serving layer was misconfigured or misused (bad config values,
    submit on a stopped service, worker timeout/crash)."""


def check_count(name: str, value, floor: int, *, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is an integer >= ``floor``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < floor:
        bound = f"must be >= {floor}" if floor else "cannot be negative"
        raise error(f"{name} {bound}, got {value}")


def check_duration(name: str, value, *, zero_ok: bool,
                   error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` (a time or latency bound) is a
    finite real number that is positive, or zero with ``zero_ok``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise error(f"{name} must be a finite number, got {value!r}")
    if value < 0 or (value == 0 and not zero_ok):
        bound = "cannot be negative" if zero_ok else "must be positive"
        raise error(f"{name} {bound}, got {value}")
