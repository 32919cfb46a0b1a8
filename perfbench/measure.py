"""The benchmark's own arithmetic: percentiles, the tail rule, self time.

Everything here is pure and deterministic so ``test_perfbench.py`` can pin
it without running the program under test.
"""

from __future__ import annotations

import math

#: percentiles the tail metric may report.  A fixed ladder keeps the
#: reported percentile identical across runs of similar size, so two
#: runs compare the same quantity.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: a tail percentile is reported only with at least this many samples
#: beyond it
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples.

    Rounded before the ceiling so that float noise (99.9 / 100 * 10000 is
    not exactly 9990) cannot push the rank up by one.
    """
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``.

    The smallest sample with at least ``q`` percent of the samples at or
    below it; no interpolation, so the result is always a measured value.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return data[_rank(len(data), q) - 1]


def beyond(n: int, q: float) -> int:
    """Number of samples ranked strictly above the ``q`` nearest-rank
    percentile of ``n`` samples."""
    return n - _rank(n, q)


def tail(values) -> tuple[float, float, int] | None:
    """The tail rule: the highest ladder percentile with at least
    :data:`MIN_BEYOND` samples beyond it.

    Returns ``(percentile, value, samples_beyond)``, or None when even the
    median has fewer than :data:`MIN_BEYOND` samples beyond it.
    """
    n = len(values)
    for q in sorted(TAIL_LADDER, reverse=True):
        count = beyond(n, q)
        if count >= MIN_BEYOND:
            return q, percentile(values, q), count
    return None


def median(values) -> float:
    """Nearest-rank median (a measured sample, see :func:`percentile`)."""
    return percentile(values, 50.0)


# --------------------------------------------------------- open-loop timing
def open_loop(due, sent, done) -> tuple[list[float], list[float]]:
    """Latencies and generator lateness of an open-loop run, in seconds.

    Each request is timed from when it was *due*, not when the generator
    got round to sending it, so a stall that delays later sends counts
    against the system.  Lateness is how far behind schedule the
    generator sent each request.
    """
    if not (len(due) == len(sent) == len(done)):
        raise ValueError("due, sent and done must have one entry per request")
    latencies = [d - t for t, d in zip(due, done)]
    lateness = [max(0.0, s - t) for t, s in zip(due, sent)]
    return latencies, lateness


def poisson_schedule(rng, n: int, window_s: float) -> list[float]:
    """``n`` due times of a Poisson process over ``[0, window_s)``.

    Conditioned on its count, a Poisson process places its events
    uniformly at random; drawing a fixed count keeps the load of every
    run identical while the gaps stay exponential.
    """
    return sorted(float(t) for t in rng.uniform(0.0, window_s, n))


# ---------------------------------------------------------------- self time
def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of that
    interval its child spans cover.

    ``spans`` are objects with ``id``, ``parent`` (0 for a
    root), ``start`` and ``end``.  A child is any span naming this one as
    parent; spans on other threads overlap in wall time without being
    children, so they never reduce each other's self time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }
