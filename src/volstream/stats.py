"""``describe``, the one summary of a sample set: the stream reports' and
the probe's statistics alike."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Stats:
    """The statistics of a sample of integer nanoseconds."""

    mean_ns: float
    p50_ns: int
    p95_ns: int
    p99_ns: int
    min_ns: int
    max_ns: int
    jitter_ns: float


def percentile_nearest_rank(sorted_values, q: int):
    """Nearest-rank percentile of a non-empty sorted sequence, q in 1..100:
    the value at rank ceil(q * n / 100)."""
    return sorted_values[-(-q * len(sorted_values) // 100) - 1]


def describe(values) -> Stats:
    """The mean, nearest-rank p50/p95/p99, min, max and jitter of the
    sequence ``values``. The jitter is the mean absolute difference between
    successive values in the given order, 0 for one value."""
    n = len(values)
    if not n:
        raise ValueError("cannot describe an empty sample")
    ordered = sorted(values)
    jitter = (sum(abs(b - a) for a, b in zip(values, values[1:])) / (n - 1)
              if n > 1 else 0.0)
    return Stats(mean_ns=sum(values) / n,
                 p50_ns=percentile_nearest_rank(ordered, 50),
                 p95_ns=percentile_nearest_rank(ordered, 95),
                 p99_ns=percentile_nearest_rank(ordered, 99),
                 min_ns=ordered[0], max_ns=ordered[-1], jitter_ns=jitter)
