"""Exact latency summaries: nearest-rank percentiles and the tail rule."""

from __future__ import annotations

import math

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> tuple[float, int]:
    """``(percentile, samples beyond it)``: the highest listed percentile
    with at least 10 of ``n`` samples beyond it, else ``(100, 0)``."""
    for p in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= 10:
            return p, beyond
    return 100.0, 0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond it)`` under :func:`tail_percentile`."""
    p, beyond = tail_percentile(len(samples))
    return percentile(sorted(samples), p), p, beyond


def windows(samples: list[tuple], width: float) -> list[list[tuple]]:
    """Split ``(time, ...)`` samples into consecutive full windows of
    ``width`` seconds from the first sample; a trailing partial window
    is dropped (at least one window is always returned)."""
    if not samples:
        return [[]]
    ordered = sorted(samples)
    start = ordered[0][0]
    full = max(1, int((ordered[-1][0] - start) // width))
    out: list[list[tuple]] = [[] for _ in range(full)]
    for sample in ordered:
        index = int((sample[0] - start) // width)
        if index < full:
            out[index].append(sample)
    return out
