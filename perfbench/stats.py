"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it; with fewer, the "p95" of a run is just its largest values.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail_percentile(values, pct=95.0):
    """``pct``-th percentile (nearest rank), or None when fewer than
    MIN_BEYOND samples lie strictly beyond its rank."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(pct / 100.0 * n))   # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def min_samples_for(pct=95.0):
    """Smallest sample count for which ``tail_percentile`` reports ``pct``."""
    n = 1
    while n - math.ceil(pct / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n
