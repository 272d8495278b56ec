"""Arithmetic the benchmark reports with: medians, spreads, tail percentiles, rates.

Kept free of package imports so its tests run without the program under test.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Sequence

# Candidate percentiles for a tail figure, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them.
    """
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def _rank(n: int, pct: float) -> int:
    # Nearest-rank percentile: the value at 1-based rank ceil(pct/100 * n),
    # in exact arithmetic so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples beyond
    it (fewer than 20 samples).
    """
    best = None
    for pct in PERCENTILE_LADDER:
        if n - _rank(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), pct) - 1])


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` for the tail figure of ``values``.

    Falls back to ``(100, max)`` when the sample is too small for any ladder
    percentile, so the figure is always defined and labelled by its rank.
    """
    pct = tail_percentile(len(values))
    if pct is None:
        return 100.0, float(max(values))
    return pct, percentile(values, pct)


def rep_steps_per_s(configs: Sequence[tuple[int, int]], wall_s: float) -> float:
    """Work rate: the sum of reps x horizon over ``(reps, horizon)`` configs per second."""
    if wall_s <= 0:
        raise ValueError("wall time must be positive")
    return sum(reps * horizon for reps, horizon in configs) / wall_s
