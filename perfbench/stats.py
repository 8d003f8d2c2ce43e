"""Summary statistics shared by the workloads and the steadiness check."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

import numpy as np

#: percentiles the tail rule may report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: samples a reported tail percentile must leave beyond it.
MIN_BEYOND = 10


#: stands in for ``inf`` while interpolating (``inf - inf`` is nan).
_HUGE = np.finfo(float).max / 4


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (linear interpolation), ``inf`` included."""
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    array = np.minimum(np.asarray(values, dtype=float), _HUGE)
    result = float(np.percentile(array, p))
    return math.inf if result >= _HUGE else result


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or None when even the median has fewer."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            return p
    return None


def supports(n: int, p: float) -> bool:
    """True when ``n`` samples leave ``MIN_BEYOND`` beyond percentile ``p``."""
    best = tail_percentile(n)
    return best is not None and best >= p


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread: interquartile distance over the median, with
    the quartiles ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        raise ValueError("spread needs at least two runs")
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0 or not math.isfinite(median):
        return math.inf
    return (q3 - q1) / abs(median)
