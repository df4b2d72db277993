"""Order statistics the benchmark reports."""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ``beyond``
    samples above it.

    With n sorted samples that is the (n - beyond)-th smallest, which sits
    at percentile 100 * (n - beyond) / n. Needs at least beyond + 1 samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"tail needs more than {beyond} samples, got {n}")
    ordered = sorted(values)
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        raise ValueError("quartile spread needs at least two samples")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    if mid == 0:
        raise ValueError("quartile spread of samples with median 0")
    return (q3 - q1) / abs(mid)
