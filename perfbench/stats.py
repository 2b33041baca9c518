"""Statistics behind the planner benchmark's metrics.

Kept free of I/O so perfbench/test_stats.py can pin each rule.
"""

import math
import statistics


def samples_beyond(n, q):
    """Number of samples ranked strictly above the q-quantile's position."""
    return n - 1 - math.floor((n - 1) * q)


def reportable(n, q, beyond=10):
    """A percentile is reported only when at least `beyond` samples lie
    beyond it, so one outlier cannot set it."""
    return n > 0 and samples_beyond(n, q) >= beyond


def percentile(xs, q, beyond=10):
    """The q-quantile of xs (q a whole percent), interpolated at position
    (n - 1) * q of the sorted samples; ValueError when too few samples lie
    beyond it."""
    if not reportable(len(xs), q, beyond):
        raise ValueError(
            f"p{round(100 * q)} needs {beyond} samples beyond it, "
            f"{len(xs)} samples give {samples_beyond(len(xs), q)}")
    return statistics.quantiles(xs, n=100, method="inclusive")[
        round(100 * q) - 1]


def fastest_half(xs):
    """The faster half of one op's repetitions (the odd middle one kept):
    load from other tenants of a shared host only ever adds time."""
    return sorted(xs)[:(len(xs) + 1) // 2]


def geomean(xs):
    """Geometric mean of strictly positive samples."""
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def slope(points):
    """Least-squares exponent b of y = a * x**b over (x, y) points, fitted
    in log-log space. Needs at least two distinct x."""
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("slope needs at least two distinct sizes")
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def spread(values):
    """(q3 - q1) / median with statistics.quantiles(values, n=4), the
    steadiness figure the bounds in BENCHMARK.json are checked against."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")
