"""Order statistics used by the benchmark: medians, nearest-rank
percentiles, the tail-percentile rule and the quartile spread."""

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def median(values):
    return float(statistics.median(values))


def rank(p, n):
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    return float(ordered[rank(p, len(ordered)) - 1])


def beyond(p, n):
    """Samples strictly past the nearest-rank p-th percentile of n."""
    return n - rank(p, n)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND samples past it,
    or None when n is too small for any."""
    best = None
    for p in TAIL_LADDER:
        if beyond(p, n) >= MIN_BEYOND:
            best = p
    return best


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
