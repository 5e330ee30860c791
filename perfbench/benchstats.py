"""Order statistics the benchmark reports: medians, percentiles and the
quartile spread used to judge whether a metric is steady."""

import statistics


def median(values):
    """The median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, p):
    """The p-th percentile (0 < p < 100, integral) of at least two values,
    interpolated between order statistics as `statistics.quantiles(...,
    method="inclusive")` does."""
    if len(values) < 2:
        raise ValueError("a percentile needs at least two values")
    if not (isinstance(p, int) and 0 < p < 100):
        raise ValueError(f"percentile must be an integer in 1..99, got {p}")
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def beyond(values, cut):
    """How many values lie strictly above `cut`."""
    return sum(1 for v in values if v > cut)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as `statistics.quantiles(values, n=4)` gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
