"""Sample summaries: median, quartiles and the reportable tail percentile."""

import math
import statistics

#: Percentiles a timing may be reported at, lowest first.
TAIL_PERCENTILES = (50, 90, 95, 99, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def _rank(pct, count):
    """1-based nearest rank of percentile ``pct`` among ``count`` samples."""
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(pct, value)``, or None when even the median has fewer
    than :data:`MIN_BEYOND` samples above it.
    """
    count = len(values)
    best = None
    for pct in TAIL_PERCENTILES:
        if count - _rank(pct, count) >= MIN_BEYOND:
            best = pct
    if best is None:
        return None
    return best, percentile(values, best)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(values):
    """One-line text summary: median, quartiles, tail and count."""
    q1, median, q3 = quartiles(values)
    text = "median={:.6g} q1={:.6g} q3={:.6g}".format(median, q1, q3)
    tail = tail_percentile(values)
    if tail is not None:
        text += " p{:g}={:.6g}".format(tail[0], tail[1])
    return text + " n={}".format(len(values))
