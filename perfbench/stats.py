"""Summaries of per-operation timings."""

from __future__ import annotations

# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, n): the highest percentile with at least ten
    samples beyond it.

    With n sorted samples the value at rank k = n - 10 leaves exactly ten
    above it, and it sits at percentile 100 k / n. Below 20 samples that
    percentile would fall under the median, so the tail is the maximum,
    reported at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one sample")
    if n < 2 * TAIL_BEYOND:
        return 100.0, xs[-1], n
    k = n - TAIL_BEYOND
    return 100.0 * k / n, xs[k - 1], n
