"""Statistics the benchmark reports with.

Timings are reduced to medians; tails to the highest percentile that still
has at least ten samples beyond it; per-model rates to a geometric mean of
per-model medians or per-model bests. test_stats.py checks each of these.
"""

import math
import statistics

# Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(xs):
    return statistics.median(xs)


def geomean(xs):
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    s = sorted(xs)
    return s[_rank(len(s), p) - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def _rank(n, p):
    # 1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990
    # despite 99.9 having no exact binary form.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail(xs):
    """(p, value) for the highest percentile in TAIL_PERCENTILES with at
    least TAIL_MIN_BEYOND samples beyond it; the median when none has."""
    for p in TAIL_PERCENTILES:
        if beyond(len(xs), p) >= TAIL_MIN_BEYOND:
            return p, percentile(xs, p)
    return 50.0, median(xs)


# Per-group reductions for "geomean" metrics: the group's median, or its
# best sample when larger ("geomean_max") or smaller ("geomean_min") is
# better.
GROUP_REDUCTIONS = {
    "geomean": ("medians", median),
    "geomean_max": ("maxima", max),
    "geomean_min": ("minima", min),
}


def reduce(raw):
    """One harness metric ({"reduce", "samples", "groups"}) to
    (value, note): the reported number and how it was obtained."""
    how = raw["reduce"]
    samples = raw.get("samples", [])
    if how == "median":
        return median(samples), "median of %d" % len(samples)
    if how == "value":
        return samples[0], "single value"
    if how == "tail":
        p, v = tail(samples)
        return v, "p%g of %d" % (p, len(samples))
    if how in GROUP_REDUCTIONS:
        label, pick = GROUP_REDUCTIONS[how]
        groups = raw["groups"]
        note = "geomean of %s: " % label + ", ".join(
            "%s %d runs" % (g, len(v)) for g, v in sorted(groups.items()))
        return geomean([pick(v) for v in groups.values()]), note
    raise ValueError("unknown reduction %r" % how)
