"""Summary statistics shared by the worker and the tracer."""

import math


def nearest_rank(samples, pct):
    """Nearest-rank percentile: the smallest sample with pct% at or below it.

    At 100 samples the 90th percentile is the 90th smallest, leaving ten
    samples beyond it; that is the highest percentile reported.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    ``spans`` is a list of (name, start, end, parent) with parent an index
    into the same list or -1.  Calls are sequential, so children of one
    span never overlap and their durations simply add up.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _) in enumerate(spans)]


def totals_by_name(spans):
    """{name: [calls, total seconds, self seconds]} over a span list."""
    out = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        rec = out.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += end - start
        rec[2] += own
    return out
