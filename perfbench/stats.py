"""Statistics helpers of the perf benchmark.

One percentile rule (nearest rank), the sample-count rule for reported
percentiles, and the arithmetic of the breakdown and correctness checks.
Standard library only, so perfbench/tests runs wherever python3 does.
"""
import math
import statistics

# Percentiles a timing may be reported at, highest first.
REPORTED_PERCENTILES = (0.999, 0.99, 0.9, 0.5)


def _rank(n, p):
    """1-based nearest-rank position of the p-th percentile among n samples.
    The tiny offset keeps float products such as 0.29 * 100 from rounding
    up a whole rank."""
    return max(1, math.ceil(p * n - 1e-9))


def nearest_rank(samples, p):
    """Nearest-rank percentile: the sample of rank max(1, ceil(p * n)) in
    sorted order.  `p` is in [0, 1]; p = 1 gives the maximum."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percentile {p} outside [0, 1]")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of `n` samples rank strictly above the p-th percentile."""
    return n - _rank(n, p)


def highest_supported_percentile(n, candidates=REPORTED_PERCENTILES,
                                 min_beyond=10):
    """The highest candidate percentile with at least `min_beyond` of the
    `n` samples beyond it, or None when even the lowest has fewer."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def timing_summary(samples):
    """Sample count, p50, p90, maximum, and the highest percentile that has
    at least ten samples beyond it (None when there are too few)."""
    p = highest_supported_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": nearest_rank(samples, 0.5),
        "p90": nearest_rank(samples, 0.9),
        "max": max(samples),
        "highest": None if p is None else {"p": p,
                                           "value": nearest_rank(samples, p)},
    }


def split_by_counts(samples, counts):
    """Splits pooled samples back into consecutive groups of the given
    sizes (one group per repetition)."""
    sizes = [int(c) for c in counts]
    if sum(sizes) != len(samples) or any(s < 1 for s in sizes):
        raise ValueError("group sizes do not partition the samples")
    groups, start = [], 0
    for size in sizes:
        groups.append(samples[start:start + size])
        start += size
    return groups


def median(values):
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def coverage_pct(covered_ms, wall_ms):
    """Share of a traced run's wall time that its timed layer calls
    account for, in percent."""
    if wall_ms <= 0:
        raise ValueError("wall time must be positive")
    return 100.0 * covered_ms / wall_ms


def trace_overhead_pct(traced_ms, untraced_ms):
    """How much longer the traced run took than the untraced one, in
    percent (negative when it was faster)."""
    if untraced_ms <= 0:
        raise ValueError("untraced wall time must be positive")
    return 100.0 * (traced_ms / untraced_ms - 1.0)


def count_checks(checks):
    """(attempted, failed) over check records {"name": ..., "ok": bool}."""
    return len(checks), sum(1 for c in checks if not c["ok"])


def fail_frac(failed, attempted):
    """Failed checks as a share of the checks attempted."""
    if attempted < 1:
        raise ValueError("no checks attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed checks must be within [0, attempted]")
    return failed / attempted


def relative_spread(values):
    """Interquartile range as a share of the median, with quartiles as
    statistics.quantiles(values, n=4) gives them: the run-to-run spread
    the bounds in BENCHMARK.json are set against."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)
