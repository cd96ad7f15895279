"""Summary statistics and the comparison rule of the benchmark.

Kept free of I/O so that run.py, compare.py and the tests share one
definition of a median, a tail and a regression.
"""

import math
import statistics

# Tail percentiles, highest first. A tail is the highest of these that has
# at least MIN_BEYOND samples above it; the ladder stops at p99 because a
# higher percentile of a 10-40 s run is too few samples to repeat.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail(values):
    """(value, percentile, samples beyond it) for the highest ladder
    percentile with at least MIN_BEYOND samples beyond it. With fewer
    samples than that allows, the maximum, at percentile 100 with 0
    beyond."""
    n = len(values)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            return sorted(values)[rank - 1], p, beyond
    return max(values), 100.0, 0


def describe(values):
    """Median and tail of one sample list, with the counts behind them."""
    value, p, beyond = tail(values)
    return {
        "n": len(values),
        "median": median(values),
        "tail": value,
        "tail_percentile": p,
        "tail_beyond": beyond,
    }


def compare(parent, change, better, bound):
    """Judges one workload x metric row from two sets of runs.

    `parent` and `change` are the per-run values, paired by index; `better`
    is "lower" or "higher"; `bound` is the share of the parent's median the
    metric may worsen by. Returns a dict whose "verdict" is one of
    "improved", "regressed", "unchanged" or "unresolved":

    - regressed: the change's median is worse than the parent's by more
      than `bound`;
    - unresolved: otherwise, when either side's interquartile spread
      exceeds `bound`, unless every change run beats every parent run;
    - improved: the change wins at least nine tenths of the pairs (ties
      count for neither) and the medians differ by more than the parent's
      interquartile distance;
    - unchanged: anything else.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    lost = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worsening = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    dominates = all(sign * (p - c) > 0 for p in parent for c in change)
    row = {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3,
                   "spread": spread(parent), "n": len(parent)},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3,
                   "spread": spread(change), "n": len(change)},
        "pairs": len(pairs),
        "pairs_won": won,
        "pairs_lost": lost,
        "worsening": worsening,
        "bound": bound,
    }
    if worsening > bound:
        row["verdict"] = "regressed"
    elif (spread(parent) > bound or spread(change) > bound) and not dominates:
        row["verdict"] = "unresolved"
    elif (pairs and won >= 0.9 * len(pairs)
          and abs(c_med - p_med) > (p_q3 - p_q1)):
        row["verdict"] = "improved"
    else:
        row["verdict"] = "unchanged"
    return row
