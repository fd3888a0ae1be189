"""The benchmark's arithmetic: percentiles, verdict accounting and the
service's derived layer figures.  Kept free of I/O so that
test_stats.py can check it on hand-built samples."""

import math

# Standard percentiles, highest first.  The tail is the highest one with
# at least MIN_BEYOND samples strictly above it.  The ladder stops at p95:
# runs are sized for a few hundred to about a thousand checks, and a
# workload that crossed 1000 checks on a fast host would otherwise jump to
# p99 and stop being comparable with its own earlier runs.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """No ladder percentile has MIN_BEYOND samples beyond it."""


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(round(len(xs) * p / 100.0, 9)))
    return xs[rank - 1]


def tail(values, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """(percentile, value) of the highest ladder percentile with at least
    min_beyond samples strictly above its value; raises TooFewSamples
    when there is none."""
    for p in ladder:
        v = percentile(values, p)
        if sum(1 for x in values if x > v) >= min_beyond:
            return p, v
    raise TooFewSamples(
        "fewer than %d of %d samples lie beyond every tail percentile"
        % (min_beyond, len(values)))


# Verdict accounting.  A check is a dict with "truth" (True when the
# pair is equivalent by construction) and "outcome": the checker's
# outcome string ("equivalent", "not equivalent", "no information",
# "timed out"), or "error" when it returned none.

def classify(truth, outcome, no_info_ok=False):
    """'decided': a decisive verdict that matches the truth;
    'consistent': no information on a faulty pair, from a checker that
    may give it (ZX, whose rewriting cannot refute: no_info_ok);
    'inconclusive': any other no-information verdict (ZX's graph-like
    strategy is incomplete, so it can also give up on an equivalent
    pair); not ok, but not a wrong answer either;
    'wrong': a decisive verdict that contradicts the truth;
    'failed': an error or a timeout."""
    if outcome in ("error", "timed out"):
        return "failed"
    if outcome in ("equivalent", "not equivalent"):
        expected = "equivalent" if truth else "not equivalent"
        return "decided" if outcome == expected else "wrong"
    if outcome == "no information":
        return "consistent" if no_info_ok and not truth else "inconclusive"
    raise ValueError("unknown outcome %r" % outcome)


def verdict_fracs(checks, no_info_ok=False):
    """(ok_frac, decided_frac, counts) over the attempted checks."""
    counts = {"decided": 0, "consistent": 0, "inconclusive": 0, "wrong": 0, "failed": 0}
    for c in checks:
        counts[classify(c["truth"], c["outcome"], no_info_ok)] += 1
    n = len(checks)
    if n == 0:
        raise ValueError("no checks attempted")
    ok = counts["decided"] + counts["consistent"]
    return ok / n, counts["decided"] / n, counts


# The service.  A serve check's latency runs from the client's submit to
# its verdict event; engine_stats' "elapsed" is the time the daemon spent
# on the job, so the rest is queue wait, decode and transport.

def wait_times(samples):
    """latency - server elapsed, per (latency, elapsed) sample."""
    return [lat - elapsed for lat, elapsed in samples]


def cache_hit_frac(counters):
    """server.cache.hit / (hit + miss) from a server counter dict."""
    hit = counters.get("server.cache.hit", 0)
    miss = counters.get("server.cache.miss", 0)
    if hit + miss == 0:
        return 0.0
    return hit / (hit + miss)


def expected_cache_counts(modes):
    """(hit, miss) the service's caches must report after serving the
    given submit modes once each, in order, while every resubmitted
    pair's entries are still cached: a fresh
    pair misses the verdict cache and both parse-cache lookups, a plain
    resubmission hits the verdict cache, and a fresh:true resubmission
    skips the verdict cache and hits both parse-cache entries."""
    hit = miss = 0
    for m in modes:
        if m == "fresh":
            miss += 3
        elif m == "cached":
            hit += 1
        elif m == "refresh":
            hit += 2
        else:
            raise ValueError("unknown submit mode %r" % m)
    return hit, miss


def overhead_frac(traced_cps, untraced_cps):
    """1 - traced / untraced throughput."""
    return 1.0 - traced_cps / untraced_cps
