"""Statistics and rules the benchmark reports with (pure functions, tested in
perfbench/test_stats.py)."""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Candidate percentiles, lowest first, and the samples a reported one needs
# beyond it.
PERCENTILES = (0.5, 0.9, 0.99, 0.999, 0.9999)
MIN_BEYOND = 10

# An open-loop step must deliver this share of what it was offered.
MIN_DELIVERED = 0.99


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def highest_supported_percentile(samples):
    """Highest of PERCENTILES with at least MIN_BEYOND samples beyond it,
    i.e. (1 - q) * samples >= MIN_BEYOND; None if not even p50 is."""
    best = None
    for q in PERCENTILES:
        if (1.0 - q) * samples >= MIN_BEYOND - 1e-9:
            best = q
    return best


def step_passes(step, slo_p999_us):
    """One open-loop rate step meets the SLO when its read p999 is within
    target, it delivered at least MIN_DELIVERED of what was offered, and the
    sources dropped nothing. Refused and dropped requests are misses: they
    count against delivery and, as slower than any completion, against the
    tail, so a step whose misses exceed the p999's tail share fails even
    when the completed requests alone look fast."""
    offered = step["offered"]
    misses = step["refused"] + step["dropped"]
    p999 = step["read_p999_us"]
    if step["dropped"] > 0:
        return False
    if offered <= 0 or step["delivered"] < MIN_DELIVERED * offered:
        return False
    if misses > (1.0 - 0.999) * (step["delivered"] + misses):
        return False
    return p999 is not None and p999 <= slo_p999_us


def max_kops_at_slo(steps, slo_p999_us):
    """Offered rate (Kop/s) of the highest step that passes; None if none
    does."""
    passing = [s["offered_kops"] for s in steps
               if step_passes(s, slo_p999_us)]
    return max(passing) if passing else None


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))
