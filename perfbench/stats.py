"""Summary statistics shared by the workloads: percentiles, tails, memory."""

from __future__ import annotations

import resource
import statistics

#: The tail is the highest percentile with at least TAIL_BEYOND samples
#: beyond it, kept between TAIL_FLOOR (a tiny sample has no tail beyond
#: its median) and TAIL_CAP (on a shared two-CPU machine the slowest 5% of
#: a run's requests are host-scheduler noise that swings p99 by a quarter
#: from run to run, while p95 holds still).
TAIL_BEYOND = 10
TAIL_FLOOR = 50.0
TAIL_CAP = 95.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest supported percentile."""
    count = len(values)
    beyond = 100.0 * (count - TAIL_BEYOND) / count if count else 0.0
    pct = min(TAIL_CAP, max(TAIL_FLOOR, beyond))
    return percentile(values, pct), pct, count


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def vm_hwm_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB; 0 if unreadable."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return 0.0
    return 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    peak = vm_hwm_mb()
    if peak > 0:
        return peak
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
