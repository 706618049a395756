"""Arithmetic the benchmark reports with: medians, tail percentiles,
failed-operation ratios and self time derived from nested spans.

Everything here is pure and has tests in ``test_perfbench.py``.
"""

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

# A tail percentile is reported only when at least this many samples lie
# beyond it, so one outlier cannot decide it.
TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), pct) - 1])


def _rank(n: int, pct: float) -> int:
    # The epsilon keeps float error (99.9 / 100 * 10000 > 9990) from adding a rank.
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank pct percentile of n samples."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, sample count, and the highest percentile the count supports."""
    tail = tail_percentile(len(values))
    return {
        "median": median(values),
        "n": len(values),
        "tail_pct": tail,
        "tail": None if tail is None else percentile(values, tail),
    }


def failed_ops_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("failed_ops_ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it that its direct children cover.

    A span is (name, start, end, parent index, ...) with parent -1 for a root.
    Children may overlap one another, so their intervals are united before
    being subtracted.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
