"""The tail percentile the benchmark reports for latency samples."""

from __future__ import annotations

import statistics


def tail_pct(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, int(100 * (1 - 10 / count)))


def tail(values: list[float]) -> tuple[float, int]:
    """The ``tail_pct`` percentile of ``values`` and that percentile."""
    pct = tail_pct(len(values))
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct
