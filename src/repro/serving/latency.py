"""Prediction latency tracking.

The system has "strict serving requirements, i.e., tens of milliseconds at
most for online detection including computation and communication costs".
The tracker records the wall-clock latency of every online prediction and
summarises percentiles and SLA violations; the serving benchmark asserts the
millisecond-level claim on the in-process reproduction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import ServingError


@dataclass
class LatencyReport:
    """Summary of recorded prediction latencies (milliseconds)."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    sla_budget_ms: float
    sla_violations: int
    #: Tail percentile the sustained-load harness tracks; 0.0 for empty sets.
    p999_ms: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {name: float(value) for name, value in asdict(self).items()}


class LatencyTracker:
    """Records per-request latencies against an SLA budget."""

    def __init__(self, *, sla_budget_ms: float = 50.0):
        if not sla_budget_ms > 0:  # NaN fails every comparison
            raise ServingError("sla_budget_ms must be a positive number")
        self.sla_budget_ms = sla_budget_ms
        self._latencies_ms: List[float] = []

    # ------------------------------------------------------------------
    def record(self, latency_ms: float, count: int = 1) -> None:
        """Store ``count`` equal samples: the rows of one batch share its
        amortised latency, checked once for the whole batch."""
        if not latency_ms >= 0:  # NaN fails every comparison
            raise ServingError(f"latency must be a non-negative number, got {latency_ms!r}")
        self._latencies_ms.extend([float(latency_ms)] * count)

    def __len__(self) -> int:
        return len(self._latencies_ms)

    def reset(self) -> None:
        self._latencies_ms = []

    @property
    def latencies_ms(self) -> List[float]:
        """Raw recorded samples — merge these (or use :meth:`merged_report`)
        for fleet-wide quantiles; taking ``max`` of per-server percentiles
        overstates them."""
        return list(self._latencies_ms)

    # ------------------------------------------------------------------
    @staticmethod
    def merged_report(trackers: Sequence["LatencyTracker"]) -> LatencyReport:
        """Fleet-wide report over the pooled raw samples of many trackers.

        Percentiles are computed on the merged sample set, which is the
        statistically correct fleet p99 (the max of per-server p99s is an
        upper bound, not the quantile).  SLA violations are counted against
        each tracker's own budget; the reported budget is the strictest one.
        """
        pooled: List[float] = []
        for tracker in trackers:
            pooled.extend(tracker._latencies_ms)
        # With no samples every statistic below reads 0.0; count stays 0.
        values = np.array(pooled or [0.0])
        return LatencyReport(
            count=len(pooled),
            mean_ms=float(values.mean()),
            p50_ms=float(np.percentile(values, 50)),
            p95_ms=float(np.percentile(values, 95)),
            p99_ms=float(np.percentile(values, 99)),
            p999_ms=float(np.percentile(values, 99.9)),
            max_ms=float(values.max()),
            sla_budget_ms=min((t.sla_budget_ms for t in trackers), default=50.0),
            sla_violations=sum(
                int(np.sum(np.array(t._latencies_ms) > t.sla_budget_ms)) for t in trackers
            ),
        )

    # ------------------------------------------------------------------
    def report(self) -> LatencyReport:
        return self.merged_report([self])
