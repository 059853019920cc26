"""Throttled rate/ETA progress logging for the long generation and load runs
of ``bench_sustained_load.py``."""

from __future__ import annotations

import time

from repro.logging_utils import get_logger


class ProgressTracker:
    """Rate/ETA progress logger for long generation and load runs.

    Emits through the ``repro.progress`` logger, so it is **quiet by
    default** — nothing is printed unless the application configures logging
    (:func:`repro.logging_utils.configure_logging` or its own handlers).
    Updates are throttled to one log line per ``min_interval_s`` regardless
    of how often :meth:`advance` is called, so per-event advancing costs a
    counter increment and a clock read.

    >>> tracker = ProgressTracker("generate", total=1000, unit="events")
    >>> for _ in range(1000):
    ...     tracker.advance()
    >>> report = tracker.finish()
    >>> report["count"]
    1000
    """

    def __init__(
        self,
        label: str,
        *,
        total: int | None = None,
        unit: str = "events",
        min_interval_s: float = 5.0,
    ) -> None:
        self.label = label
        self.total = total
        self.unit = unit
        self.min_interval_s = min_interval_s
        self.count = 0
        self._start = time.monotonic()
        self._last_log = self._start
        self._logger = get_logger("progress")

    def advance(self, step: int = 1) -> None:
        """Record ``step`` completed units; log if the interval elapsed."""
        self.count += step
        now = time.monotonic()
        if now - self._last_log >= self.min_interval_s:
            self._last_log = now
            self._logger.info(self._format(now))

    def finish(self) -> dict:
        """Log the final line and return ``{count, elapsed_s, rate}``."""
        now = time.monotonic()
        self._logger.info(self._format(now) + " (done)")
        elapsed = max(now - self._start, 1e-9)
        return {
            "count": self.count,
            "elapsed_s": elapsed,
            "rate": self.count / elapsed,
        }

    def _format(self, now: float) -> str:
        elapsed = max(now - self._start, 1e-9)
        rate = self.count / elapsed
        if self.total:
            remaining = max(self.total - self.count, 0)
            eta_s = remaining / rate if rate > 0 else float("inf")
            return (
                f"{self.label}: {self.count:,}/{self.total:,} {self.unit} "
                f"({rate:,.0f}/s, eta {eta_s:,.0f}s)"
            )
        return f"{self.label}: {self.count:,} {self.unit} ({rate:,.0f}/s)"
