"""Logging helpers shared by every subsystem.

The production system described in the paper emits structured logs from each
component (MaxCompute scheduler, KunPeng trainers, the Model Server).  We keep
the same spirit: one package-level logger namespace (``repro.*``) configured in
a single place, plus a tiny stopwatch used by the cost models and the latency
tracker.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from typing import Iterator

_PACKAGE_LOGGER_NAME = "repro"


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the ``repro`` namespace.

    ``get_logger("kunpeng.worker")`` returns the logger
    ``repro.kunpeng.worker`` so that applications can configure the whole
    reproduction with a single ``logging.getLogger("repro")`` handle.
    """
    if name.startswith(_PACKAGE_LOGGER_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_PACKAGE_LOGGER_NAME}.{name}")


def configure_logging(level: int = logging.INFO) -> None:
    """Configure a simple console handler for the package logger.

    Safe to call multiple times; handlers are only attached once.
    """
    logger = logging.getLogger(_PACKAGE_LOGGER_NAME)
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)


class ProgressTracker:
    """Rate/ETA progress logger for long generation and load runs.

    Emits through the ``repro.progress`` logger, so it is **quiet by
    default** — nothing is printed unless the application configures logging
    (:func:`configure_logging` or its own handlers).  Updates are throttled
    to one log line per ``min_interval_s`` regardless of how often
    :meth:`advance` is called, so per-event advancing costs a counter
    increment and a clock read.

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


class Stopwatch:
    """Wall-clock stopwatch with millisecond resolution.

    Used by the serving layer to measure real prediction latency and by tests
    that assert the "milliseconds" serving claim of the paper.
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed_seconds: float = 0.0

    def start(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Stopwatch.stop() called before start()")
        self.elapsed_seconds = time.perf_counter() - self._start
        self._start = None
        return self.elapsed_seconds


@contextmanager
def timed() -> Iterator[Stopwatch]:
    """Context manager yielding a running :class:`Stopwatch`.

    >>> with timed() as watch:
    ...     _ = sum(range(10))
    >>> watch.elapsed_seconds >= 0.0
    True
    """
    watch = Stopwatch().start()
    try:
        yield watch
    finally:
        if watch._start is not None:
            watch.stop()
