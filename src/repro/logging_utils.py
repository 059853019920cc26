"""Logging helpers shared by every subsystem.

The production system described in the paper emits structured logs from each
component (MaxCompute scheduler, KunPeng trainers, the Model Server).  We keep
the same spirit: one package-level logger namespace (``repro.*``) configured in
a single place, plus the stopwatch the Model Server times each batch with.
"""

from __future__ import annotations

import logging
import time

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

