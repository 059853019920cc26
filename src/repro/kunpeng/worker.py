"""Worker nodes.

Workers hold a partition of the training data and run compute steps.  In the
real KunPeng deployment each worker is a process on its own machine; here a
worker is an object whose ``run`` method executes the step function.  The
worker tracks how many "compute units" it has performed so the cluster cost
model can translate workload into simulated wall-clock time, and supports the
fail/restart cycle the PS architecture tolerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import WorkerFailureError


@dataclass
class WorkerStats:
    """Per-worker accounting used by the cost model and failover tests."""

    steps_executed: int = 0
    compute_units: float = 0.0
    failures: int = 0
    restarts: int = 0


class WorkerNode:
    """One worker node with an assigned data partition."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.partition: List[Any] = []
        self.state: Dict[str, Any] = {}
        self.stats = WorkerStats()
        self._alive = True

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def assign_partition(self, partition: List[Any]) -> None:
        self.partition = list(partition)

    def fail(self) -> None:
        """Simulate a crash: the worker drops its in-memory state."""
        self._alive = False
        self.state = {}
        self.stats.failures += 1

    def restart(self) -> None:
        """Restart after a failure; the data partition is re-read, state is empty."""
        if self._alive:
            return
        self._alive = True
        self.stats.restarts += 1

    # ------------------------------------------------------------------
    def run(
        self,
        step: Callable[["WorkerNode"], Any],
        *,
        compute_units: Optional[float] = None,
    ) -> Any:
        """Execute one step function against this worker.

        Raises :class:`WorkerFailureError` if the worker is down — the caller
        (cluster / failure injector) decides whether to restart and retry,
        which is exactly the PS platform's single-point-of-failure story.
        """
        if not self._alive:
            raise WorkerFailureError(f"worker {self.node_id} is down")
        result = step(self)
        self.stats.steps_executed += 1
        self.stats.compute_units += (
            compute_units if compute_units is not None else float(len(self.partition))
        )
        return result
