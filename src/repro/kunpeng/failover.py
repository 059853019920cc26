"""Failure injection and recovery.

The paper motivates the PS architecture over MPI by its failure tolerance:
"the failed instance can be restarted and recovered to the previous status
automatically while other instances remain not affected".  The failure
injector crashes workers according to a configured probability; the training
drivers call :meth:`heal` at round boundaries, which restarts dead workers so
the round can be retried on the restored cluster — parameters on the servers
are never lost because they live on the (unaffected) server nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.contracts import PROBABILITY, integer
from repro.exceptions import ParameterServerError
from repro.kunpeng.cluster import KunPengCluster
from repro.rng import SeedLike, ensure_rng


@dataclass
class FailureEvent:
    """Record of one injected failure."""

    round_index: int
    worker_id: int


class FailureInjector:
    """Randomly crashes workers between training rounds."""

    def __init__(
        self,
        cluster: KunPengCluster,
        *,
        failure_probability: float = 0.0,
        max_failures: int = 1_000,
        rng: SeedLike = None,
    ) -> None:
        PROBABILITY.require("failure_probability", failure_probability, ParameterServerError)
        integer(0).require("max_failures", max_failures, ParameterServerError)
        self.cluster = cluster
        self.failure_probability = failure_probability
        self.max_failures = max_failures
        self._rng = ensure_rng(rng)
        self.events: List[FailureEvent] = []

    # ------------------------------------------------------------------
    def maybe_fail(self, round_index: int) -> List[int]:
        """Possibly crash workers before a round; returns the crashed ids."""
        crashed: List[int] = []
        if len(self.events) >= self.max_failures:
            return crashed
        for worker in self.cluster.workers:
            if not worker.alive:
                continue
            if self._rng.random() < self.failure_probability:
                # Never kill the last alive worker: the platform guarantees
                # progress as long as one worker survives the round.
                if len(self.cluster.alive_workers()) <= 1:
                    break
                worker.fail()
                crashed.append(worker.node_id)
                self.events.append(FailureEvent(round_index=round_index, worker_id=worker.node_id))
        return crashed

    def heal(self) -> List[int]:
        """Restart every failed worker (automatic recovery); returns restarted ids."""
        restarted: List[int] = []
        for worker in self.cluster.workers:
            if not worker.alive:
                worker.restart()
                restarted.append(worker.node_id)
        return restarted

    @property
    def total_failures(self) -> int:
        return len(self.events)
