"""Request coalescing: micro-batching concurrent requests under a latency budget.

The vectorised ``ModelServer.predict_batch`` path amortises the HBase
``multi_get``, the plan execution and the model call over a whole batch — but
online traffic arrives one transfer at a time.  The
:class:`RequestCoalescer` bridges the two: requests are buffered as they
arrive and flushed as one ``process_batch`` call when either

* the buffer reaches ``max_batch`` (a *full* flush — the throughput bound), or
* the oldest buffered request has waited ``max_delay_ms`` (a *deadline*
  flush — the latency bound: coalescing can add at most ``max_delay_ms`` of
  queueing delay to any request).

Time is explicit (callers pass ``now_ms``), so the same coalescer runs under
the simulated replay clock in tests/benchmarks and under a wall clock in a
real event loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.contracts import NON_NEGATIVE, Contract, check_fields, checked, integer
from repro.exceptions import ServingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.alipay import ServedTransaction
    from repro.serving.model_server import TransactionRequest


class BatchFrontEnd(Protocol):
    """What a flush is handed to: ``AlipayServer`` or a wrapper around it."""

    def process_batch(
        self,
        requests: Sequence["TransactionRequest"],
        *,
        was_fraud: Optional[Sequence[Optional[bool]]] = None,
    ) -> List["ServedTransaction"]: ...


#: A delay budget: non-negative, or ``inf`` for none (flush only when full).
_DELAY_BUDGET = Contract(
    lambda value: value == math.inf or NON_NEGATIVE.accepts(value),
    "a non-negative number or inf",
)


@dataclass(frozen=True)
class CoalescerConfig:
    """Latency-budgeted micro-batching policy.

    ``max_batch`` bounds the batch size (flush as soon as it is reached);
    ``max_delay_ms`` bounds how long any request may sit in the buffer
    waiting for companions.
    """

    max_batch: int = checked(integer(1), 64)
    max_delay_ms: float = checked(_DELAY_BUDGET, 5.0)

    def __post_init__(self) -> None:
        check_fields(self, ServingError)


class RequestCoalescer:
    """Buffers requests and flushes deadline-bounded micro-batches.

    Drives an :class:`~repro.serving.alipay.AlipayServer`'s ``process_batch``
    (which routes each flushed batch through the configured fleet policy).
    Memory is O(``max_batch``): batching statistics are running sums, never
    per-request lists.
    """

    def __init__(
        self, alipay: BatchFrontEnd, config: Optional[CoalescerConfig] = None
    ) -> None:
        self.alipay = alipay
        self.config = config or CoalescerConfig()
        self._pending: List[Tuple["TransactionRequest", Optional[bool], float]] = []
        self.full_flushes = 0
        self.deadline_flushes = 0
        self.forced_flushes = 0
        self.requests_coalesced = 0
        self._wait_ms_sum = 0.0
        self._wait_ms_max = 0.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    def submit(
        self,
        request: "TransactionRequest",
        *,
        now_ms: float,
        was_fraud: Optional[bool] = None,
    ) -> List["ServedTransaction"]:
        """Buffer one arriving request; returns whatever flushed at ``now_ms``.

        The deadline of already-buffered requests is checked first, so a
        request arriving after a long gap cannot extend its predecessors'
        wait beyond ``max_delay_ms`` of *their* arrival.
        """
        served = self.advance(now_ms)
        self._pending.append((request, was_fraud, float(now_ms)))
        if len(self._pending) >= self.config.max_batch:
            self.full_flushes += 1
            served.extend(self._flush(now_ms))
        return served

    def next_deadline_ms(self) -> Optional[float]:
        """When the buffer must flush: oldest arrival + ``max_delay_ms``.

        ``None`` with an empty buffer.  This is the instant a wall-clock
        event loop arms its flush timer for (see
        :class:`~repro.serving.async_server.AsyncServingFrontEnd`); the
        simulated clock checks it implicitly on every :meth:`advance`.
        """
        if not self._pending:
            return None
        return self._pending[0][2] + self.config.max_delay_ms

    def advance(self, now_ms: float) -> List["ServedTransaction"]:
        """Flush the buffer if its oldest request's deadline has passed.

        The flush is timestamped at the *deadline* (``oldest arrival +
        max_delay_ms``), not at ``now_ms`` — a real event loop arms a timer
        that fires at the deadline, so even when this simulated clock is only
        driven at arrival instants, no request's recorded wait ever exceeds
        the ``max_delay_ms`` budget.
        """
        deadline_ms = self.next_deadline_ms()
        if deadline_ms is None or now_ms < deadline_ms:
            return []
        self.deadline_flushes += 1
        return self._flush(deadline_ms)

    def flush(self) -> List["ServedTransaction"]:
        """Force out whatever is buffered (end-of-stream drain).

        Stamped at the newest buffered arrival: the stream ended there.
        """
        if not self._pending:
            return []
        self.forced_flushes += 1
        return self._flush(self._pending[-1][2])

    def _flush(self, now_ms: float) -> List["ServedTransaction"]:
        batch, self._pending = self._pending, []
        self.requests_coalesced += len(batch)
        for _, _, arrival in batch:
            wait_ms = now_ms - arrival
            self._wait_ms_sum += wait_ms
            if wait_ms > self._wait_ms_max:
                self._wait_ms_max = wait_ms
        return self.alipay.process_batch(
            [request for request, _, _ in batch],
            was_fraud=[label for _, label, _ in batch],
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Batching effectiveness: flush causes, batch sizes, queue waits."""
        batches = self.full_flushes + self.deadline_flushes + self.forced_flushes
        requests = self.requests_coalesced
        return {
            "requests": float(requests),
            "batches": float(batches),
            "mean_batch": requests / batches if batches else 0.0,
            "full_flushes": float(self.full_flushes),
            "deadline_flushes": float(self.deadline_flushes),
            "forced_flushes": float(self.forced_flushes),
            "mean_wait_ms": self._wait_ms_sum / requests if requests else 0.0,
            "max_wait_ms": self._wait_ms_max,
        }
