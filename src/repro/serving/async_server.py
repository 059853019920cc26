"""Asyncio serving front end: real concurrent requests, wall-clock deadlines.

Everything in :mod:`repro.serving.coalescer` is clock-agnostic — callers pass
``now_ms`` explicitly — so the deterministic tests replay against a simulated
arrival clock.  This module is the other half of that design: an event-loop
front end where the same :class:`~repro.serving.coalescer.RequestCoalescer`
is driven by *real* concurrent ``await``-ers and a wall-clock flush timer.

The flow per request:

1. a caller awaits :meth:`AsyncServingFrontEnd.submit` (or holds the future
   from :meth:`submit_nowait`); the request is buffered in the coalescer
   stamped with the loop's wall clock,
2. the front end keeps exactly one timer armed at the coalescer's
   ``next_deadline_ms()`` — the instant the oldest buffered request has
   waited ``max_delay_ms``,
3. whichever comes first — the buffer filling to ``max_batch`` or the timer
   firing — flushes one micro-batch into :meth:`AsyncServingFrontEnd.process_batch`,
   which scores it on the Alipay server's fleet path and settles exactly that
   batch's futures: each resolves with its
   :class:`~repro.serving.alipay.ServedTransaction`, or, when scoring raised,
   fails with that exception.

Flushes preserve submission order and so do the waiting futures, so a
flushed batch's futures are always the oldest waiters.  Requests shed by the
admission controller resolve immediately with the rule-based fallback's
answer — under overload the front end degrades, it never drops.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Sequence

from repro.exceptions import ServingError
from repro.serving.coalescer import CoalescerConfig, RequestCoalescer
from repro.serving.model_server import TransactionRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.schema import Transaction
    from repro.serving.alipay import AlipayServer, ServedTransaction


class AsyncServingFrontEnd:
    """Event-loop adapter coalescing concurrent requests under a wall clock.

    Wraps one :class:`~repro.serving.alipay.AlipayServer` (whose configured
    admission controller and fleet policy apply unchanged) and one
    :class:`~repro.serving.coalescer.RequestCoalescer`.  Must be used from a
    running event loop; one instance serves one loop.
    """

    def __init__(
        self,
        alipay: "AlipayServer",
        *,
        coalescer: Optional[CoalescerConfig] = None,
    ) -> None:
        self.alipay = alipay
        # Flushes come back through process_batch below, which owns the futures.
        self.coalescer = RequestCoalescer(self, coalescer)
        self._waiters: Deque["asyncio.Future[ServedTransaction]"] = deque()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch: float = 0.0

    # ------------------------------------------------------------------
    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._epoch = loop.time()
        elif loop is not self._loop:
            raise ServingError("AsyncServingFrontEnd is bound to another event loop")
        return loop

    def now_ms(self) -> float:
        """Milliseconds of wall clock since this front end first served."""
        loop = self._ensure_loop()
        return (loop.time() - self._epoch) * 1000.0

    # ------------------------------------------------------------------
    def submit_nowait(
        self,
        request: TransactionRequest,
        *,
        was_fraud: Optional[bool] = None,
    ) -> "asyncio.Future[ServedTransaction]":
        """Enqueue one request; the returned future resolves when it is served.

        Synchronous (no awaits before the request is buffered), so a burst of
        ``submit_nowait`` calls lands in the coalescer in call order even if
        the event loop never gets control in between.
        """
        future: "asyncio.Future[ServedTransaction]" = self._ensure_loop().create_future()
        now_ms = self.now_ms()
        shed = self.alipay.arrive(request, now_ms, was_fraud=was_fraud)
        if shed is not None:
            future.set_result(shed)
            return future
        # Joins the waiters before the submit, which may flush (and settle
        # it) right away.
        self._waiters.append(future)
        self.coalescer.submit(request, now_ms=now_ms, was_fraud=was_fraud)
        self._arm_timer()
        return future

    async def submit(
        self,
        request: TransactionRequest,
        *,
        was_fraud: Optional[bool] = None,
    ) -> "ServedTransaction":
        """Serve one request: buffered, coalesced, awaited until flushed."""
        return await self.submit_nowait(request, was_fraud=was_fraud)

    def process_batch(
        self,
        requests: Sequence[TransactionRequest],
        *,
        was_fraud: Optional[Sequence[Optional[bool]]] = None,
    ) -> List["ServedTransaction"]:
        """Score one flushed batch and settle exactly its futures.

        Called by the coalescer on every flush, whatever triggered it (a full
        buffer, the deadline timer, :meth:`drain`).  When scoring raises —
        no model loaded, a feature-width mismatch mid-rotation, an HBase
        error — the exception is delivered through this batch's futures and
        not re-raised: they are its only audience on an event loop, and the
        batches behind it must still resolve their own waiters.
        """
        # A caller may have cancelled its own wait; its slot is still consumed.
        waiters = [self._waiters.popleft() for _ in requests]
        try:
            served = self.alipay.process_batch(requests, was_fraud=was_fraud)
        except Exception as error:  # delivered, not swallowed: see docstring
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_exception(error)
            return []
        for waiter, transaction in zip(waiters, served):
            if not waiter.done():
                waiter.set_result(transaction)
        return served

    # ------------------------------------------------------------------
    def _arm_timer(self) -> None:
        """Keep exactly one timer armed at the coalescer's next deadline."""
        assert self._loop is not None
        deadline_ms = self.coalescer.next_deadline_ms()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if deadline_ms is None:
            return
        self._timer = self._loop.call_at(
            self._epoch + deadline_ms / 1000.0, self._on_deadline
        )

    def _on_deadline(self) -> None:
        self._timer = None
        deadline_ms = self.coalescer.next_deadline_ms()
        if deadline_ms is None:
            return
        # Timers can fire marginally before the target instant; clamping to
        # the deadline guarantees the flush happens now and the recorded wait
        # is exactly the max_delay_ms budget, never more.
        self.coalescer.advance(max(self.now_ms(), deadline_ms))
        self._arm_timer()

    # ------------------------------------------------------------------
    async def drain(self) -> List["ServedTransaction"]:
        """Force-flush the buffer (end of stream) and disarm the timer.

        Returns the flushed transactions (none if scoring them failed); any
        outstanding futures from :meth:`submit_nowait` settle as a side effect.
        """
        self._ensure_loop()
        served = self.coalescer.flush()
        self._arm_timer()  # nothing is buffered any more: cancels, arms nothing
        return served

    async def replay(self, transactions: Iterable["Transaction"], *, interval_s: float) -> None:
        """Submit labelled transactions ``interval_s`` apart and await them all.

        The wall-clock half of ``AlipayServer.replay_transactions``: arrivals
        are paced with event-loop sleeps, every request is submitted
        concurrently, and the end-of-stream drain plus the gather cover every
        submitted request — nothing is dropped, and a failed flush raises.
        """
        futures = []
        for index, transaction in enumerate(transactions):
            if index:
                await asyncio.sleep(interval_s)
            request = TransactionRequest.from_transaction(transaction)
            futures.append(self.submit_nowait(request, was_fraud=transaction.is_fraud))
        await self.drain()
        await asyncio.gather(*futures)

    def stats(self) -> Dict[str, float]:
        """The underlying coalescer's batching statistics."""
        return self.coalescer.stats()
