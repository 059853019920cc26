"""Alipay-server simulation: the front end that calls the Model Server.

When a user transfers money in the Alipay app, the transfer request reaches
the Alipay server, which immediately asks the Model Server for a fraud check.
If the MS raises an alert, the on-going transaction is interrupted and the
transferor is notified; otherwise the transfer proceeds.  The simulator
replays transaction streams through that flow and records outcomes, so the
serving benchmark and the end-to-end example can measure both detection
quality and latency on the online path.
"""

from __future__ import annotations

import asyncio
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.contracts import POSITIVE, integer, one_of, optional
from repro.datagen.schema import Transaction
from repro.datagen.stream import TransactionStream
from repro.exceptions import ServingError
from repro.features.streaming import event_order
from repro.logging_utils import get_logger
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    RuleBasedFallback,
)
from repro.serving.async_server import AsyncServingFrontEnd
from repro.serving.coalescer import CoalescerConfig, RequestCoalescer
from repro.serving.latency import LatencyTracker
from repro.serving.model_server import ModelServer, PredictionResponse, TransactionRequest
from repro.serving.router import Router, ServingRouter
from repro.serving.streaming import StreamingFeatureUpdater

logger = get_logger("serving.alipay")


class TransactionOutcome(str, Enum):
    """What happened to a transfer after the fraud check."""

    APPROVED = "approved"
    INTERRUPTED = "interrupted"


@dataclass(slots=True)
class ServedTransaction:
    """One transaction processed by the Alipay server.

    ``degraded`` marks requests the admission controller shed to the
    rule-based fallback instead of the full ML scoring path.
    """

    request: TransactionRequest
    response: PredictionResponse
    outcome: TransactionOutcome
    was_fraud: Optional[bool] = None
    degraded: bool = False


@dataclass
class ServingReport:
    """Aggregate outcomes of a replayed transaction stream.

    ``degraded`` counts requests answered by the rule-based fallback under
    overload (still answered — never dropped), and ``peak_queue_depth`` is
    the admission controller's maximum modelled backlog during the replay
    (0.0 when no admission control is attached).

    ``missing_embeddings`` counts (user, embedding-block) reads across the
    fleet that found no stored embedding row at all and were served the
    explicit zero default — cold accounts, observable instead of silently
    indistinguishable from a trained all-zero vector.  A model call reads each
    block once over its distinct accounts, so an account on both sides of one
    call counts once per block, not once per side.
    """

    total: int
    interrupted: int
    approved: int
    true_alerts: int
    false_alerts: int
    missed_frauds: int
    degraded: int = 0
    peak_queue_depth: float = 0.0
    missing_embeddings: int = 0

    @property
    def alert_precision(self) -> float:
        """Fraction of raised alerts that were actual fraud."""
        alerts = self.true_alerts + self.false_alerts
        return self.true_alerts / alerts if alerts else 0.0

    @property
    def alert_recall(self) -> float:
        """Fraction of actual fraud that raised an alert."""
        frauds = self.true_alerts + self.missed_frauds
        return self.true_alerts / frauds if frauds else 0.0

    @property
    def shed_to_rules_fraction(self) -> float:
        """Fraction of all requests degraded to the rule-based fallback."""
        return self.degraded / self.total if self.total else 0.0


class AlipayServer:
    """Front-end simulator wired to one (or more) Model Server instances.

    Every decision is made in :meth:`process_batch` — route each request to
    its payer's replica, score each replica's sub-batch with one
    ``predict_batch`` call, then ingest the batch in order and record it in
    one pass — so that is the one place the request path changes.
    :meth:`process` is a batch of one, and every :meth:`replay_transactions`
    mode (and the asyncio front end) reaches it through a
    :class:`RequestCoalescer` flush.

    With a :class:`StreamingFeatureUpdater` attached, every processed
    transaction is ingested into the sliding-window feature engine *after*
    being scored (score-then-ingest: the fraud check sees the account's
    behaviour up to, but excluding, the current transfer) and the touched
    accounts' aggregate rows are written through to Ali-HBase, so the next
    request on either account is served fresh aggregates.

    ``router`` maps a payer account to a replica index; ``None`` means a
    :class:`~repro.serving.router.ServingRouter` over the whole fleet
    (consistent-hash sharding by payer, so each replica's client-side row
    cache stays hot).  ``admission`` enables overload shedding during
    rate-driven replays: past the bounded backlog, arrivals are answered by
    a :class:`RuleBasedFallback` instead of queueing unboundedly.

    ``retain_served=False`` keeps only the running outcome counters instead
    of the per-request :class:`ServedTransaction` list (and drops
    notification strings), so sustained-load replays run in O(1) memory
    regardless of stream length.  :meth:`report` is unaffected; ``served``
    and ``notifications`` simply stay empty.
    """

    def __init__(
        self,
        model_servers: Sequence[ModelServer] | ModelServer,
        *,
        feature_updater: Optional[StreamingFeatureUpdater] = None,
        router: Optional[Router] = None,
        admission: Optional[AdmissionController] = None,
        retain_served: bool = True,
    ) -> None:
        if isinstance(model_servers, ModelServer):
            model_servers = [model_servers]
        if not model_servers:
            raise ServingError("AlipayServer needs at least one Model Server")
        self._model_servers: List[ModelServer] = list(model_servers)
        if router is None:
            router = ServingRouter(len(self._model_servers))
        elif router.num_replicas != len(self._model_servers):
            raise ServingError(
                f"router is sized for {router.num_replicas} replicas, "
                f"fleet has {len(self._model_servers)}"
            )
        self.router: Router = router
        self.admission = admission
        self.fallback = RuleBasedFallback() if admission is not None else None
        self.feature_updater = feature_updater
        self.retain_served = retain_served
        self.served: List[ServedTransaction] = []
        self.notifications: List[str] = []
        self._totals = ServingReport(
            total=0, interrupted=0, approved=0, true_alerts=0, false_alerts=0, missed_frauds=0
        )
        #: Stats of the most recent coalesced replay (None before one runs).
        self.last_coalescer_stats: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    @property
    def model_servers(self) -> List[ModelServer]:
        """The Model Server fleet behind this front end."""
        return list(self._model_servers)

    def process(self, request: TransactionRequest, *, was_fraud: Optional[bool] = None) -> ServedTransaction:
        """Run one transfer through the fraud check: a batch of one."""
        return self.process_batch([request], was_fraud=[was_fraud])[0]

    def process_degraded(
        self, request: TransactionRequest, *, was_fraud: Optional[bool] = None
    ) -> ServedTransaction:
        """Answer one shed transfer from the rule-based fallback.

        The request is still ingested into the streaming feature engine —
        shedding degrades the *scoring* path, not the feature state the
        post-overload requests will be served from.
        """
        if self.fallback is None:
            raise ServingError("no rule-based fallback configured")
        response = self.fallback.respond(request)
        if self.feature_updater is not None:
            self.feature_updater.observe_request(request)
        return self._record([request], [response], [was_fraud], degraded=True)[0]

    def arrive(
        self, request: TransactionRequest, now_ms: float, *, was_fraud: Optional[bool] = None
    ) -> Optional[ServedTransaction]:
        """The arrival step under an arrival clock: ask the admission
        controller, and shed a ``DEGRADE`` to the rules — answered (and
        recorded) now, at arrival.  ``None`` means admitted: the caller
        buffers the request in its coalescer, which answers it at a flush."""
        if (
            self.admission is not None
            and self.admission.on_arrival(now_ms) is AdmissionDecision.DEGRADE
        ):
            return self.process_degraded(request, was_fraud=was_fraud)
        return None

    def _record(
        self,
        requests: Sequence[TransactionRequest],
        responses: Sequence[PredictionResponse],
        labels: Sequence[Optional[bool]],
        *,
        degraded: bool = False,
    ) -> List[ServedTransaction]:
        """Record an answered batch in one pass: its :class:`ServedTransaction`
        list, the running totals added by counts, and (when retained) the
        served list and one notification per alert, in request order."""
        interrupted, approved = TransactionOutcome.INTERRUPTED, TransactionOutcome.APPROVED
        served = [
            ServedTransaction(
                request,
                response,
                interrupted if response.is_fraud_alert else approved,
                label,
                degraded,
            )
            for request, response, label in zip(requests, responses, labels)
        ]
        # None is neither True nor False, so it counts toward no quality
        # total; a missed fraud is a True label that raised no alert.
        alert_labels = [
            label for response, label in zip(responses, labels) if response.is_fraud_alert
        ]
        true_alerts = alert_labels.count(True)
        totals = self._totals
        totals.total += len(served)
        totals.interrupted += len(alert_labels)
        totals.approved += len(served) - len(alert_labels)
        totals.degraded += len(served) if degraded else 0
        totals.true_alerts += true_alerts
        totals.false_alerts += alert_labels.count(False)
        totals.missed_frauds += labels.count(True) - true_alerts
        if self.retain_served:
            self.served.extend(served)
            if alert_labels:
                self.notifications.extend(
                    f"transaction {request.transaction_id} interrupted: fraud probability "
                    f"{response.fraud_probability:.2%}; transferor {request.payer_id} notified"
                    for request, response in zip(requests, responses)
                    if response.is_fraud_alert
                )
        return served

    def process_batch(
        self,
        requests: Sequence[TransactionRequest],
        *,
        was_fraud: Optional[Sequence[Optional[bool]]] = None,
    ) -> List[ServedTransaction]:
        """Turn requests into decisions — the only function that does.

        The batch is grouped by the routing policy and each replica scores
        its own accounts' sub-batch in one :meth:`ModelServer.predict_batch`
        call, so every request sees the feature state as of the start of the
        batch (micro-batch freshness).  With a feature updater attached, the
        whole batch is ingested afterwards in request order (score, then
        ingest), and only then recorded in one pass.  A batch whose ingest
        raises is recorded not at all, but the requests ingested before the
        failing one stay in the streaming engine and in HBase, so a retry
        ingests them twice (ROADMAP item 3: idempotent ingest).
        Results come back in request order.
        """
        requests = list(requests)
        if not requests:
            return []
        labels: List[Optional[bool]] = (
            list(was_fraud) if was_fraud is not None else [None] * len(requests)
        )
        if len(labels) != len(requests):
            raise ServingError("was_fraud length does not match the batch")
        groups: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(self.router.route(request.payer_id), []).append(index)
        responses: List[PredictionResponse] = [None] * len(requests)  # type: ignore[list-item]
        for replica, indices in groups.items():
            batch_responses = self._model_servers[replica].predict_batch(
                [requests[index] for index in indices]
            )
            for index, response in zip(indices, batch_responses):
                responses[index] = response
        if self.feature_updater is not None:
            for request in requests:
                self.feature_updater.observe_request(request)
        return self._record(requests, responses, labels)

    def replay_transactions(
        self,
        transactions: Iterable[Transaction],
        *,
        batch_size: Optional[int] = None,
        arrival_rate_per_s: Optional[float] = None,
        arrival_times_s: Optional[Iterable[float]] = None,
        coalescer: Optional[CoalescerConfig] = None,
        clock: str = "simulated",
        presorted: bool = False,
    ) -> ServingReport:
        """Replay labelled transactions as a true event-time stream.

        The input is sorted by event time (day ⊕ hour, ties broken by
        transaction id — a total order), so each transaction is scored against
        the feature state of everything that happened before it, and the
        replayed stream state is independent of the input's arrival order.
        Every mode is the same step per arrival — admission, then shed to
        rules or buffer for :meth:`process_batch`; the modes differ only in
        where ``now_ms`` comes from and in the batching policy that flushes
        the buffer: batches of one by default, of ``batch_size`` when set.

        ``arrival_rate_per_s`` replays the stream against a simulated arrival
        clock (request *i* arrives at ``i / rate`` seconds): it drives the
        attached :class:`~repro.serving.admission.AdmissionController` (shed
        past-capacity arrivals to the rule-based fallback) and, with a
        :class:`~repro.serving.coalescer.CoalescerConfig`, deadline-bounded
        micro-batching of the admitted requests instead of fixed-size
        batches.  ``coalescer`` and ``batch_size`` are mutually exclusive.

        ``clock`` selects how the arrival clock advances: ``"simulated"``
        (default) steps a deterministic logical clock, ``"wall"`` runs the
        same stream through the asyncio front end
        (:class:`~repro.serving.async_server.AsyncServingFrontEnd`) with real
        sleeps between arrivals and wall-clock flush deadlines — one replay
        entry point for both the deterministic tests and the event-loop
        path.  ``clock="wall"`` requires ``arrival_rate_per_s``; the event
        loop always coalesces, so a missing ``coalescer`` config means the
        default :class:`~repro.serving.coalescer.CoalescerConfig`.

        Streaming inputs: a :class:`~repro.datagen.stream.TransactionStream`
        that declares ``event_time_ordered`` — or any iterable passed with
        ``presorted=True`` — is consumed *lazily*, one event at a time,
        without materializing or re-sorting the stream; that is how
        million-transaction replays stay bounded-memory.  Other inputs keep
        the historical behaviour (materialize, then sort by the canonical
        event order).

        ``arrival_times_s`` replaces the uniform ``i / rate`` arrival clock
        with explicit per-event arrival times in seconds (non-decreasing, one
        per transaction) — this is how the sustained-load harness replays a
        diurnal curve whose instantaneous rate the admission controller must
        ride.  Mutually exclusive with ``arrival_rate_per_s`` and only
        supported under the simulated clock.
        """
        one_of(("simulated", "wall")).require("clock", clock, ServingError)
        optional(integer(1)).require("batch_size", batch_size, ServingError)
        optional(POSITIVE).require("arrival_rate_per_s", arrival_rate_per_s, ServingError)
        if clock == "wall" and arrival_rate_per_s is None:
            raise ServingError("clock='wall' needs arrival_rate_per_s")
        if coalescer is not None and batch_size is not None:
            raise ServingError("pass either batch_size or a coalescer config, not both")
        if arrival_times_s is not None and arrival_rate_per_s is not None:
            raise ServingError(
                "pass either arrival_rate_per_s or arrival_times_s, not both"
            )
        if arrival_times_s is not None and clock == "wall":
            raise ServingError("arrival_times_s requires the simulated clock")
        has_arrival_clock = arrival_rate_per_s is not None or arrival_times_s is not None
        if batch_size is not None and has_arrival_clock:
            raise ServingError(
                "fixed-size batching has no arrival clock; under "
                "an arrival clock use a coalescer config for micro-batching"
            )
        if (coalescer is not None or self.admission is not None) and not has_arrival_clock:
            raise ServingError(
                "coalescing and admission control need an arrival clock; "
                "pass arrival_rate_per_s or arrival_times_s"
            )
        # The replay order: lazy for ordered streams, sorted otherwise.
        if isinstance(transactions, TransactionStream):
            presorted = transactions.event_time_ordered
        ordered = transactions if presorted else sorted(transactions, key=event_order)
        if clock == "wall":
            assert arrival_rate_per_s is not None  # validated above; narrows the type
            front_end = AsyncServingFrontEnd(self, coalescer=coalescer)
            asyncio.run(front_end.replay(ordered, interval_s=1.0 / arrival_rate_per_s))
            self.last_coalescer_stats = front_end.stats()
            return self.report()
        # Scalar and fixed-size replays are the same loop under a policy that
        # only ever flushes full: batches of one, or of batch_size.
        batcher = RequestCoalescer(
            self,
            coalescer
            or CoalescerConfig(max_batch=batch_size or 1, max_delay_ms=float("inf")),
        )
        clock_ms = self._arrival_clock_ms(arrival_rate_per_s, arrival_times_s)
        for transaction, now_ms in zip(ordered, clock_ms):
            request = TransactionRequest.from_transaction(transaction)
            if self.arrive(request, now_ms, was_fraud=transaction.is_fraud) is None:
                batcher.submit(request, now_ms=now_ms, was_fraud=transaction.is_fraud)
        batcher.flush()
        if coalescer is not None:
            self.last_coalescer_stats = batcher.stats()
        return self.report()

    @staticmethod
    def _arrival_clock_ms(
        arrival_rate_per_s: Optional[float],
        arrival_times_s: Optional[Iterable[float]],
    ) -> Iterator[float]:
        """Where ``now_ms`` comes from under the simulated clock.

        Explicit arrival times, else ``index / rate``, else a clock that
        never advances (no arrival clock: nothing waits, nothing is shed).
        """
        if arrival_times_s is not None:
            last_now_ms = float("-inf")
            for arrival_s in arrival_times_s:
                now_ms = float(arrival_s) * 1000.0
                if not math.isfinite(now_ms):  # NaN would pass the order check below
                    raise ServingError(f"arrival_times_s must be finite, got {arrival_s!r}")
                if now_ms < last_now_ms:
                    raise ServingError("arrival_times_s must be non-decreasing")
                last_now_ms = now_ms
                yield now_ms
            # zip() asks the clock only after it drew another transaction.
            raise ServingError("arrival_times_s ran out before the transaction stream")
        interval_ms = 1000.0 / arrival_rate_per_s if arrival_rate_per_s is not None else 0.0
        for index in itertools.count():
            yield index * interval_ms

    # ------------------------------------------------------------------
    def report(self) -> ServingReport:
        """Aggregate everything served so far into a :class:`ServingReport`.

        Built from running counters rather than the ``served`` list, so it
        works identically with ``retain_served=False`` (bounded-memory
        replays).
        """
        return replace(
            self._totals,
            peak_queue_depth=(
                self.admission.peak_queue_depth if self.admission is not None else 0.0
            ),
            missing_embeddings=sum(
                server.missing_embeddings for server in self._model_servers
            ),
        )

    def latency_report(self) -> Dict[str, float]:
        """Combined latency summary across the MS fleet.

        Quantiles are computed over the merged raw samples of every server's
        tracker — taking the max of per-server p99s would overstate the
        fleet p99 whenever server loads differ.
        """
        return LatencyTracker.merged_report(
            [server.latency for server in self._model_servers]
        ).as_dict()
