"""Streaming sliding-window aggregation: the online feature engine.

The batch :class:`~repro.features.aggregation.TransactionAggregator` freezes a
look-back window once per day, so online requests are served against rows that
are up to 24 hours stale.  The :class:`SlidingWindowAggregator` in this module
is the incremental replacement: it ingests transactions one at a time in event
time and can answer, at any instant, the exact same per-user aggregates a
brute-force batch recompute over the in-window events would produce.

Design
------
* **Event time.**  Every transaction is placed at
  :func:`~repro.features.aggregation.transaction_event_time` seconds.  Windows
  are left-open/right-closed: an event at ``t`` is inside the window ending at
  ``as_of`` iff ``as_of - W < t <= as_of``.
* **Buckets.**  Per account, events are accumulated into time buckets of
  ``bucket_seconds`` (default one hour — the schema's native granularity, so
  every bucket holds exactly one distinct timestamp and window membership is
  *exact*, not approximate).  Each bucket keeps subtotals (count, sum, max,
  night count) and the multiset of counterparties.
* **Costs.**  Ingest is O(1) amortised (update two buckets, occasionally evict
  expired buckets of the two touched accounts — each bucket is evicted at most
  once).  A feature query scans the account's O(window/bucket) live buckets.
* **Out-of-order arrivals.**  A late event lands in its (possibly older)
  bucket as long as it is still inside the retention horizon
  ``max_window + allowed_lateness``; an older event can never re-enter any
  permitted window (event-time windows only move forward) and is counted in
  ``late_events_dropped``.  Queries are exact for any
  ``as_of >= watermark - allowed_lateness`` (and for any ``as_of`` at or
  beyond the watermark); with the default lateness of 0 the engine retains
  exactly one window of buckets.
* **Multi-window.**  One bucket store serves any number of window lengths
  (e.g. 1 h / 24 h / 14 d); the first window is the *primary* one and emits
  the exact :data:`AGGREGATION_FEATURE_NAMES` vector of the batch path, extra
  windows append suffixed copies.

Determinism: queries fold buckets in ascending bucket-time order, so counts,
maxima, night fractions and distinct/payer sets depend only on the *set* of
in-window events, independent of arrival order; amount sums and means are
additionally exact across arrival orders whenever the amounts are dyadic
(e.g. integer cents scaled by a power of two — otherwise same-bucket float
sums can differ in the last ulp between orders).  A crash-recovery replay of
the same stream *in the same order* rebuilds bit-identical state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.datagen.schema import Transaction
from repro.exceptions import FeatureError
from repro.features.aggregation import (
    AGGREGATION_FEATURE_NAMES,
    AggregationConfig,
    AggregationWindowSpec,
    SECONDS_PER_HOUR,
    PointInTimeAggregateProvider,
    _require_bucket_divides_event_granularity,
    _require_positive_finite,
    aggregation_vector,
    build_aggregate_row,
    is_night_hour,
    transaction_event_time,
)


@dataclass(frozen=True)
class WindowSpec:
    """One sliding window: a name and a length in seconds.

    The first window of an aggregator is the *primary* window and emits the
    unprefixed :data:`AGGREGATION_FEATURE_NAMES`; additional windows need a
    non-empty unique name used as a feature-name suffix.
    """

    name: str
    window_seconds: float

    def __post_init__(self) -> None:
        _require_positive_finite(f"window {self.name!r} window_seconds", self.window_seconds)


def event_order(txn: Transaction) -> Tuple[int, str]:
    """The stream's canonical total order: event time, ties broken by
    transaction id.  Every replay path — the online Alipay replay, engine
    seeding, and the point-in-time training source — sorts with this one key,
    so replayed state can never depend on which path ordered the stream."""
    return (transaction_event_time(txn), txn.transaction_id)


#: The "1h / 24h / 14d" short-/mid-/long-horizon triple from the issue;
#: the 14-day window leads so the primary features match the batch default.
STANDARD_WINDOWS: Tuple[WindowSpec, ...] = (
    WindowSpec("14d", 14.0 * 24 * SECONDS_PER_HOUR),
    WindowSpec("24h", 24.0 * SECONDS_PER_HOUR),
    WindowSpec("1h", 1.0 * SECONDS_PER_HOUR),
)


class _Bucket:
    """Subtotals of one account's events inside one time bucket."""

    __slots__ = (
        "out_count",
        "out_sum",
        "out_max",
        "out_night",
        "payees",
        "in_count",
        "in_sum",
        "in_max",
        "payers",
    )

    def __init__(self) -> None:
        self.out_count = 0
        self.out_sum = 0.0
        self.out_max = 0.0
        self.out_night = 0
        self.payees: Set[str] = set()
        self.in_count = 0
        self.in_sum = 0.0
        self.in_max = 0.0
        self.payers: Set[str] = set()


class SlidingWindowAggregator:
    """Event-time, bucketed, multi-window per-account aggregate accumulator."""

    def __init__(
        self,
        config: Optional[AggregationConfig] = None,
        *,
        windows: Optional[Sequence[WindowSpec]] = None,
        bucket_seconds: Optional[float] = None,
        allowed_lateness_seconds: float = 0.0,
    ) -> None:
        if windows is not None and config is not None:
            raise FeatureError("pass an AggregationConfig or explicit windows, not both")
        if windows is None:
            resolved = config or AggregationConfig()
            resolved.validate()
            windows = (WindowSpec("primary", resolved.effective_window_seconds),)
        self.windows: Tuple[WindowSpec, ...] = tuple(windows)
        if not self.windows:
            raise FeatureError("SlidingWindowAggregator needs at least one window")
        suffixes = [spec.name for spec in self.windows[1:]]
        if any(not name for name in suffixes) or len(set(suffixes)) != len(suffixes):
            raise FeatureError("extra windows need non-empty, unique names")
        self.bucket_seconds = _require_bucket_divides_event_granularity(
            SECONDS_PER_HOUR if bucket_seconds is None else bucket_seconds
        )
        lateness = float(allowed_lateness_seconds)
        if math.isnan(lateness) or math.isinf(lateness) or lateness < 0.0:
            raise FeatureError(
                f"allowed_lateness_seconds must be a finite number >= 0, got {lateness!r}"
            )
        self.allowed_lateness_seconds = lateness
        #: Retention horizon: a bucket older than the longest window plus the
        #: allowed lateness can never be seen by a permitted query again.
        self._horizon = max(spec.window_seconds for spec in self.windows) + lateness
        #: account -> bucket time -> :class:`_Bucket`.
        self._accounts: Dict[str, Dict[float, _Bucket]] = {}
        self._watermark = -math.inf
        self.events_ingested = 0
        self.late_events_dropped = 0
        self.buckets_evicted = 0
        #: Every this-many ingests, sweep *all* accounts' expired buckets so
        #: dormant accounts (only touched accounts are evicted inline) cannot
        #: leak memory over a long-running stream.
        self.prune_interval = 10_000
        self._ingests_since_prune = 0

    @classmethod
    def from_window_spec(cls, spec: AggregationWindowSpec) -> "SlidingWindowAggregator":
        """Aggregator configured from the window spec a FeaturePlan exports."""
        return cls(
            windows=(WindowSpec("primary", spec.window_seconds),),
            bucket_seconds=spec.bucket_seconds,
        )

    # ------------------------------------------------------------------
    @property
    def primary_window(self) -> WindowSpec:
        """The first configured window (emits the unprefixed feature names)."""
        return self.windows[0]

    @property
    def window_spec(self) -> AggregationWindowSpec:
        """The primary window as a serialisable plan spec."""
        return AggregationWindowSpec(
            window_seconds=self.primary_window.window_seconds,
            bucket_seconds=self.bucket_seconds,
        )

    @property
    def watermark(self) -> float:
        """Highest event time ingested so far (``-inf`` before any event)."""
        return self._watermark

    @property
    def feature_names(self) -> List[str]:
        """Primary-window names plus suffixed copies per extra window."""
        names = list(AGGREGATION_FEATURE_NAMES)
        for spec in self.windows[1:]:
            names.extend(f"{base}_{spec.name}" for base in AGGREGATION_FEATURE_NAMES)
        return names

    def account_ids(self) -> List[str]:
        """Accounts with any non-evicted bucket (sorted)."""
        return sorted(self._accounts)

    def stats(self) -> Dict[str, float]:
        """Operational counters: ingests, late drops, evictions, live state."""
        return {
            "events_ingested": float(self.events_ingested),
            "late_events_dropped": float(self.late_events_dropped),
            "buckets_evicted": float(self.buckets_evicted),
            "accounts": float(len(self._accounts)),
            "buckets": float(sum(len(b) for b in self._accounts.values())),
        }

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------
    def _bucket_time(self, event_time: float) -> float:
        return math.floor(event_time / self.bucket_seconds) * self.bucket_seconds

    def _evict(self, user_id: str) -> None:
        """Drop the touched account's buckets that no window can ever see."""
        buckets = self._accounts.get(user_id)
        if not buckets:
            return
        cutoff = self._watermark - self._horizon
        expired = [bucket_time for bucket_time in buckets if bucket_time <= cutoff]
        for bucket_time in expired:
            del buckets[bucket_time]
        self.buckets_evicted += len(expired)
        if not buckets:
            del self._accounts[user_id]

    def ingest(self, txn: Transaction) -> bool:
        """Fold one transaction into the window state.

        Returns False (and counts the event as dropped) when the event is at
        or beyond the retention horizon — older than
        ``watermark - (max_window + allowed_lateness)`` — since no permitted
        query can ever see it.
        """
        event_time = transaction_event_time(txn)
        if event_time <= self._watermark - self._horizon:
            self.late_events_dropped += 1
            return False
        bucket_time = self._bucket_time(event_time)

        payer_bucket = self._accounts.setdefault(txn.payer_id, {}).get(bucket_time)
        if payer_bucket is None:
            payer_bucket = self._accounts[txn.payer_id][bucket_time] = _Bucket()
        payer_bucket.out_count += 1
        payer_bucket.out_sum += txn.amount
        payer_bucket.out_max = max(payer_bucket.out_max, txn.amount)
        if is_night_hour(txn.hour):
            payer_bucket.out_night += 1
        payer_bucket.payees.add(txn.payee_id)

        payee_bucket = self._accounts.setdefault(txn.payee_id, {}).get(bucket_time)
        if payee_bucket is None:
            payee_bucket = self._accounts[txn.payee_id][bucket_time] = _Bucket()
        payee_bucket.in_count += 1
        payee_bucket.in_sum += txn.amount
        payee_bucket.in_max = max(payee_bucket.in_max, txn.amount)
        payee_bucket.payers.add(txn.payer_id)

        self.events_ingested += 1
        if event_time > self._watermark:
            self._watermark = event_time
            self._evict(txn.payer_id)
            self._evict(txn.payee_id)
        self._ingests_since_prune += 1
        if self._ingests_since_prune >= self.prune_interval:
            self.prune()
        return True

    def ingest_many(self, transactions: Iterable[Transaction]) -> int:
        """Ingest a stream in arrival order; returns how many were applied."""
        applied = 0
        for txn in transactions:
            applied += 1 if self.ingest(txn) else 0
        return applied

    def replay(self, transactions: Iterable[Transaction]) -> "SlidingWindowAggregator":
        """Ingest a historical batch as an event-time stream.

        Sorted by (event time, transaction id) — the same total order every
        other replay path uses — so the resulting state is independent of the
        input list's permutation.
        """
        self.ingest_many(sorted(transactions, key=event_order))
        return self

    def prune(self) -> int:
        """Evict expired buckets of *every* account (also runs automatically
        every ``prune_interval`` ingests); returns the evicted bucket count."""
        before = self.buckets_evicted
        for user_id in list(self._accounts):
            self._evict(user_id)
        self._ingests_since_prune = 0
        return self.buckets_evicted - before

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def _window_row(
        self, user_id: str, window_seconds: float, as_of: float
    ) -> Tuple[Dict[str, float], Set[str]]:
        """(aggregate row, in-window payer set) for one account and window.

        Buckets are folded in ascending time order so the result is a pure
        function of the in-window event set, independent of arrival order.
        """
        out_count = 0
        out_sum = 0.0
        out_max = 0.0
        out_night = 0
        in_count = 0
        in_sum = 0.0
        in_max = 0.0
        payees: Set[str] = set()
        payers: Set[str] = set()
        buckets = self._accounts.get(user_id)
        if buckets:
            window_start = as_of - window_seconds
            # Filter to the in-window keys before sorting: a short window over
            # a long retention horizon folds only its own few buckets.
            for bucket_time in sorted(
                key for key in buckets if window_start < key <= as_of
            ):
                bucket = buckets[bucket_time]
                out_count += bucket.out_count
                out_sum += bucket.out_sum
                out_max = max(out_max, bucket.out_max)
                out_night += bucket.out_night
                payees.update(bucket.payees)
                in_count += bucket.in_count
                in_sum += bucket.in_sum
                in_max = max(in_max, bucket.in_max)
                payers.update(bucket.payers)
        row = build_aggregate_row(
            out_count=out_count,
            out_amount_sum=out_sum,
            out_amount_max=out_max,
            out_night_count=out_night,
            num_payees=len(payees),
            in_count=in_count,
            in_amount_sum=in_sum,
            in_amount_max=in_max,
            num_payers=len(payers),
        )
        return row, payers

    def _resolve_as_of(self, as_of: Optional[float]) -> float:
        return self._watermark if as_of is None else float(as_of)

    def user_row(self, user_id: str, *, as_of: Optional[float] = None) -> Dict[str, float]:
        """Primary-window aggregate row (same keys as the batch ``user_row``)."""
        row, _ = self._window_row(
            user_id, self.primary_window.window_seconds, self._resolve_as_of(as_of)
        )
        return row

    def hbase_row(self, user_id: str, *, as_of: Optional[float] = None) -> Dict[str, object]:
        """The serialised aggregate row written through to Ali-HBase.

        ``payers`` is a frozenset cell: equality is order-free and the online
        new-payer membership check stays O(1) however many in-window payers a
        hot merchant accumulates.
        """
        row, payers = self._window_row(
            user_id, self.primary_window.window_seconds, self._resolve_as_of(as_of)
        )
        serialised: Dict[str, object] = dict(row)
        serialised["payers"] = frozenset(payers)
        return serialised

    def snapshot_rows(self, *, as_of: Optional[float] = None) -> Dict[str, Dict[str, object]]:
        """``user_id -> hbase_row`` for every tracked account (deterministic)."""
        return {user_id: self.hbase_row(user_id, as_of=as_of) for user_id in self.account_ids()}

    def features_for(self, txn: Transaction, *, as_of: Optional[float] = None) -> np.ndarray:
        """The multi-window feature vector for one transaction.

        ``as_of`` defaults to the transaction's own event time — the true
        event-time semantics: the window ends at this transaction, and
        (because serving scores *before* ingesting) does not include it.
        """
        at = transaction_event_time(txn) if as_of is None else float(as_of)
        values: List[float] = []
        for spec in self.windows:
            payer_row, _ = self._window_row(txn.payer_id, spec.window_seconds, at)
            payee_row, payee_payers = self._window_row(
                txn.payee_id, spec.window_seconds, at
            )
            enriched: Dict[str, object] = dict(payee_row)
            enriched["payers"] = payee_payers
            values.extend(aggregation_vector(payer_row, enriched, txn.payer_id))
        return np.asarray(values, dtype=np.float64)


class PointInTimeAggregationSource(PointInTimeAggregateProvider):
    """Training-time aggregation features with exact online semantics.

    The naive batch construction (fit one window, transform the training
    batch against it) lets every training transaction see its *own*
    contribution — and everything that happened after it inside the fitted
    window.  Online serving is score-then-ingest, so that construction is
    systematic train/serve skew; most visibly, a first-time payer→payee
    transfer trains as ``agg_payee_new_payer_fraction = 0`` but serves as 1.

    This source removes the skew: it merges the held history with the
    requested batch into one event-time stream and replays it through a
    :class:`SlidingWindowAggregator`, serving each requested transaction the
    instant before it is ingested — byte-for-byte the contract the
    :class:`~repro.serving.alipay.AlipayServer` replay applies online.
    """

    def __init__(
        self, config: AggregationConfig, history: Iterable[Transaction]
    ) -> None:
        config.validate()
        self.config = config
        # History is sorted once here; each uncached aggregation_block call
        # still replays it through a fresh engine (O(history) ingests), so
        # repeated identical batches are memoized below.
        self.history = sorted(history, key=event_order)
        #: batch -> computed block; bounded, insertion-order evicted.
        #: Train/evaluate across many model configurations reuse the same few
        #: batches, so repeats cost O(1) instead of a full replay.
        self._block_cache: Dict[Tuple, np.ndarray] = {}
        self._block_cache_limit = 8

    @property
    def window_spec(self) -> AggregationWindowSpec:
        return AggregationWindowSpec.from_config(self.config)

    def aggregation_block(self, transactions: Sequence[Transaction]) -> np.ndarray:
        """(len(transactions), 12) point-in-time aggregation feature block.

        A transaction id may appear multiple times in the batch (oversampled
        training rows): each copy is served then ingested in turn, so the
        k-th copy sees the k-1 before it — exactly as replaying the
        duplicated stream online would.
        """
        # The key covers every feature-relevant field, not just the id, so a
        # batch that reuses a transaction id with different content cannot
        # alias into a stale cached block.
        cache_key = tuple(
            (t.transaction_id, t.day, t.hour, t.payer_id, t.payee_id, t.amount)
            for t in transactions
        )
        cached = self._block_cache.get(cache_key)
        if cached is not None:
            return cached.copy()
        positions: Dict[str, List[int]] = {}
        for index, txn in enumerate(transactions):
            positions.setdefault(txn.transaction_id, []).append(index)
        stream = heapq.merge(
            (e for e in self.history if e.transaction_id not in positions),
            sorted(transactions, key=event_order),
            key=event_order,
        )
        engine = SlidingWindowAggregator(self.config)
        block = np.zeros((len(transactions), len(AGGREGATION_FEATURE_NAMES)))
        served: Dict[str, int] = {}
        for event in stream:
            occurrences = positions.get(event.transaction_id)
            if occurrences is not None:
                occurrence = served.get(event.transaction_id, 0)
                block[occurrences[occurrence]] = engine.features_for(event)
                served[event.transaction_id] = occurrence + 1
            engine.ingest(event)
        if len(self._block_cache) >= self._block_cache_limit:
            self._block_cache.pop(next(iter(self._block_cache)))
        self._block_cache[cache_key] = block
        return block.copy()
