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
* **One window.**  The engine serves the one window its
  :class:`AggregationConfig` names — the window a
  :class:`~repro.features.plan.FeaturePlan` exports — and emits the exact
  :data:`AGGREGATION_FEATURE_NAMES` vector of the batch path.
* **Buckets.**  Per account, events are accumulated into one bucket per
  event instant (the schema's event times are hour-granular, so window
  membership is *exact*, not approximate).  Each bucket keeps subtotals
  (count, sum, max, night count) and the multiset of counterparties.
* **Costs.**  Ingest is O(1) amortised (update two buckets, keep each
  account's bucket times sorted, evict by a peek at the oldest — each bucket
  is evicted at most once).  A read *at the watermark* — every
  write-through row, most ``features_for`` calls of an in-order replay —
  costs O(buckets touched since the account's last such read): from its
  first one on, the account's row is maintained (counts as running totals,
  distinct sets as per-counterparty reference counts, running maxima, and
  the two sums' running left fold per bucket), and so is a read past it
  when no bucket lies in ``(watermark - W, as_of - W]`` (two bisections).
  Any other query is a full fold, O(buckets in the window).  The bits are the
  same because a running fold is never read from at or after a bucket an
  event touched and is dropped when the window edge passes a bucket, so
  finishing it repeats the full fold's additions exactly.
* **Out-of-order arrivals.**  A late event lands in its (possibly older)
  bucket as long as it is still inside the retention horizon
  ``window + allowed_lateness``; an older event can never re-enter any
  permitted window (event-time windows only move forward) and is counted in
  ``late_events_dropped``.  Queries are exact for any
  ``as_of >= watermark - allowed_lateness`` (and for any ``as_of`` at or
  beyond the watermark), and an older one raises :class:`FeatureError`;
  with the default lateness of 0 the engine retains one window of buckets.

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
from array import array
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, cast

import numpy as np

from repro.datagen.schema import Transaction, TransferFields, transaction_sort_key
from repro.exceptions import FeatureError
from repro.features.aggregation import (
    AGGREGATE_ROW_FIELDS,
    AGGREGATION_FEATURE_NAMES,
    AggregateCells,
    AggregationConfig,
    AggregationWindowSpec,
    PointInTimeAggregateProvider,
    aggregate_cells,
    is_night_hour,
    splice_aggregate_cells,
    transaction_event_time,
)


#: :func:`~repro.datagen.schema.transaction_sort_key` under the name the
#: serving side and the harness import.
event_order = transaction_sort_key


#: A bucket side's counterparties before its first event: shared, so frozen.  An
#: empty side is this set (or its copy in a copied engine): it gets its own first.
_NO_KEYS = cast(Set[str], frozenset())


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
        self.payees = _NO_KEYS
        self.in_count = 0
        self.in_sum = 0.0
        self.in_max = 0.0
        self.payers = _NO_KEYS


class _LiveWindow:
    """One account's window fold over ``times[start:]``, maintained:
    at all times equal to a full fold of exactly those buckets.  ``ingest``
    applies each event to it; a watermark read moves ``start`` up to the
    window edge and finishes the two sum folds."""

    __slots__ = (
        "start", "out_count", "out_night", "in_count", "out_max", "in_max",
        "payees", "payers", "payers_cell", "out_prefix", "in_prefix",
    )

    def __init__(self, start: int) -> None:
        self.start = start
        self.out_count = self.out_night = self.in_count = 0
        self.out_max = self.in_max = 0.0
        #: counterparty -> number of buckets in the range holding it.
        self.payees: Dict[str, int] = {}
        self.payers: Dict[str, int] = {}
        #: ``frozenset(payers)``, rebuilt only after a key entered or left.
        self.payers_cell: Optional[FrozenSet[str]] = None
        #: ``prefix[i]`` = left fold of the sums of ``times[start : start+i+1]``;
        #: the two lists are always cut together, so they have one length.
        self.out_prefix: List[float] = []
        self.in_prefix: List[float] = []

    def fold(self, bucket: _Bucket, sign: int) -> None:
        """Add (+1) or remove (-1) a whole bucket's order-free subtotals
        (a removal leaves the maxima to ``_advance``)."""
        self.out_count += sign * bucket.out_count
        self.out_night += sign * bucket.out_night
        self.in_count += sign * bucket.in_count
        if sign > 0:
            self.out_max = max(self.out_max, bucket.out_max)
            self.in_max = max(self.in_max, bucket.in_max)
        distinct_payers = len(self.payers)
        for refs, keys in ((self.payees, bucket.payees), (self.payers, bucket.payers)):
            for key in keys:
                count = refs.get(key, 0) + sign
                if count:
                    refs[key] = count
                else:
                    del refs[key]
        if len(self.payers) != distinct_payers:
            self.payers_cell = None


class _Account:
    """One account's buckets, their times ascending, and — from its first
    read at the watermark — its maintained window row."""

    __slots__ = ("buckets", "times", "live")

    def __init__(self) -> None:
        self.buckets: Dict[float, _Bucket] = {}
        self.times: List[float] = []
        self.live: Optional[_LiveWindow] = None


class SlidingWindowAggregator:
    """Event-time, bucketed, single-window per-account aggregate accumulator."""

    def __init__(
        self,
        config: Optional[AggregationConfig] = None,
        *,
        allowed_lateness_seconds: float = 0.0,
    ) -> None:
        config = config or AggregationConfig()
        config.validate()
        #: Length of the one window every row covers, in seconds.
        self.window_seconds = config.effective_window_seconds
        lateness = float(allowed_lateness_seconds)
        if math.isnan(lateness) or math.isinf(lateness) or lateness < 0.0:
            raise FeatureError(
                f"allowed_lateness_seconds must be a finite number >= 0, got {lateness!r}"
            )
        self.allowed_lateness_seconds = lateness
        #: Retention horizon: a bucket older than the window plus the allowed
        #: lateness can never be seen by a permitted query again.
        self._horizon = self.window_seconds + lateness
        #: account -> its buckets (an account is tracked while it has any).
        self._accounts: Dict[str, _Account] = {}
        self._watermark = -math.inf
        self.events_ingested = 0
        self.late_events_dropped = 0
        self.buckets_evicted = 0
        #: Every this-many ingests, sweep *all* accounts' expired buckets so
        #: dormant accounts (only touched accounts are evicted inline) cannot
        #: leak memory over a long-running stream.
        self.prune_interval = 10_000
        self._ingests_since_prune = 0

    # ------------------------------------------------------------------
    @property
    def window_spec(self) -> AggregationWindowSpec:
        """The window as a serialisable plan spec."""
        return AggregationWindowSpec(window_seconds=self.window_seconds)

    @property
    def watermark(self) -> float:
        """Highest event time ingested so far (``-inf`` before any event)."""
        return self._watermark

    @property
    def feature_names(self) -> List[str]:
        """The :data:`AGGREGATION_FEATURE_NAMES` columns ``features_for`` fills."""
        return list(AGGREGATION_FEATURE_NAMES)

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
            "buckets": float(sum(len(a.times) for a in self._accounts.values())),
        }

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------
    def _evict(self, user_id: str) -> None:
        """Drop the touched account's buckets that no window can ever see."""
        account = self._accounts.get(user_id)
        if account is None:
            return
        times = account.times
        cutoff = self._watermark - self._horizon
        if times[0] > cutoff:
            return
        stop = bisect_right(times, cutoff)
        live = account.live
        if live is not None:
            # The maintained range lets go of a bucket before the bucket goes
            # (the horizon is never shorter than the window).
            self._advance(account, live)
            live.start -= stop
        for bucket_time in times[:stop]:
            del account.buckets[bucket_time]
        del times[:stop]
        self.buckets_evicted += stop
        if not times:
            del self._accounts[user_id]

    def _touch(self, user_id: str, bucket_time: float) -> Tuple[_Bucket, Optional[_LiveWindow]]:
        """The account's bucket at ``bucket_time`` (created, and its time
        filed in order, when new) and, if the bucket lies inside the account's
        maintained range, the state the caller must apply the event to."""
        account = self._accounts.get(user_id)
        if account is None:
            account = self._accounts[user_id] = _Account()
        bucket = account.buckets.get(bucket_time)
        live = account.live
        if bucket is not None and live is None:
            return bucket, None
        position = bisect_left(account.times, bucket_time)
        if bucket is None:
            bucket = account.buckets[bucket_time] = _Bucket()
            account.times.insert(position, bucket_time)
            if live is not None and position < live.start:
                live.start += 1  # filed before the range: the range only shifts
        if live is None or position < live.start:
            return bucket, None
        # Soundness of the maintained sums: a running fold is never read from
        # at or after a bucket an event touched (cut here), and is dropped
        # whole when the window edge passes a bucket (``_advance``).
        del live.out_prefix[position - live.start :]
        del live.in_prefix[position - live.start :]
        return bucket, live

    def ingest(self, txn: TransferFields) -> bool:
        """Fold one transfer — a transaction, or an online request as it
        is — into the window state.

        Returns False (and counts the event as dropped) when the event is at
        or beyond the retention horizon — older than
        ``watermark - (window + allowed_lateness)`` — since no permitted
        query can ever see it.
        """
        return self._ingest(txn, transaction_event_time(txn))

    def _ingest(self, txn: TransferFields, event_time: float) -> bool:
        """:meth:`ingest` of an event whose time the caller already has."""
        if event_time <= self._watermark - self._horizon:
            self.late_events_dropped += 1
            return False
        amount = txn.amount
        night = 1 if is_night_hour(txn.hour) else 0

        payer_bucket, live = self._touch(txn.payer_id, event_time)
        if live is not None:
            live.out_count += 1
            live.out_night += night
            live.out_max = max(live.out_max, amount)
            if txn.payee_id not in payer_bucket.payees:
                live.payees[txn.payee_id] = live.payees.get(txn.payee_id, 0) + 1
        payer_bucket.out_count += 1
        payer_bucket.out_sum += amount
        payer_bucket.out_max = max(payer_bucket.out_max, amount)
        payer_bucket.out_night += night
        if not payer_bucket.payees:
            payer_bucket.payees = set()
        payer_bucket.payees.add(txn.payee_id)

        payee_bucket, live = self._touch(txn.payee_id, event_time)
        if live is not None:
            live.in_count += 1
            live.in_max = max(live.in_max, amount)
            if txn.payer_id not in payee_bucket.payers:
                holders = live.payers.get(txn.payer_id, 0)
                live.payers[txn.payer_id] = holders + 1
                if not holders:
                    live.payers_cell = None
        payee_bucket.in_count += 1
        payee_bucket.in_sum += amount
        payee_bucket.in_max = max(payee_bucket.in_max, amount)
        if not payee_bucket.payers:
            payee_bucket.payers = set()
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
    def _window_row(self, user_id: str, as_of: float) -> Tuple[AggregateCells, Set[str]]:
        """(aggregate cells, in-window payer set) for one account, by a full
        fold of its buckets — the path ``_row`` takes when the maintained
        row does not apply, and the oracle of the maintained one.

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
        account = self._accounts.get(user_id)
        if account is not None:
            times = account.times
            # Buckets kept only for the allowed lateness are not folded.
            first = bisect_right(times, as_of - self.window_seconds)
            for bucket_time in times[first : bisect_right(times, as_of)]:
                bucket = account.buckets[bucket_time]
                out_count += bucket.out_count
                out_sum += bucket.out_sum
                out_max = max(out_max, bucket.out_max)
                out_night += bucket.out_night
                payees.update(bucket.payees)
                in_count += bucket.in_count
                in_sum += bucket.in_sum
                in_max = max(in_max, bucket.in_max)
                payers.update(bucket.payers)
        cells = aggregate_cells(
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
        return cells, payers

    def _advance(self, account: _Account, live: _LiveWindow) -> None:
        """Move the maintained range's start up to the window's edge."""
        times = account.times
        edge = self._watermark - self.window_seconds
        start = live.start
        if start == len(times) or times[start] > edge:
            return
        live.start = bisect_right(times, edge, start)
        expired = [account.buckets[bucket_time] for bucket_time in times[start : live.start]]
        for bucket in expired:
            live.fold(bucket, -1)
        # The fold now starts at a later bucket; no kept partial sum is one of
        # its prefixes.
        live.out_prefix.clear()
        live.in_prefix.clear()
        if any(
            b.out_max >= live.out_max > 0.0 or b.in_max >= live.in_max > 0.0 for b in expired
        ):  # a maximum left with its bucket: take it over what remains
            window = [account.buckets[bucket_time] for bucket_time in times[live.start :]]
            live.out_max = max([0.0, *(bucket.out_max for bucket in window)])
            live.in_max = max([0.0, *(bucket.in_max for bucket in window)])

    def _maintained_row(self, user_id: str) -> Tuple[AggregateCells, Collection[str]]:
        """The row at the watermark, from the maintained state (built by one
        full fold the first time the account is read here)."""
        # A cold account reads as an empty one and stays untracked.
        account = self._accounts.get(user_id) or _Account()
        times = account.times
        live = account.live
        if live is None:
            edge = self._watermark - self.window_seconds
            live = account.live = _LiveWindow(bisect_right(times, edge))
            for bucket_time in times[live.start :]:
                live.fold(account.buckets[bucket_time], 1)
        else:
            self._advance(account, live)
        out_prefix, in_prefix = live.out_prefix, live.in_prefix
        out_sum = out_prefix[-1] if out_prefix else 0.0
        in_sum = in_prefix[-1] if in_prefix else 0.0
        for bucket_time in times[live.start + len(out_prefix) :]:
            bucket = account.buckets[bucket_time]
            out_sum += bucket.out_sum
            out_prefix.append(out_sum)
            in_sum += bucket.in_sum
            in_prefix.append(in_sum)
        cells = aggregate_cells(
            out_count=live.out_count,
            out_amount_sum=out_sum,
            out_amount_max=live.out_max,
            out_night_count=live.out_night,
            num_payees=len(live.payees),
            in_count=live.in_count,
            in_amount_sum=in_sum,
            in_amount_max=live.in_max,
            num_payers=len(live.payers),
        )
        return cells, live.payers

    def _row(self, user_id: str, as_of: float) -> Tuple[AggregateCells, Collection[str]]:
        """Every query's one way in, as (cells, a view of the in-window
        payers): the maintained row when the window at
        ``as_of`` holds the watermark's buckets — none lies in
        ``(watermark - W, as_of - W]`` — else the full fold."""
        watermark, window = self._watermark, self.window_seconds
        if as_of == watermark:
            return self._maintained_row(user_id)
        if as_of < watermark - self.allowed_lateness_seconds:
            raise FeatureError(f"as_of {as_of!r} is below the watermark minus the allowed lateness")
        times = self._accounts[user_id].times if user_id in self._accounts else []
        cut = bisect_right(times, watermark - window)
        if as_of > watermark and bisect_right(times, as_of - window, cut) == cut:
            return self._maintained_row(user_id)
        return self._window_row(user_id, as_of)

    def _resolve_as_of(self, as_of: Optional[float]) -> float:
        return self._watermark if as_of is None else float(as_of)

    def user_row(self, user_id: str, *, as_of: Optional[float] = None) -> Dict[str, float]:
        """Aggregate row (same keys as the batch ``user_row``)."""
        cells, _ = self._row(user_id, self._resolve_as_of(as_of))
        return dict(zip(AGGREGATE_ROW_FIELDS, cells))

    def hbase_row(self, user_id: str, *, as_of: Optional[float] = None) -> Dict[str, object]:
        """The serialised aggregate row written through to Ali-HBase.

        ``payers`` is a frozenset cell: equality is order-free and the online
        new-payer membership check stays O(1) however many in-window payers a
        hot merchant accumulates.  The dict is fresh on every call and the
        caller's to edit; the ``payers`` cell is immutable and may be the very
        object an earlier row of the account carried (it is rebuilt only when
        a payer enters or leaves the window), so stores, WAL entries and row
        caches can hold it without a copy.
        """
        cells, payers = self._row(user_id, self._resolve_as_of(as_of))
        row: Dict[str, object] = dict(zip(AGGREGATE_ROW_FIELDS, cells))
        account = self._accounts.get(user_id)
        live = None if account is None else account.live
        if live is not None and payers is live.payers:  # the maintained row's cell
            if live.payers_cell is None:
                live.payers_cell = frozenset(payers)
            row["payers"] = live.payers_cell
        else:
            row["payers"] = frozenset(payers)
        return row

    def snapshot_rows(self, *, as_of: Optional[float] = None) -> Dict[str, Dict[str, object]]:
        """``user_id -> hbase_row`` for every tracked account (deterministic)."""
        return {user_id: self.hbase_row(user_id, as_of=as_of) for user_id in self.account_ids()}

    def features_for(self, txn: Transaction, *, as_of: Optional[float] = None) -> np.ndarray:
        """The :data:`AGGREGATION_FEATURE_NAMES` vector for one transaction.

        ``as_of`` defaults to the transaction's own event time — the true
        event-time semantics: the window ends at this transaction, and
        (because serving scores *before* ingesting) does not include it.
        """
        at = transaction_event_time(txn) if as_of is None else float(as_of)
        return np.asarray(self._vector(txn, at), dtype=np.float64)

    def _vector(self, txn: Transaction, at: float) -> List[float]:
        """``features_for`` as a list: the two accounts' cells spliced."""
        payer_cells, _ = self._row(txn.payer_id, at)
        payee_cells, payers = self._row(txn.payee_id, at)
        return splice_aggregate_cells(payer_cells, payee_cells, payers, txn.payer_id)


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

    It also owns replaying the history: a pass whose merged stream *was* the
    history (distinct batch ids, each equal to the history record with that
    id — the training window, not a test-day or oversampled batch) keeps its
    engine, at most one, for :meth:`seeded_engine` to hand over.
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
        #: The engine of the last pass that replayed exactly ``history``.
        self._engine: Optional[SlidingWindowAggregator] = None

    @property
    def window_spec(self) -> AggregationWindowSpec:
        """The window as a serialisable plan spec."""
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
        batch = sorted(((event_order(t), t) for t in transactions), key=itemgetter(0))
        replaced = [e for e in self.history if e.transaction_id in positions]
        rest = ((event_order(e), e) for e in self.history if e.transaction_id not in positions)
        engine = SlidingWindowAggregator(self.config)
        rows = array("d")  # in stream order; scattered into place once below
        order: List[int] = []
        for (event_time, _), event in heapq.merge(rest, batch, key=itemgetter(0)):
            occurrences = positions.get(event.transaction_id)
            if occurrences is not None:  # the k-th copy served fills the k-th position
                order.append(occurrences.pop(0))
                rows.extend(engine._vector(event, event_time))
            engine._ingest(event, event_time)
        block = np.empty((len(transactions), len(AGGREGATION_FEATURE_NAMES)))
        block[order] = np.frombuffer(rows).reshape(-1, len(AGGREGATION_FEATURE_NAMES))
        if len(replaced) == len(batch) == len(positions) and all(
            old is new or old == new for old, (_, new) in zip(replaced, batch)
        ):  # the merged stream was the history itself
            self._engine = engine
        if len(self._block_cache) >= self._block_cache_limit:
            self._block_cache.pop(next(iter(self._block_cache)))
        self._block_cache[cache_key] = block
        return block.copy()

    def seeded_engine(self) -> SlidingWindowAggregator:
        """An engine that has ingested exactly the history, now the caller's:
        the kept one (the source drops it, so a second call replays), else a
        replay of the history.  Both answer every row bit-equal."""
        engine, self._engine = self._engine, None
        if engine is None:
            engine = SlidingWindowAggregator(self.config).replay(self.history)
        return engine

    def release_engine(self) -> None:
        """Drop the kept engine, for a caller that will not adopt it."""
        self._engine = None
