"""Write-through of streaming aggregates into the online feature store.

The :class:`~repro.features.streaming.SlidingWindowAggregator` holds the
in-memory window state; this module connects it to Ali-HBase.  Every
transaction the Alipay front end ingests is folded into the aggregator and the
two touched accounts' fresh aggregate rows are written through to the
``transaction_aggregates`` column family.  Because every
:meth:`HBaseClient.put` invalidates the client-side TTL row cache for that
row, the *next* fraud check on either account reads the updated aggregates —
no stale-row serve, regardless of the cache TTL.

Writes use a monotonically increasing version number (starting above the
offline bulk-load version), so "latest" reads always observe the streaming
state, and the write-ahead log orders the updates for crash recovery: a
recovered region server replays the WAL and ends up with bit-identical
aggregate rows.

Cost note: an online request goes into the engine as it is — the engine, the
embedding refresher and its network builder read a
:class:`~repro.datagen.schema.TransferFields`, so no ``Transaction`` is built
per request.  Each write-through reads the two touched accounts' rows at the
watermark, which the engine maintains, so a row costs what the event changed
(the buckets touched since the account's last read), not its window state.
What is still paid per event is storage: two full-row puts, each its own WAL
entry and cache invalidation (``payers`` cells are shared between an account's
successive rows, not copied).  A put costs its row, not its history or its
fleet: the row is frozen once and logged as a tuple record, the region is a
dict hit for a rewritten key, each attached cache drops the family in one
``pop``, and the store appends the row to the account's short list of whole
rows and swaps it in as the snapshot, with no per-cell work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Set

from repro.datagen.schema import Transaction, TransferFields
from repro.features.streaming import SlidingWindowAggregator
from repro.hbase.client import AGGREGATES_FAMILY, DEFAULT_FEATURE_TABLE, HBaseClient

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.embedding_refresh import EmbeddingRefresher
    from repro.serving.model_server import TransactionRequest


class StreamingFeatureUpdater:
    """Folds ingested transactions into the aggregator and Ali-HBase.

    Parameters
    ----------
    aggregator:
        The sliding-window engine holding the event-time state (usually
        pre-seeded by replaying the training history, so online serving
        starts from exactly the state the offline pipeline published).
    hbase / table_name:
        Where the per-user aggregate rows live.
    start_version:
        Versions of write-through puts are ``start_version + n`` for the
        n-th ingested event.  Pass the offline bulk-load version so streaming
        rows always supersede the published snapshot.
    refresh_interval_seconds:
        A stored row is anchored at the moment it was written (the account's
        latest transaction), so an account that goes *idle* keeps serving
        that snapshot even after its events age past the window edge.  With
        a refresh interval set, every advance of the event-time watermark by
        at least this much re-publishes all tracked rows at the new
        watermark, bounding idle-account staleness to the interval (at an
        O(accounts) write cost per refresh).  ``None`` (default) disables the
        sweep — appropriate when the window is much longer than the serving
        horizon, where decay between touches is negligible.
    embedding_refresher:
        Optional :class:`~repro.serving.embedding_refresh.EmbeddingRefresher`.
        When attached, every ingested transaction is also folded into the
        cumulative transaction network and its endpoint accounts are queued
        for Structure2Vec re-embedding, keeping the embeddings column family
        convergent with the growing graph alongside the aggregate rows.
    """

    def __init__(
        self,
        aggregator: SlidingWindowAggregator,
        hbase: HBaseClient,
        table_name: str = DEFAULT_FEATURE_TABLE,
        *,
        start_version: int = 0,
        refresh_interval_seconds: Optional[float] = None,
        embedding_refresher: Optional["EmbeddingRefresher"] = None,
    ) -> None:
        self.aggregator = aggregator
        self.hbase = hbase
        self.table_name = table_name
        self._version = int(start_version)
        self.events_observed = 0
        self.refresh_interval_seconds = refresh_interval_seconds
        self.refreshes = 0
        self._last_refresh_watermark: Optional[float] = None
        self.embedding_refresher = embedding_refresher
        #: Accounts with a written aggregate row — refreshes must re-anchor
        #: these even after the aggregator prunes an idle account entirely.
        self._published: Set[str] = set()

    @property
    def current_version(self) -> int:
        """Version of the most recent write-through put."""
        return self._version

    def observe_transaction(self, transaction: TransferFields) -> bool:
        """Ingest one transfer — a transaction, or an online request as it
        is — and write both accounts' rows through.

        Returns False when the event was beyond the aggregator's retention
        horizon (too late to ever matter) — nothing is written in that case.
        """
        if not self.aggregator.ingest(transaction):
            return False
        self.events_observed += 1
        self._version += 1
        for user_id in (transaction.payer_id, transaction.payee_id):
            self.hbase.put(
                self.table_name,
                user_id,
                AGGREGATES_FAMILY,
                self.aggregator.hbase_row(user_id),
                version=self._version,
            )
            self._published.add(user_id)
        if self.embedding_refresher is not None:
            self.embedding_refresher.observe_transaction(transaction)
        self._maybe_refresh()
        return True

    def _maybe_refresh(self) -> None:
        if self.refresh_interval_seconds is None:
            return
        watermark = self.aggregator.watermark
        if self._last_refresh_watermark is None:
            self._last_refresh_watermark = watermark
            return
        if watermark - self._last_refresh_watermark >= self.refresh_interval_seconds:
            self.publish_snapshot(as_of=watermark)
            self._last_refresh_watermark = watermark
            self.refreshes += 1

    def observe_stream(self, transactions: Iterable[Transaction]) -> int:
        """Ingest a lazily generated transaction stream, one event at a time.

        Accepts any iterable — in particular a
        :class:`~repro.datagen.stream.TransactionStream` — and never
        materializes it; memory stays bounded by the aggregator's window
        state.  Events must arrive in event-time order (within the
        aggregator's lateness bound); the stream classes emit that order
        directly.  Returns the number of events actually ingested (late
        events beyond the retention horizon are skipped, as in
        :meth:`observe_transaction`).
        """
        ingested = 0
        for transaction in transactions:
            if self.observe_transaction(transaction):
                ingested += 1
        return ingested

    def observe_request(self, request: "TransactionRequest") -> bool:
        """Ingest an online transaction request (the Alipay-server hook)."""
        return self.observe_transaction(request)

    def publish_snapshot(self, *, as_of: Optional[float] = None, version: Optional[int] = None) -> int:
        """Bulk-write every tracked account's current row (bootstrap/repair).

        Also re-anchors accounts whose rows were written earlier but whose
        window state has since been pruned away entirely (their row becomes
        the all-zero cold row) — without this, an idle account's last
        non-zero snapshot would be served forever.
        """
        if version is None:
            self._version += 1
            version = self._version
        else:
            self._version = max(self._version, int(version))
        rows = self.aggregator.snapshot_rows(as_of=as_of)
        stale = self._published - rows.keys()
        for user_id in sorted(stale):  # the WAL order must not depend on hashing
            rows[user_id] = self.aggregator.hbase_row(user_id, as_of=as_of)
        self._published.update(rows)
        # Once re-anchored to the cold all-zero row, a pruned account needs
        # no further sweeps (it re-enters on its next transaction) — without
        # this, sweep cost would grow with lifetime accounts, not active ones.
        self._published.difference_update(stale)
        return self.hbase.bulk_load(
            self.table_name, AGGREGATES_FAMILY, rows, version=version
        )
