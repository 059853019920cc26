"""Incremental Structure2Vec refresh in the serving path.

The offline pipeline trains :class:`~repro.nrl.structure2vec.Structure2Vec`
on the 90-day transaction network and bulk-loads one embedding row per
account into the ``user_node_embeddings`` column family.  Online, the graph
keeps growing: every served transaction is a new (or reinforced) edge, and
the bulk-loaded vectors of the touched neighbourhood go stale.

This module closes that gap without a nightly full retrain.  The
:class:`EmbeddingRefresher` maintains the cumulative transaction network
(same :class:`~repro.graph.builder.NetworkBuilder` semantics as the offline
job), and each observed transfer enqueues its two endpoint accounts into an
:class:`EmbeddingRefreshQueue`.  A refresh pass drains the queue, expands the
dirty endpoints into the set of accounts whose embeddings can actually have
changed — with T propagation rounds, exactly the radius-(T-1) ball around the
endpoints — and re-embeds that neighbourhood.  The refresh freezes the
trained parameters and runs the exact restricted forward pass
(:meth:`Structure2Vec.embed_nodes`) over the touched ball: cost is
proportional to the neighbourhood, not the graph, and the refreshed rows
equal a full-graph forward pass with the same parameters.  A full retrain
stays the nightly offline job's.

Refreshed rows are written through :meth:`HBaseClient.put` with a
monotonically increasing version above the offline bulk-load version, so the
per-column-family client caches are invalidated on every attached connection
and "latest" reads observe the refreshed vectors.  Untouched accounts are
never written, so their stored rows stay bit-unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.contracts import check_fields, checked, integer, one_of, optional
from repro.datagen.schema import Transaction, TransferFields
from repro.exceptions import ServingError
from repro.graph.builder import EDGE_WEIGHTINGS, EdgeWeighting, NetworkBuilder
from repro.graph.network import TransactionNetwork
from repro.hbase.client import DEFAULT_FEATURE_TABLE, EMBEDDINGS_FAMILY, HBaseClient
from repro.nrl.structure2vec import Structure2Vec
from repro.serving.feature_source import embedding_cell


class EmbeddingRefreshQueue:
    """Ordered, deduplicating FIFO of accounts awaiting re-embedding.

    Re-enqueueing an account already in the queue coalesces into the existing
    entry (the account only needs one re-embed per refresh pass, computed
    against the network state at drain time).  Insertion order is preserved
    so refresh batches are deterministic for a deterministic event stream.
    """

    def __init__(self) -> None:
        self._pending: Dict[str, None] = {}
        #: Total enqueue calls, including coalesced duplicates.
        self.enqueued = 0
        #: Enqueue calls absorbed by an existing pending entry.
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, account: str) -> bool:
        return account in self._pending

    def enqueue(self, account: str) -> bool:
        """Add one account; returns False when it was already pending."""
        self.enqueued += 1
        if account in self._pending:
            self.coalesced += 1
            return False
        self._pending[account] = None
        return True

    def extend(self, accounts: Iterable[str]) -> int:
        """Enqueue many accounts; returns how many were newly added."""
        return sum(1 for account in accounts if self.enqueue(account))

    def drain(self, max_accounts: Optional[int] = None) -> List[str]:
        """Pop up to ``max_accounts`` pending accounts in FIFO order.

        ``None`` drains the whole queue.
        """
        if max_accounts is None or max_accounts >= len(self._pending):
            drained = list(self._pending)
            self._pending.clear()
            return drained
        if max_accounts <= 0:
            return []
        drained = list(self._pending)[:max_accounts]
        for account in drained:
            del self._pending[account]
        return drained


@dataclass(frozen=True)
class EmbeddingRefreshConfig:
    """Tuning knobs of the online embedding refresher."""

    #: Qualifier the refreshed vector is written under in the embeddings
    #: column family (must match the serving plan's embedding block).
    set_name: str = "s2v"
    #: Maximum queued endpoints drained per refresh pass (0 = unbounded).
    #: The dirty ball is expanded from the drained endpoints only; the rest
    #: stay queued for the next pass.
    max_refresh_batch: int = checked(integer(0), 0)
    #: When set, :meth:`EmbeddingRefresher.observe_transaction` triggers a
    #: refresh pass automatically once this many accounts are pending.
    auto_refresh_threshold: Optional[int] = checked(optional(integer(1)), None)
    #: Edge weighting of the cumulative network — must match the offline
    #: :func:`~repro.graph.builder.build_network` call for parity.
    weighting: EdgeWeighting = checked(one_of(EDGE_WEIGHTINGS), "count")

    def __post_init__(self) -> None:
        check_fields(self, ServingError)
        if not self.set_name:
            raise ServingError("set_name must be non-empty")


@dataclass
class RefreshReport:
    """Outcome of one :meth:`EmbeddingRefresher.refresh` pass."""

    #: Endpoint accounts drained from the queue this pass.
    drained: List[str] = field(default_factory=list)
    #: Accounts actually re-embedded and written (the dirty ball).
    refreshed: List[str] = field(default_factory=list)
    #: HBase version the refreshed rows were written at (0 when no-op).
    version: int = 0


class EmbeddingRefresher:
    """Keeps online Structure2Vec rows convergent with the growing graph.

    Parameters
    ----------
    model:
        The offline-trained :class:`Structure2Vec`, whose parameters the
        refresh freezes.
    hbase / table_name:
        The feature store holding the ``user_node_embeddings`` family.
    config:
        Refresh knobs (:class:`EmbeddingRefreshConfig`).
    warmup_transactions:
        The training-window history.  Folded into the cumulative network so
        the online graph starts from exactly the state the offline model was
        trained on.
    start_version:
        Version floor for refreshed rows — pass the offline bulk-load
        version so refreshed rows always supersede the published snapshot.
    """

    def __init__(
        self,
        model: Structure2Vec,
        hbase: HBaseClient,
        table_name: str = DEFAULT_FEATURE_TABLE,
        *,
        config: Optional[EmbeddingRefreshConfig] = None,
        warmup_transactions: Optional[Iterable[Transaction]] = None,
        start_version: int = 0,
    ) -> None:
        self.config = config or EmbeddingRefreshConfig()
        self.model = model
        self.hbase = hbase
        self.table_name = table_name
        self.queue = EmbeddingRefreshQueue()
        self._builder = NetworkBuilder(weighting=self.config.weighting)
        self._version = int(start_version)
        self.events_observed = 0
        self.refreshes = 0
        self.rows_written = 0
        if warmup_transactions is not None:
            for transaction in warmup_transactions:
                self._builder.add(transaction)

    # ------------------------------------------------------------------
    @property
    def network(self) -> TransactionNetwork:
        """The cumulative transaction network (warmup + observed events)."""
        return self._builder.finish()

    def observe_transaction(self, transaction: TransferFields) -> None:
        """Fold one new edge into the graph and enqueue its endpoints.

        Only the endpoints are queued; the full set of accounts whose
        embeddings the edge can affect (its radius-(T-1) ball) is expanded at
        refresh time against the then-current network, which is both cheaper
        under coalescing and correct for edges that arrive between passes.
        """
        self._builder.add(transaction)
        self.events_observed += 1
        self.queue.enqueue(transaction.payer_id)
        self.queue.enqueue(transaction.payee_id)
        threshold = self.config.auto_refresh_threshold
        if threshold is not None and len(self.queue) >= threshold:
            self.refresh()

    # ------------------------------------------------------------------
    def _dirty_ball(self, network: TransactionNetwork, seeds: List[str]) -> List[str]:
        """Accounts whose mu^(T) can differ after edges at ``seeds`` changed.

        A new edge changes its endpoints' structural features and aggregation
        rows; that influences mu^(T) of every node within T-1 hops.  Expanded
        deterministically (sorted neighbour order, seeds in drain order).
        """
        radius = self.model.config.propagation_rounds - 1
        seen: Set[str] = set(seeds)
        order: List[str] = list(seeds)
        frontier = list(seeds)
        for _ in range(radius):
            next_frontier: List[str] = []
            for node in frontier:
                for neighbor in sorted(network.neighbors(node)):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        order.append(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return order

    def refresh(self) -> RefreshReport:
        """Drain the queue and write refreshed rows for the touched ball."""
        limit = self.config.max_refresh_batch or None
        drained = self.queue.drain(limit)
        if not drained:
            return RefreshReport()
        network = self.network
        targets = self._dirty_ball(network, drained)
        restricted = self.model.embed_nodes(network, targets)

        self._version += 1
        for node in targets:
            self.hbase.put(
                self.table_name,
                node,
                EMBEDDINGS_FAMILY,
                {self.config.set_name: embedding_cell(restricted[node])},
                version=self._version,
            )
        self.rows_written += len(targets)
        self.refreshes += 1
        return RefreshReport(
            drained=drained,
            refreshed=targets,
            version=self._version,
        )
