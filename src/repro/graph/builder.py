"""Build the transaction network from transaction records.

Mirrors the paper's offline step where 90 days of transaction logs in
MaxCompute are aggregated into the user transaction network: one node per
user, one directed edge per distinct (transferor, transferee) pair with a
weight equal to the number (or total amount) of transfers.
"""

from __future__ import annotations

from typing import Iterable, Literal, Tuple, get_args

from repro.datagen.schema import TransferFields
from repro.exceptions import GraphError
from repro.graph.network import TransactionNetwork

EdgeWeighting = Literal["count", "amount", "log_amount"]
#: The values of :data:`EdgeWeighting`, for the checks that reject any other.
EDGE_WEIGHTINGS: Tuple[str, ...] = get_args(EdgeWeighting)


class NetworkBuilder:
    """Incremental transaction-network builder.

    Parameters
    ----------
    weighting:
        How repeated transfers accumulate into the edge weight:
        ``"count"`` adds 1 per transfer, ``"amount"`` adds the transferred
        amount, ``"log_amount"`` adds ``log1p(amount)`` (dampens whales).
    min_edge_weight:
        Edges whose accumulated weight stays below this threshold are dropped
        when :meth:`finish` is called; pruning rare one-off transfers keeps the
        random walks focused on recurring relationships.
    """

    def __init__(
        self,
        *,
        weighting: EdgeWeighting = "count",
        min_edge_weight: float = 0.0,
    ) -> None:
        if weighting not in EDGE_WEIGHTINGS:
            raise GraphError(f"unknown edge weighting {weighting!r}")
        if min_edge_weight < 0:
            raise GraphError("min_edge_weight must be non-negative")
        self.weighting = weighting
        self.min_edge_weight = min_edge_weight
        self._network = TransactionNetwork()

    # ------------------------------------------------------------------
    def add(self, transaction: TransferFields) -> None:
        """Fold one transfer — a transaction or an online request — into the
        network."""
        weight = self._edge_weight(transaction)
        self._network.add_edge(transaction.payer_id, transaction.payee_id, weight)

    def add_many(self, transactions: Iterable[TransferFields]) -> None:
        for transaction in transactions:
            self.add(transaction)

    def finish(self) -> TransactionNetwork:
        """Return the built network, applying edge pruning if configured."""
        if self.min_edge_weight <= 0:
            return self._network
        pruned = TransactionNetwork()
        for node in self._network.nodes():
            pruned.add_node(node)
        for payer, payee, weight in self._network.edges():
            if weight >= self.min_edge_weight:
                pruned.add_edge(payer, payee, weight)
        return pruned

    # ------------------------------------------------------------------
    def _edge_weight(self, transaction: TransferFields) -> float:
        if self.weighting == "count":
            return 1.0
        if self.weighting == "amount":
            return max(transaction.amount, 1e-9)
        import math

        return math.log1p(max(transaction.amount, 0.0))


def build_network(
    transactions: Iterable[TransferFields],
    *,
    weighting: EdgeWeighting = "count",
    min_edge_weight: float = 0.0,
) -> TransactionNetwork:
    """Convenience wrapper: build a network from an iterable of transactions."""
    builder = NetworkBuilder(weighting=weighting, min_edge_weight=min_edge_weight)
    builder.add_many(transactions)
    return builder.finish()
