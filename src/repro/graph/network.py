"""Directed, weighted transaction network.

The structure is intentionally simple and dependency-free: adjacency maps of
``node -> {neighbor -> weight}`` in both directions, with integer indexing for
the embedding layers.  It supports the operations the reproduction needs —
edge accumulation from repeated transfers, undirected neighbour views for
random walks and per-node degrees.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.exceptions import GraphError


class TransactionNetwork:
    """Directed multigraph of transfer relationships, with edge weights.

    Repeated transfers between the same (payer, payee) pair accumulate weight,
    mirroring how the paper aggregates 90 days of records into one network.
    """

    def __init__(self) -> None:
        self._out: Dict[str, Dict[str, float]] = {}
        self._in: Dict[str, Dict[str, float]] = {}
        self._node_index: Dict[str, int] = {}
        self._index_node: List[str] = []
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: str) -> int:
        """Ensure ``node`` exists; return its integer index."""
        if node not in self._node_index:
            self._node_index[node] = len(self._index_node)
            self._index_node.append(node)
            self._out.setdefault(node, {})
            self._in.setdefault(node, {})
        return self._node_index[node]

    def add_edge(self, payer: str, payee: str, weight: float = 1.0) -> None:
        """Add (or reinforce) a transfer edge from ``payer`` to ``payee``."""
        if payer == payee:
            raise GraphError("self loops are not allowed in the transaction network")
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        self.add_node(payer)
        self.add_node(payee)
        if payee not in self._out[payer]:
            self._num_edges += 1
        self._out[payer][payee] = self._out[payer].get(payee, 0.0) + weight
        self._in[payee][payer] = self._in[payee].get(payer, 0.0) + weight

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._index_node)

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges."""
        return self._num_edges

    def __contains__(self, node: str) -> bool:
        return node in self._node_index

    def nodes(self) -> List[str]:
        """All node ids in insertion order (stable across runs)."""
        return list(self._index_node)

    def edges(self) -> Iterator[Tuple[str, str, float]]:
        """Iterate over (payer, payee, weight) triples."""
        for payer, targets in self._out.items():
            for payee, weight in targets.items():
                yield payer, payee, weight

    def node_index(self, node: str) -> int:
        """Integer index of ``node`` (stable, used by the embedding matrices)."""
        try:
            return self._node_index[node]
        except KeyError as exc:
            raise GraphError(f"unknown node {node!r}") from exc

    def node_at(self, index: int) -> str:
        try:
            return self._index_node[index]
        except IndexError as exc:
            raise GraphError(f"node index {index} out of range") from exc

    # ------------------------------------------------------------------
    # Neighbourhoods and degrees
    # ------------------------------------------------------------------
    def successors(self, node: str) -> Dict[str, float]:
        """Outgoing neighbours (payees) with accumulated weights."""
        if node not in self._node_index:
            raise GraphError(f"unknown node {node!r}")
        return dict(self._out[node])

    def predecessors(self, node: str) -> Dict[str, float]:
        """Incoming neighbours (payers) with accumulated weights."""
        if node not in self._node_index:
            raise GraphError(f"unknown node {node!r}")
        return dict(self._in[node])

    def neighbors(self, node: str) -> Dict[str, float]:
        """Undirected neighbour view (used by random walks)."""
        if node not in self._node_index:
            raise GraphError(f"unknown node {node!r}")
        merged: Dict[str, float] = dict(self._out[node])
        for neighbor, weight in self._in[node].items():
            merged[neighbor] = merged.get(neighbor, 0.0) + weight
        return merged

    def out_degree(self, node: str) -> int:
        return len(self.successors(node))

    def in_degree(self, node: str) -> int:
        return len(self.predecessors(node))
