"""Directed, weighted transaction network.

The structure is intentionally simple and dependency-free: adjacency maps of
``node -> {neighbor -> weight}`` in both directions, with integer indexing for
the embedding layers.  It supports the operations the reproduction needs —
edge accumulation from repeated transfers, undirected neighbour views for
random walks, per-node degrees and conversion to ``networkx`` for analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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

    def __len__(self) -> int:
        return self.num_nodes

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

    def has_edge(self, payer: str, payee: str) -> bool:
        return payee in self._out.get(payer, {})

    def edge_weight(self, payer: str, payee: str) -> float:
        return self._out.get(payer, {}).get(payee, 0.0)

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

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` for ad-hoc analysis."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes())
        graph.add_weighted_edges_from(self.edges())
        return graph

    def subgraph(self, nodes: Iterable[str]) -> "TransactionNetwork":
        """Induced subgraph on ``nodes`` (unknown ids are ignored), its node
        index in the caller's first-seen order."""
        keep = dict.fromkeys(n for n in nodes if n in self._node_index)
        sub = TransactionNetwork()
        for node in keep:
            sub.add_node(node)
        for payer in keep:
            for payee, weight in self._out[payer].items():
                if payee in keep:
                    sub.add_edge(payer, payee, weight)
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TransactionNetwork(nodes={self.num_nodes}, edges={self.num_edges})"
