"""Graph statistics used in the analysis and tests.

These quantify the paper's qualitative observations: victims of the same
fraudster are 2-hop neighbours of each other ("gathering" behaviour), and
fraudster nodes accumulate unusually many inbound edges from diverse
communities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set

import numpy as np

from repro.graph.network import TransactionNetwork


@dataclass
class DegreeStatistics:
    """Summary of the degree distribution of a transaction network."""

    mean_in_degree: float
    mean_out_degree: float
    max_in_degree: int
    max_out_degree: int
    num_isolated: int


def degree_statistics(network: TransactionNetwork) -> DegreeStatistics:
    """Compute degree summary statistics."""
    nodes = network.nodes()
    if not nodes:
        return DegreeStatistics(0.0, 0.0, 0, 0, 0)
    in_degrees = np.array([network.in_degree(n) for n in nodes])
    out_degrees = np.array([network.out_degree(n) for n in nodes])
    isolated = int(np.sum((in_degrees + out_degrees) == 0))
    return DegreeStatistics(
        mean_in_degree=float(in_degrees.mean()),
        mean_out_degree=float(out_degrees.mean()),
        max_in_degree=int(in_degrees.max()),
        max_out_degree=int(out_degrees.max()),
        num_isolated=isolated,
    )


def two_hop_neighbors(network: TransactionNetwork, node: str) -> Set[str]:
    """Nodes reachable in exactly two undirected hops from ``node``.

    The node itself and its 1-hop neighbours are excluded.
    """
    one_hop = set(network.neighbors(node))
    two_hop: Set[str] = set()
    # Order-free: the loop only feeds set.update.
    for neighbor in one_hop:  # repro-lint: ignore[iteration-order]
        two_hop.update(network.neighbors(neighbor))
    two_hop.discard(node)
    return two_hop - one_hop


def shared_neighbor_fraction(
    network: TransactionNetwork, nodes: Iterable[str]
) -> float:
    """Fraction of node pairs in ``nodes`` that share at least one neighbour.

    For the victims of one fraudster this is 1.0 by construction (they all
    point at the fraudster), which is exactly the paper's Figure 2 intuition.
    """
    node_list = [n for n in nodes if n in network]
    if len(node_list) < 2:
        return 0.0
    neighbor_sets: Dict[str, Set[str]] = {
        n: set(network.neighbors(n)) for n in node_list
    }
    pairs = 0
    shared = 0
    for i, a in enumerate(node_list):
        for b in node_list[i + 1 :]:
            pairs += 1
            if neighbor_sets[a] & neighbor_sets[b]:
                shared += 1
    return shared / pairs if pairs else 0.0


def gathering_coefficient(
    network: TransactionNetwork, fraudster_victims: Dict[str, Iterable[str]]
) -> float:
    """Average shared-neighbour fraction over every fraudster's victim set.

    A value close to 1 means victims of each fraudster form a tight 2-hop
    cluster around the fraudster node, i.e. the aggregated data carries signal
    beyond individual transactions.
    """
    values = []
    for victims in fraudster_victims.values():
        fraction = shared_neighbor_fraction(network, victims)
        if fraction > 0 or len(list(victims)) >= 2:
            values.append(fraction)
    return float(np.mean(values)) if values else 0.0
