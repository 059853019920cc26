"""Transaction-network layer.

The paper defines the transaction network G = (V, E) where nodes are users and
directed edges are transfer relationships (Definition 2).  This package
provides the graph data structure, a builder that constructs the network from
transaction records, random-walk corpus generation for DeepWalk, and the graph
statistics used by tests and examples (degree distributions, fraud
"gathering" measurements).
"""

from repro.graph.network import TransactionNetwork
from repro.graph.builder import NetworkBuilder, build_network
from repro.graph.random_walk import RandomWalkConfig, RandomWalker
from repro.graph.metrics import (
    degree_statistics,
    gathering_coefficient,
    shared_neighbor_fraction,
)

__all__ = [
    "TransactionNetwork",
    "NetworkBuilder",
    "build_network",
    "RandomWalkConfig",
    "RandomWalker",
    "degree_statistics",
    "gathering_coefficient",
    "shared_neighbor_fraction",
]
