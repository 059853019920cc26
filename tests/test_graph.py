"""Tests of the transaction network and random-walk layers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.builder import NetworkBuilder, build_network
from repro.graph.metrics import (
    degree_statistics,
    gathering_coefficient,
    shared_neighbor_fraction,
    two_hop_neighbors,
)
from repro.graph.network import TransactionNetwork
from repro.graph.random_walk import RandomWalkConfig, RandomWalker, generate_walks, split_corpus


class TestTransactionNetwork:
    def test_edge_accumulation(self):
        network = TransactionNetwork()
        network.add_edge("a", "b", 1.0)
        network.add_edge("a", "b", 2.0)
        assert network.num_edges == 1
        assert network.edge_weight("a", "b") == pytest.approx(3.0)

    def test_self_loops_rejected(self):
        network = TransactionNetwork()
        with pytest.raises(GraphError):
            network.add_edge("a", "a")

    def test_non_positive_weight_rejected(self):
        network = TransactionNetwork()
        with pytest.raises(GraphError):
            network.add_edge("a", "b", 0.0)

    def test_neighbors_merge_directions(self):
        network = TransactionNetwork()
        network.add_edge("a", "b", 1.0)
        network.add_edge("b", "a", 2.0)
        assert network.neighbors("a") == {"b": 3.0}
        assert network.in_degree("a") == 1
        assert network.out_degree("a") == 1

    def test_node_index_round_trip(self):
        network = TransactionNetwork()
        network.add_edge("x", "y")
        assert network.node_at(network.node_index("x")) == "x"
        with pytest.raises(GraphError):
            network.node_index("missing")

    def test_subgraph_induced(self):
        network = TransactionNetwork()
        network.add_edge("a", "b")
        network.add_edge("b", "c")
        network.add_edge("c", "d")
        sub = network.subgraph(["a", "b", "c"])
        assert set(sub.nodes()) == {"a", "b", "c"}
        assert sub.has_edge("a", "b") and sub.has_edge("b", "c")
        assert not sub.has_edge("c", "d")

    def test_subgraph_keeps_the_callers_first_seen_order(self):
        network = TransactionNetwork()
        network.add_edge("a", "b")
        network.add_edge("b", "c")
        sub = network.subgraph(["c", "a", "ghost", "b", "c"])
        assert sub.nodes() == ["c", "a", "b"]

    def test_to_networkx(self):
        network = TransactionNetwork()
        network.add_edge("a", "b", 2.0)
        graph = network.to_networkx()
        assert graph.number_of_nodes() == 2
        assert graph["a"]["b"]["weight"] == pytest.approx(2.0)


class TestNetworkBuilder:
    def test_build_from_slice(self, dataset, network):
        assert network.num_nodes > 0
        assert network.num_edges > 0
        payers = {t.payer_id for t in dataset.network_transactions}
        assert all(p in network for p in list(payers)[:50])

    def test_weighting_modes(self, dataset):
        count_net = build_network(dataset.network_transactions[:500], weighting="count")
        amount_net = build_network(dataset.network_transactions[:500], weighting="amount")
        sample_edge = next(iter(count_net.edges()))
        payer, payee, _ = sample_edge
        assert amount_net.edge_weight(payer, payee) >= count_net.edge_weight(payer, payee)

    def test_min_edge_weight_prunes(self, dataset):
        dense = build_network(dataset.network_transactions)
        pruned = build_network(dataset.network_transactions, min_edge_weight=3.0)
        assert pruned.num_edges < dense.num_edges

    def test_unknown_weighting_rejected(self):
        with pytest.raises(GraphError):
            NetworkBuilder(weighting="bogus")  # type: ignore[arg-type]


class TestRandomWalks:
    def test_walk_length_and_start(self, network):
        walker = RandomWalker(network, RandomWalkConfig(walk_length=12, num_walks_per_node=1, seed=1))
        start = network.nodes()[0]
        walk = walker.walk_from(start)
        assert walk[0] == start
        assert 1 <= len(walk) <= 12
        assert all(node in network for node in walk)

    def test_walks_follow_edges(self, network):
        walker = RandomWalker(network, RandomWalkConfig(walk_length=8, num_walks_per_node=1, seed=2))
        walk = walker.walk_from(network.nodes()[1])
        for previous, current in zip(walk, walk[1:]):
            assert current in network.neighbors(previous)

    def test_corpus_size(self, network):
        walks = generate_walks(network, walk_length=5, num_walks_per_node=2, rng=3)
        assert len(walks) == 2 * network.num_nodes

    def test_walks_reproducible(self, network):
        first = generate_walks(network, walk_length=6, num_walks_per_node=1, rng=11)
        second = generate_walks(network, walk_length=6, num_walks_per_node=1, rng=11)
        assert first == second

    def test_invalid_config(self):
        with pytest.raises(GraphError):
            RandomWalkConfig(walk_length=1).validate()
        with pytest.raises(GraphError):
            RandomWalkConfig(num_walks_per_node=0).validate()

    def test_split_corpus_covers_everything(self):
        corpus = [[str(i)] for i in range(10)]
        parts = split_corpus(corpus, 3)
        assert sum(len(p) for p in parts) == 10
        assert len(parts) == 3

    def test_iter_walk_batches_matches_iter_walks_seeded(self, network):
        """Same seed ⇒ identical corpora from the streaming and flat APIs."""
        config = RandomWalkConfig(walk_length=8, num_walks_per_node=2, seed=17)
        flat = list(RandomWalker(network, config).iter_walks())
        batched_walker = RandomWalker(network, config)
        batched = [
            walk
            for batch in batched_walker.iter_walk_batches()
            for walk in batched_walker.batch_to_walks(batch)
        ]
        assert flat == batched

    def test_walk_batches_invariant_to_batch_size(self, network):
        """The corpus must not depend on how the walks are chunked."""
        corpora = []
        for batch_size in (1, 7, 10_000):
            config = RandomWalkConfig(
                walk_length=6, num_walks_per_node=2, batch_size=batch_size, seed=23
            )
            corpora.append(list(RandomWalker(network, config).iter_walks()))
        assert corpora[0] == corpora[1] == corpora[2]

    def test_walk_batch_follows_edges_and_pads_after_termination(self):
        network = TransactionNetwork()
        network.add_edge("a", "b")
        network.add_edge("b", "c")
        network.add_edge("sink_payer", "sink")  # 'sink' only reachable, walkable back
        walker = RandomWalker(network, RandomWalkConfig(walk_length=6, num_walks_per_node=1, seed=5))
        starts = np.array([network.node_index(n) for n in ("a", "b", "sink")])
        batch = walker.walk_batch(starts)
        assert batch.shape == (3, 6)
        assert (batch[:, 0] == starts).all()
        for row in batch:
            nodes = [walker.network.node_at(int(i)) for i in row if i >= 0]
            for prev, cur in zip(nodes, nodes[1:]):
                assert cur in network.neighbors(prev)
            # padding is contiguous at the tail
            padding = row < 0
            assert not padding.any() or padding[np.argmax(padding) :].all()

    def test_walk_batch_unweighted_mode(self, network):
        config = RandomWalkConfig(walk_length=5, num_walks_per_node=1, weighted=False, seed=2)
        walker = RandomWalker(network, config)
        batch = walker.walk_batch(np.arange(min(20, network.num_nodes)))
        for walk in walker.batch_to_walks(batch):
            for prev, cur in zip(walk, walk[1:]):
                assert cur in network.neighbors(prev)


class TestGraphMetrics:
    def test_two_hop_neighbors_gathering_pattern(self):
        # Three victims all transfer to the same fraudster (paper Figure 2).
        network = TransactionNetwork()
        for victim in ("v1", "v2", "v3"):
            network.add_edge(victim, "fraudster")
        for victim in ("v1", "v2", "v3"):
            others = {"v1", "v2", "v3"} - {victim}
            assert others <= two_hop_neighbors(network, victim)

    def test_shared_neighbor_fraction_is_one_for_victims(self):
        network = TransactionNetwork()
        for victim in ("v1", "v2", "v3", "v4"):
            network.add_edge(victim, "fraudster")
        assert shared_neighbor_fraction(network, ["v1", "v2", "v3", "v4"]) == pytest.approx(1.0)

    def test_gathering_coefficient_on_world(self, world, network):
        fraud_victims = {}
        for txn in world.transactions:
            if txn.is_fraud and txn.payer_id in network and txn.payee_id in network:
                fraud_victims.setdefault(txn.payee_id, set()).add(txn.payer_id)
        fraud_victims = {k: v for k, v in fraud_victims.items() if len(v) >= 2}
        if fraud_victims:
            assert gathering_coefficient(network, fraud_victims) > 0.5

    def test_degree_statistics(self, network):
        stats = degree_statistics(network)
        assert stats.mean_in_degree == pytest.approx(stats.mean_out_degree)
        assert stats.max_in_degree >= stats.mean_in_degree


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=60,
    )
)
def test_network_degree_sum_property(edges):
    """Sum of in-degrees equals sum of out-degrees equals distinct edge count."""
    network = TransactionNetwork()
    for payer, payee in edges:
        network.add_edge(f"u{payer}", f"u{payee}")
    total_in = sum(network.in_degree(n) for n in network.nodes())
    total_out = sum(network.out_degree(n) for n in network.nodes())
    assert total_in == total_out == network.num_edges
