"""Dynamic-graph embedding refresh in the serving path (PR 10 tentpole).

Covers the refresh queue, the exact restricted forward pass
(:meth:`Structure2Vec.embed_nodes`), and the :class:`EmbeddingRefresher`:
refreshed rows must match an independent dense full-network forward pass
reimplemented here from the model's parameters, and accounts outside the
touched neighbourhood are never written — their stored HBase rows stay
bit-unchanged (property-tested over random stream prefixes).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import ProfileConfig, WorldConfig, generate_world
from repro.datagen.schema import Transaction, TransactionChannel, transaction_sort_key
from repro.exceptions import EmbeddingError, ServingError
from repro.features.streaming import SlidingWindowAggregator
from repro.graph.builder import build_network
from repro.hbase.client import AGGREGATES_FAMILY, EMBEDDINGS_FAMILY, HBaseClient
from repro.nrl.structure2vec import (
    Structure2Vec,
    Structure2VecConfig,
    node_labels_from_transactions,
    node_structural_features,
)
from repro.serving.embedding_refresh import (
    EmbeddingRefreshConfig,
    EmbeddingRefreshQueue,
    EmbeddingRefresher,
)
from repro.serving.model_server import TransactionRequest
from repro.serving.streaming import StreamingFeatureUpdater

S2V_CONFIG = Structure2VecConfig(dimension=6, epochs=8, seed=5)
TABLE = "titant_features"


def make_txn(index: int, payer: str, payee: str, *, day: int = 0, amount: float = 50.0,
             is_fraud: bool = False) -> Transaction:
    """A minimal schema-valid transaction between two distinct accounts."""
    return Transaction(
        transaction_id=f"t{index:05d}",
        day=day,
        hour=index % 24,
        payer_id=payer,
        payee_id=payee,
        amount=amount,
        channel=TransactionChannel.APP,
        trans_city="city_001",
        device_id=f"d{index}",
        is_new_device=False,
        ip_risk_score=0.1,
        payer_recent_txn_count=0,
        payer_recent_amount=0.0,
        payee_recent_inbound_count=0,
        is_fraud=is_fraud,
        label_available_day=day,
    )


def random_transactions(seed: int, *, num_accounts: int = 18, count: int = 70):
    """A seeded random edge stream over a small account population."""
    rng = np.random.default_rng(seed)
    transactions = []
    for index in range(count):
        payer, payee = rng.choice(num_accounts, size=2, replace=False)
        transactions.append(
            make_txn(
                index,
                f"u{payer:02d}",
                f"u{payee:02d}",
                day=index // 10,
                amount=float(rng.integers(10, 500)),
                is_fraud=bool(rng.random() < 0.08),
            )
        )
    return transactions


def fitted_model(warmup):
    network = build_network(warmup)
    labels = node_labels_from_transactions(warmup)
    return Structure2Vec(S2V_CONFIG).fit(network, node_labels=labels)


def store_with_embeddings(model, *, version: int = 100) -> HBaseClient:
    hbase = HBaseClient()
    hbase.create_feature_store(TABLE)
    embeddings = model.embeddings()
    rows = {
        node: {"s2v": tuple(float(v) for v in embeddings[node])}
        for node in embeddings.node_ids()
    }
    hbase.bulk_load(TABLE, EMBEDDINGS_FAMILY, rows, version=version)
    return hbase


def snapshot_rows(hbase: HBaseClient):
    """Every stored embedding row, for bit-unchanged comparisons."""
    table = hbase.table(TABLE)
    return {
        row_key: dict(cells)
        for row_key, cells in table.scan(EMBEDDINGS_FAMILY)
    }


class TestEmbeddingRefreshQueue:
    def test_fifo_order_and_dedup(self):
        queue = EmbeddingRefreshQueue()
        assert queue.enqueue("a") is True
        assert queue.enqueue("b") is True
        assert queue.enqueue("a") is False  # coalesced
        assert queue.extend(["c", "b"]) == 1
        assert len(queue) == 3
        assert "b" in queue
        assert queue.drain() == ["a", "b", "c"]
        assert len(queue) == 0
        assert queue.enqueued == 5
        assert queue.coalesced == 2

    def test_drain_with_limit_preserves_rest(self):
        queue = EmbeddingRefreshQueue()
        queue.extend(["a", "b", "c", "d"])
        assert queue.drain(2) == ["a", "b"]
        assert queue.drain(0) == []
        assert queue.drain(99) == ["c", "d"]

    def test_config_validation(self):
        with pytest.raises(ServingError):
            EmbeddingRefreshConfig(set_name="").validate()
        with pytest.raises(ServingError):
            EmbeddingRefreshConfig(max_refresh_batch=-1).validate()
        with pytest.raises(ServingError):
            EmbeddingRefreshConfig(auto_refresh_threshold=0).validate()
        EmbeddingRefreshConfig().validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_refresh_batch", 2.5),
            ("max_refresh_batch", True),
            ("max_refresh_batch", "3"),
            ("auto_refresh_threshold", 1.5),
            ("auto_refresh_threshold", True),
            ("weighting", "bogus"),
        ],
    )
    def test_config_rejects_what_would_fail_later(self, field, value):
        """Each of these passed validation: a fractional batch then raised a
        bare TypeError from the queue's slice on the first refresh of three
        or more pending accounts, and an unknown weighting surfaced only as a
        GraphError from the network builder."""
        config = EmbeddingRefreshConfig(**{field: value})
        with pytest.raises(ServingError, match=field):
            config.validate()
        with pytest.raises(ServingError, match=field):
            EmbeddingRefresher(fitted_model(random_transactions(1)), HBaseClient(), config=config)

    def test_an_integer_batch_drains_in_slices(self):
        transactions = random_transactions(2)
        warmup, delta = transactions[:40], transactions[40:]
        model = fitted_model(warmup)
        refresher = EmbeddingRefresher(
            model, store_with_embeddings(model),
            config=EmbeddingRefreshConfig(max_refresh_batch=np.int64(2)),
            warmup_transactions=warmup, start_version=100,
        )
        for transaction in delta[:3]:
            refresher.observe_transaction(transaction)
        assert len(refresher.refresh().drained) == 2


class TestRestrictedForward:
    def test_embed_nodes_matches_full_forward(self):
        transactions = random_transactions(3)
        model = fitted_model(transactions)
        network = build_network(transactions)
        full = model.embeddings()
        restricted = model.embed_nodes(network, sorted(network.nodes()))
        for node in network.nodes():
            assert np.allclose(restricted[node], full[node], atol=1e-9)

    def test_embed_nodes_requires_fit_and_known_targets(self):
        transactions = random_transactions(4)
        network = build_network(transactions)
        with pytest.raises(EmbeddingError):
            Structure2Vec(S2V_CONFIG).embed_nodes(network, ["u00"])
        model = fitted_model(transactions)
        with pytest.raises(EmbeddingError):
            model.embed_nodes(network, ["ghost"])
        with pytest.raises(EmbeddingError):
            model.embed_nodes(network, [])

    def test_params_property_returns_copies(self):
        model = fitted_model(random_transactions(5))
        params = model.params
        params["W1"][:] = 0.0
        assert not np.allclose(model.params["W1"], 0.0)
        with pytest.raises(EmbeddingError):
            Structure2Vec(S2V_CONFIG).params

    def test_subset_features_match_full_rows(self):
        network = build_network(random_transactions(6))
        nodes, full = node_structural_features(network)
        subset = [nodes[4], nodes[0], nodes[9]]
        subset_nodes, rows = node_structural_features(network, nodes=subset)
        assert subset_nodes == subset
        for row, node in enumerate(subset):
            assert np.array_equal(rows[row], full[nodes.index(node)])


def dense_full_forward(params, network, rounds):
    """Independent oracle: dense full-network mean-field forward pass.

    Reimplements the propagation from the module docstring's equation alone
    (no shared code with ``Structure2Vec._forward``), so a bug in the
    restricted-forward bookkeeping cannot cancel out.
    """
    nodes = network.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    features = np.zeros((len(nodes), 6))
    for i, node in enumerate(nodes):
        incoming = network.predecessors(node)
        outgoing = network.successors(node)
        total_degree = len(incoming) + len(outgoing)
        features[i] = [
            np.log1p(len(incoming)),
            np.log1p(len(outgoing)),
            np.log1p(sum(incoming.values())),
            np.log1p(sum(outgoing.values())),
            len(incoming) / total_degree if total_degree else 0.0,
            1.0,
        ]
    adjacency = np.zeros((len(nodes), len(nodes)))
    for i, node in enumerate(nodes):
        neighbors = network.neighbors(node)
        total = sum(neighbors.values())
        for neighbor, weight in neighbors.items():
            adjacency[i, index[neighbor]] = weight / total
    mu = np.zeros((len(nodes), params["W1"].shape[0]))
    base = features @ params["W1"].T
    for _ in range(rounds):
        mu = np.maximum(base + (adjacency @ mu) @ params["W2"].T, 0.0)
    return {node: mu[index[node]] for node in nodes}


class TestEmbeddingRefresher:
    def split_stream(self, seed: int):
        transactions = random_transactions(seed)
        cut = int(len(transactions) * 0.7)
        return transactions[:cut], transactions[cut:]

    def test_propagate_matches_independent_dense_oracle(self):
        warmup, delta = self.split_stream(7)
        model = fitted_model(warmup)
        hbase = store_with_embeddings(model)
        refresher = EmbeddingRefresher(
            model, hbase, warmup_transactions=warmup, start_version=100
        )
        for transaction in delta:
            refresher.observe_transaction(transaction)
        report = refresher.refresh()
        assert report.version == 101
        oracle = dense_full_forward(
            model.params, build_network(warmup + delta),
            S2V_CONFIG.propagation_rounds,
        )
        assert report.refreshed
        for node in report.refreshed:
            stored = np.array(hbase.get(TABLE, node, EMBEDDINGS_FAMILY)["s2v"])
            assert np.allclose(stored, oracle[node], atol=1e-8), node

    def test_untouched_rows_stay_bit_unchanged(self):
        warmup, _ = self.split_stream(8)
        model = fitted_model(warmup)
        hbase = store_with_embeddings(model)
        before = snapshot_rows(hbase)
        refresher = EmbeddingRefresher(
            model, hbase, warmup_transactions=warmup, start_version=100
        )
        # One brand-new edge between two fresh accounts: only their
        # radius-(T-1) ball (just themselves here) may be rewritten.
        refresher.observe_transaction(make_txn(999, "fresh_a", "fresh_b", day=9))
        report = refresher.refresh()
        touched = set(report.refreshed)
        assert touched == {"fresh_a", "fresh_b"}
        after = snapshot_rows(hbase)
        for node, cells in before.items():
            if node not in touched:
                assert after[node] == cells, f"untouched row {node} was rewritten"

    def test_auto_refresh_threshold_triggers_pass(self):
        warmup, delta = self.split_stream(10)
        model = fitted_model(warmup)
        hbase = store_with_embeddings(model)
        refresher = EmbeddingRefresher(
            model, hbase,
            config=EmbeddingRefreshConfig(auto_refresh_threshold=4),
            warmup_transactions=warmup, start_version=100,
        )
        for transaction in delta:
            refresher.observe_transaction(transaction)
        assert refresher.refreshes >= 1
        assert len(refresher.queue) < 4

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        cut_fraction=st.floats(min_value=0.3, max_value=0.9),
    )
    def test_refresh_rewrites_only_the_ball_on_any_prefix(self, seed, cut_fraction):
        """For any seeded stream prefix, the re-embedded touched accounts
        match the dense full-network forward pass on the cumulative graph,
        and untouched accounts' rows are bit-unchanged."""
        transactions = random_transactions(seed, count=60)
        cut = max(1, int(len(transactions) * cut_fraction))
        warmup, delta = transactions[:cut], transactions[cut:]
        model = fitted_model(warmup)
        hbase = store_with_embeddings(model)
        before = snapshot_rows(hbase)
        refresher = EmbeddingRefresher(
            model, hbase, warmup_transactions=warmup, start_version=100
        )
        for transaction in delta:
            refresher.observe_transaction(transaction)
        report = refresher.refresh()
        if not delta:
            assert report.refreshed == []
            return
        oracle = dense_full_forward(
            model.params, build_network(transactions), S2V_CONFIG.propagation_rounds
        )
        touched = set(report.refreshed)
        for node in report.refreshed:
            stored = np.array(hbase.get(TABLE, node, EMBEDDINGS_FAMILY)["s2v"])
            assert np.allclose(stored, oracle[node], atol=1e-8), node
        after = snapshot_rows(hbase)
        for node, cells in before.items():
            if node not in touched:
                assert after[node] == cells

    @pytest.mark.determinism
    def test_refresh_is_deterministic(self, record_checksum):
        """The refreshed rows are a pure function of the stream (determinism
        tier: checksummed across PYTHONHASHSEED values)."""
        warmup, delta = self.split_stream(11)
        model = fitted_model(warmup)
        hbase = store_with_embeddings(model)
        refresher = EmbeddingRefresher(
            model, hbase, warmup_transactions=warmup, start_version=100
        )
        for transaction in delta:
            refresher.observe_transaction(transaction)
        report = refresher.refresh()
        payload = {
            "order": report.refreshed,
            "rows": {
                node: hbase.get(TABLE, node, EMBEDDINGS_FAMILY)["s2v"]
                for node in sorted(report.refreshed)
            },
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        record_checksum("refreshed_rows", digest)


class TestStreamingIntegration:
    def test_updater_forwards_to_refresher(self):
        transactions = random_transactions(12)
        warmup, delta = transactions[:40], transactions[40:]
        model = fitted_model(warmup)
        hbase = store_with_embeddings(model)
        refresher = EmbeddingRefresher(
            model, hbase, warmup_transactions=warmup, start_version=100
        )
        aggregator = SlidingWindowAggregator()
        updater = StreamingFeatureUpdater(
            aggregator, hbase, TABLE,
            start_version=100, embedding_refresher=refresher,
        )
        ingested = updater.observe_stream(delta)
        assert ingested == len(delta)
        assert refresher.events_observed == len(delta)
        assert len(refresher.queue) > 0
        report = refresher.refresh()
        assert report.refreshed
        # Both families now carry streaming writes: aggregates from the
        # updater's write-through, embeddings from the refresh pass.
        sample = delta[0].payer_id
        assert hbase.get(TABLE, sample, AGGREGATES_FAMILY)
        assert "s2v" in hbase.get(TABLE, sample, EMBEDDINGS_FAMILY)

    def test_a_request_ingests_like_its_transaction(self):
        """The Alipay hook hands the request itself to the engine and the
        refresher: the same stream ingested as requests and as transactions
        writes the same WAL and leaves the same engine and network."""
        world = generate_world(
            WorldConfig(
                profile=ProfileConfig(num_users=80, num_communities=4, seed=17),
                num_days=6,
                transactions_per_user_per_day=0.6,
                seed=17,
            )
        )
        stream = sorted(world.transactions, key=transaction_sort_key)
        cut = len(stream) * 2 // 5
        warmup, delta = stream[:cut], stream[cut:]
        model = fitted_model(warmup)
        config = EmbeddingRefreshConfig(weighting="amount", auto_refresh_threshold=6)
        sides = []
        for as_request in (True, False):
            hbase = store_with_embeddings(model)
            refresher = EmbeddingRefresher(
                model, hbase, config=config, warmup_transactions=warmup, start_version=100
            )
            updater = StreamingFeatureUpdater(
                SlidingWindowAggregator(), hbase, TABLE,
                start_version=100, embedding_refresher=refresher,
            )
            if as_request:
                ingested = [
                    updater.observe_request(TransactionRequest.from_transaction(txn))
                    for txn in delta
                ]
            else:
                ingested = [updater.observe_transaction(txn) for txn in delta]
            sides.append((ingested, hbase, updater.aggregator, refresher))
        (ingested, hbase, engine, refresher), (ingested_t, hbase_t, engine_t, refresher_t) = sides
        assert ingested == ingested_t and any(ingested)
        assert refresher.refreshes > 0 and refresher.refreshes == refresher_t.refreshes

        def log(client: HBaseClient):
            return [(e.row_key, e.version, e.values) for e in client.wal.entries()]

        assert log(hbase) == log(hbase_t)
        assert engine.stats() == engine_t.stats()
        network, network_t = refresher.network, refresher_t.network
        assert network.nodes() == network_t.nodes()
        assert sorted(network.edges()) == sorted(network_t.edges())
