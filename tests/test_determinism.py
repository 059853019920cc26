"""Determinism-tagged checksum tests (the dynamic invariant sanitizer).

Every test here is marked ``@pytest.mark.determinism`` and records a
checksum of a deterministic artifact via the ``record_checksum`` fixture.
``scripts/run_determinism_check.py`` runs this tagged subset twice under
*different* ``PYTHONHASHSEED`` values and fails when any recorded checksum
differs — catching hash-order-dependent iteration that the static
``iteration-order`` lint rule cannot see (a set passed in or held by an
attribute, dict keys built from hashing, ...).

The tests also assert within-process repeatability, so they pull their
weight in a plain tier-1 run too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datagen import generate_world
from repro.datagen.profiles import ProfileConfig
from repro.datagen.fraud import TypologyConfig
from repro.datagen.stream import ScalableWorldStream, WorldStream
from repro.datagen.transactions import WorldConfig
from repro.features.aggregation import SECONDS_PER_HOUR, AggregationConfig
from repro.features.streaming import SlidingWindowAggregator
from repro.graph.random_walk import RandomWalkConfig, RandomWalker
from repro.hbase.client import HBaseClient
from repro.models.gbdt import GradientBoostingClassifier
from repro.rng import ensure_rng
from repro.serving.streaming import StreamingFeatureUpdater
from tests.conftest import induced_subgraph

pytestmark = pytest.mark.determinism


def _small_config(seed: int = 17) -> WorldConfig:
    return WorldConfig(
        profile=ProfileConfig(
            num_users=80,
            num_communities=4,
            fraudster_fraction=0.04,
            seed=seed,
        ),
        num_days=6,
        transactions_per_user_per_day=0.6,
        seed=seed,
    )


def _transaction_digest(transactions) -> str:
    hasher = hashlib.sha256()
    for txn in transactions:
        hasher.update(
            (
                f"{txn.transaction_id}|{txn.day}|{txn.hour}|{txn.payer_id}|"
                f"{txn.payee_id}|{txn.amount!r}|{txn.channel.value}|"
                f"{txn.device_id}|{int(txn.is_fraud)}"
            ).encode()
        )
    return hasher.hexdigest()


def test_world_generation_checksum(record_checksum):
    """Materialized generation is bit-stable at a fixed seed."""
    first = generate_world(_small_config())
    second = generate_world(_small_config())
    digest = _transaction_digest(first.transactions)
    assert digest == _transaction_digest(second.transactions)
    record_checksum("world-transactions", digest)
    record_checksum(
        "world-profiles",
        hashlib.sha256(
            "|".join(p.user_id for p in first.profiles).encode()
        ).hexdigest(),
    )


def test_streamed_world_matches_materialized(record_checksum):
    """The streaming generator agrees bit-for-bit with materialization."""
    streamed = list(WorldStream(_small_config()).events())
    materialized = generate_world(_small_config()).transactions
    digest = _transaction_digest(streamed)
    assert digest == _transaction_digest(materialized)
    record_checksum("stream-vs-materialized", digest)


def test_typology_world_checksums(record_checksum):
    """The one typology suite plans bit-stably behind either stream."""

    def config() -> WorldConfig:
        return WorldConfig(
            profile=ProfileConfig(
                num_users=200, num_communities=4, fraudster_fraction=0.1, seed=17
            ),
            num_days=8,
            transactions_per_user_per_day=0.6,
            typologies=TypologyConfig(),
            seed=17,
        )

    for name, stream_class in (("world", WorldStream), ("scalable", ScalableWorldStream)):
        transactions = list(stream_class(config()))
        tags = "|".join(txn.fraud_typology for txn in transactions)
        assert tags.strip("|"), "no tagged fraud in the probe world"
        digest = hashlib.sha256((_transaction_digest(transactions) + tags).encode()).hexdigest()
        again = list(stream_class(config()))
        assert again == transactions
        record_checksum(f"typology-{name}-stream", digest)


def test_feature_matrix_checksum(feature_matrices, record_checksum):
    """The session slice's basic-feature matrices are byte-stable."""
    train, test = feature_matrices
    record_checksum(
        "train-features",
        hashlib.sha256(np.ascontiguousarray(train.values).tobytes()).hexdigest(),
    )
    record_checksum(
        "test-features",
        hashlib.sha256(np.ascontiguousarray(test.values).tobytes()).hexdigest(),
    )
    record_checksum(
        "feature-names", hashlib.sha256("|".join(train.feature_names).encode()).hexdigest()
    )


def test_walk_corpus_checksum(network, record_checksum):
    """Seeded random-walk corpora are reproducible walk-for-walk."""
    config = RandomWalkConfig(num_walks_per_node=2, walk_length=8)
    walks_a = RandomWalker(network, config, rng=ensure_rng(23)).generate()
    walks_b = RandomWalker(network, config, rng=ensure_rng(23)).generate()
    assert walks_a == walks_b
    digest = hashlib.sha256(
        "\n".join(" ".join(walk) for walk in walks_a).encode()
    ).hexdigest()
    record_checksum("walk-corpus", digest)


def test_subgraph_node_order_checksum(network, record_checksum):
    """A sub-network's node index follows the caller's order, not hashing."""
    wanted = network.nodes()[::3]
    sub = induced_subgraph(network, wanted)
    assert sub.nodes() == wanted
    digest = hashlib.sha256(
        ("|".join(sub.nodes()) + "\n" + repr(list(sub.edges()))).encode()
    ).hexdigest()
    record_checksum("subgraph-nodes", digest)


def test_refresh_sweep_wal_order_checksum(record_checksum):
    """A refresh sweep re-anchors pruned accounts in an order the WAL keeps,
    so that order must not depend on hashing."""
    hbase = HBaseClient()
    hbase.create_feature_store()
    engine = SlidingWindowAggregator(AggregationConfig(window_seconds=SECONDS_PER_HOUR))
    engine.prune_interval = 3
    updater = StreamingFeatureUpdater(
        engine, hbase, refresh_interval_seconds=float(SECONDS_PER_HOUR)
    )
    for transaction in generate_world(_small_config()).transactions:
        updater.observe_transaction(transaction)
    assert updater.refreshes > 0
    digest = hashlib.sha256(
        "|".join(f"{e.row_key}@{e.version}" for e in hbase.wal.entries()).encode()
    ).hexdigest()
    record_checksum("refresh-sweep-wal-order", digest)


def test_gbdt_predictions_checksum(small_classification_data, record_checksum):
    """Same-seed GBDT training lands on identical predictions."""
    features, labels = small_classification_data
    model = GradientBoostingClassifier(
        num_trees=8, max_depth=3, learning_rate=0.3, seed=5
    ).fit(features, labels)
    scores = model.predict_proba(features)
    record_checksum(
        "gbdt-scores", hashlib.sha256(np.ascontiguousarray(scores).tobytes()).hexdigest()
    )
