"""Shared fixtures.

The expensive artefacts (a synthetic world, its T+1 slice, the transaction
network and the extracted feature matrices) are built once per test session
and shared, so the suite stays fast while every layer is exercised against
realistic data.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional

import numpy as np
import pytest

from repro.datagen import generate_world
from repro.datagen.datasets import DatasetBuilder
from repro.datagen.profiles import ProfileConfig
from repro.datagen.schema import Transaction, transfer_value_error
from repro.datagen.transactions import WorldConfig
from repro.features.basic import BasicFeatureExtractor
from repro.graph.builder import build_network
from repro.graph.network import TransactionNetwork


TEST_NETWORK_DAYS = 18
TEST_TRAIN_DAYS = 6


def small_world_config(
    *,
    num_users: int = 600,
    num_days: int = 40,
    seed: int = 7,
    fraudster_fraction: float = 0.03,
) -> WorldConfig:
    """A compact world configuration for tests.

    Uses shorter network/train windows than the paper so that a full T+1
    evaluation fits in well under a second.  Callers pair it with
    ``DatasetBuilder(world, network_days=25, train_days=7)``.
    """
    return WorldConfig(
        profile=ProfileConfig(
            num_users=num_users,
            num_communities=8,
            fraudster_fraction=fraudster_fraction,
            seed=seed,
        ),
        num_days=num_days,
        transactions_per_user_per_day=0.5,
        seed=seed,
    )


def induced_subgraph(network: TransactionNetwork, nodes: Iterable[str]) -> TransactionNetwork:
    """The subgraph of ``network`` induced by ``nodes`` (unknown ids are
    ignored), its node index in the caller's first-seen order."""
    known = set(network.nodes())
    keep = dict.fromkeys(n for n in nodes if n in known)
    sub = TransactionNetwork()
    for node in keep:
        sub.add_node(node)
    for payer in keep:
        for payee, weight in network.successors(payer).items():
            if payee in keep:
                sub.add_edge(payer, payee, weight)
    return sub


def validate_transaction(txn: Transaction) -> Optional[str]:
    """The schema invariant a generated transaction breaks, or None."""
    value_error = transfer_value_error(txn.amount, txn.ip_risk_score)
    if value_error is not None:
        return value_error
    if not 0 <= txn.hour <= 23:
        return f"hour must be in [0, 23], got {txn.hour}"
    if txn.payer_id == txn.payee_id:
        return "self transfers are not allowed"
    if txn.day < 0:
        return f"day must be non-negative, got {txn.day}"
    if txn.label_available_day < txn.day:
        return "labels cannot become available before the transaction day"
    return None


# ---------------------------------------------------------------------------
# Determinism sanitizer support (scripts/run_determinism_check.py)
# ---------------------------------------------------------------------------

#: ``"<test nodeid>::<name>" -> checksum`` recorded by the ``record_checksum``
#: fixture during this session.
_RECORDED_CHECKSUMS: Dict[str, str] = {}


@pytest.fixture
def record_checksum(request):
    """Record named checksums for the determinism sanitizer.

    Tests marked ``@pytest.mark.determinism`` call
    ``record_checksum("name", digest)`` with a digest of their
    deterministic output.  When ``REPRO_CHECKSUM_FILE`` is set (by
    ``scripts/run_determinism_check.py``), every recorded value is dumped
    there at session end; the sanitizer runs the tagged subset twice under
    different ``PYTHONHASHSEED`` values and fails if any checksum differs —
    the dynamic complement of the static ``iteration-order`` lint rule.
    """

    def _record(name: str, value) -> None:
        _RECORDED_CHECKSUMS[f"{request.node.nodeid}::{name}"] = str(value)

    return _record


def pytest_sessionfinish(session, exitstatus):
    out = os.environ.get("REPRO_CHECKSUM_FILE")
    if out:
        payload = dict(sorted(_RECORDED_CHECKSUMS.items()))
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="session")
def world():
    """A small but fully featured synthetic world (session-scoped)."""
    config = WorldConfig(
        profile=ProfileConfig(
            num_users=500,
            num_communities=8,
            fraudster_fraction=0.035,
            seed=101,
        ),
        num_days=30,
        transactions_per_user_per_day=0.5,
        seed=101,
    )
    return generate_world(config)


@pytest.fixture(scope="session")
def dataset(world):
    """One T+1 dataset slice of the session world."""
    builder = DatasetBuilder(world, network_days=TEST_NETWORK_DAYS, train_days=TEST_TRAIN_DAYS)
    return builder.build(builder.earliest_test_day())


@pytest.fixture(scope="session")
def network(dataset):
    """Transaction network built from the slice's 18-day history."""
    return build_network(dataset.network_transactions)


@pytest.fixture(scope="session")
def feature_matrices(world, dataset):
    """(train, test) basic-feature matrices of the session slice."""
    extractor = BasicFeatureExtractor(world.profiles_by_id)
    train = extractor.extract(dataset.train_transactions)
    test = extractor.extract(dataset.test_transactions)
    return train, test


@pytest.fixture(scope="session")
def small_classification_data():
    """A tiny deterministic binary classification problem with real signal."""
    rng = np.random.default_rng(7)
    num_rows = 600
    features = rng.normal(size=(num_rows, 6))
    logits = 1.8 * features[:, 0] - 1.2 * features[:, 1] + 0.6 * features[:, 2] * features[:, 3]
    labels = (logits + rng.normal(scale=0.5, size=num_rows) > 0.8).astype(float)
    return features, labels
