"""Fraud-ring analysis with the transaction network and node embeddings.

The paper motivates aggregated (graph) features with the observation that
about 70 % of fraudsters repeat their behaviour, so the victims of one
fraudster "gather" around the fraudster node as 2-hop neighbours (Figure 2).
This example quantifies that structure on a synthetic world:

* the gathering coefficient of victim sets around their fraudster,
* how DeepWalk embeddings separate high-risk (ring) communities from the rest,
* the MaxCompute MapReduce job that builds the edge list, and extraction of
  explicit IF/THEN rules from a C5.0 tree (a Table 1 baseline, imported from
  ``benchmarks/paper``) for analyst review.

Run from the repository root with:  PYTHONPATH=src python -m examples.fraud_ring_analysis
"""

from __future__ import annotations

import numpy as np

from benchmarks.paper.c45 import C45Classifier
from repro.datagen import generate_world
from repro.datagen.datasets import DatasetBuilder
from repro.datagen.profiles import ProfileConfig
from repro.datagen.transactions import WorldConfig
from repro.features.basic import BasicFeatureExtractor
from repro.graph.builder import build_network
from repro.graph.metrics import degree_statistics, gathering_coefficient
from repro.maxcompute import MaxComputeClient
from repro.maxcompute.mapreduce import transaction_edge_job
from repro.models import extract_rules
from repro.nrl import DeepWalk, DeepWalkConfig


def main() -> None:
    print("1. Generating a world with fraud rings ...")
    world = generate_world(
        WorldConfig(
            profile=ProfileConfig(num_users=1000, num_communities=12, fraudster_fraction=0.03, seed=23),
            num_days=40,
            transactions_per_user_per_day=0.45,
            seed=23,
        )
    )
    builder = DatasetBuilder(world, network_days=25, train_days=7)
    dataset = builder.build(builder.earliest_test_day())

    print("2. Building the transaction network via the MaxCompute MapReduce job ...")
    client = MaxComputeClient()
    client.load_records("transactions", [t.to_row() for t in dataset.network_transactions])
    job_result = client.submit_mapreduce(transaction_edge_job(), "transactions", result_table="edges")
    print(f"   MapReduce stats: {job_result.stats}")
    network = build_network(dataset.network_transactions)
    print(f"   network: {network.num_nodes} nodes, {network.num_edges} edges")
    print(f"   degrees: {degree_statistics(network)}")

    print("3. Measuring the 'gathering' structure around repeat fraudsters ...")
    victims_by_fraudster: dict[str, set[str]] = {}
    for txn in dataset.network_transactions:
        if txn.is_fraud:
            victims_by_fraudster.setdefault(txn.payee_id, set()).add(txn.payer_id)
    repeat = {k: v for k, v in victims_by_fraudster.items() if len(v) >= 2}
    coefficient = gathering_coefficient(network, repeat)
    print(f"   fraudsters with >= 2 victims in the window: {len(repeat)}")
    print(f"   gathering coefficient (victims sharing a neighbour): {coefficient:.2f}")

    print("4. Checking that DeepWalk embeddings separate ring communities ...")
    embeddings = DeepWalk(DeepWalkConfig.fast(dimension=16, seed=1)).fit(network).embeddings()
    by_ring: dict[bool, list[np.ndarray]] = {True: [], False: []}
    for profile in world.profiles:
        if profile.user_id in embeddings:
            by_ring[profile.community % 4 == 0].append(embeddings[profile.user_id])
    ring_centroid = np.mean(by_ring[True], axis=0)
    other_centroid = np.mean(by_ring[False], axis=0)
    ring_cos = [
        float(np.dot(v, ring_centroid) / (np.linalg.norm(v) * np.linalg.norm(ring_centroid) + 1e-12))
        for v in by_ring[True][:200]
    ]
    cross_cos = [
        float(np.dot(v, other_centroid) / (np.linalg.norm(v) * np.linalg.norm(other_centroid) + 1e-12))
        for v in by_ring[True][:200]
    ]
    print(f"   ring members vs ring centroid   : mean cosine {np.mean(ring_cos):.2f}")
    print(f"   ring members vs other centroid  : mean cosine {np.mean(cross_cos):.2f}")

    print("5. Extracting reviewable IF/THEN rules from a C5.0 tree ...")
    extractor = BasicFeatureExtractor(world.profiles_by_id)
    train = extractor.extract(dataset.train_transactions)
    tree = C45Classifier(max_depth=4).fit(train.values, train.labels)
    rules = extract_rules(tree.tree_)
    risky = rules.high_risk_rules(min_probability=0.3)
    print(f"   extracted {len(rules)} rules, {len(risky)} flag elevated fraud risk; examples:")
    for rule in risky[:3]:
        print("   -", rule.describe(train.feature_names))


if __name__ == "__main__":
    main()
