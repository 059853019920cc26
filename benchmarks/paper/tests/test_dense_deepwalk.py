"""Tests of the dense model-average DeepWalk baseline
(``benchmarks/paper/dense_deepwalk.py``): it still trains, it reproduces the
``mode="dense"`` loop ``DistributedDeepWalk`` ran before the loop moved here,
and the sparse pull/compute/push loop of ``src/`` beats it on traffic at
equal quality."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from benchmarks.paper.cost_model import deepwalk_round_volume
from benchmarks.paper.dense_deepwalk import DenseDeepWalk, top1_neighbor_recall
from repro.graph.random_walk import RandomWalkConfig
from repro.kunpeng import ClusterConfig
from repro.nrl.distributed import DistributedDeepWalk, DistributedDeepWalkConfig
from repro.nrl.word2vec import SkipGramConfig

#: Training loop per A/B arm.
LOOPS = {"dense": DenseDeepWalk, "sparse": DistributedDeepWalk}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestDistributedTraining:
    def test_dense_mode_still_available(self, network):
        """The digests were recorded from ``DistributedDeepWalk`` with
        ``mode="dense"`` and this configuration, before the dense loop moved
        out of ``src/``."""
        config = DistributedDeepWalkConfig(
            cluster=ClusterConfig(num_machines=4),
            walk=RandomWalkConfig(walk_length=8, num_walks_per_node=2),
            skipgram=SkipGramConfig(dimension=8, window=3, epochs=1, batch_size=512),
            rounds_per_epoch=2,
            seed=0,
        )
        model = DenseDeepWalk(config).fit(network)
        embeddings = model.embeddings()
        assert len(embeddings) == network.num_nodes
        assert model.loss_history and np.isfinite(model.loss_history).all()
        matrix = np.ascontiguousarray(embeddings.lookup(embeddings.node_ids()), dtype=np.float64)
        assert _digest(matrix.tobytes()) == "13e5fcb3c95110e0"
        assert _digest("\n".join(embeddings.node_ids()).encode()) == "3475028fbc2a489c"
        losses = np.asarray(model.loss_history, dtype=np.float64)
        assert _digest(losses.tobytes()) == "f8d423bc8b7d2175"
        summary = sorted(model.workload_summary().items())
        assert _digest(repr(summary).encode()) == "b1b2851d6fe7d21a"

    def test_invalid_mode_rejected(self):
        """The training loop is chosen by class; the config has no ``mode``."""
        with pytest.raises(TypeError):
            DistributedDeepWalkConfig(mode="dense")  # type: ignore[call-arg]

    def test_sparse_transfers_fewer_values_per_round_than_dense(self, network):
        summaries = {}
        for mode, loop in LOOPS.items():
            config = DistributedDeepWalkConfig(
                cluster=ClusterConfig(num_machines=4),
                walk=RandomWalkConfig(walk_length=10, num_walks_per_node=2),
                skipgram=SkipGramConfig(
                    dimension=8, window=3, epochs=1, batch_size=128, negatives=4
                ),
                rounds_per_epoch=3,
                seed=7,
            )
            model = loop(config).fit(network)
            summaries[mode] = model.workload_summary()
            assert summaries[mode]["rounds_recorded"] == model.rounds_completed
        assert (
            summaries["sparse"]["values_per_round"]
            < summaries["dense"]["values_per_round"] / 2
        )
        # and the analytic round-volume model agrees on the direction
        vocab_rows = int(network.num_nodes)
        assert deepwalk_round_volume(
            vocab_rows, 2, mode="sparse", batch_pairs=128, negatives=4
        ) < deepwalk_round_volume(vocab_rows, 2, mode="dense")

    def test_sparse_recall_matches_dense_on_fraud_network(self, world, network):
        """Sparse pull/push must not cost embedding quality vs model averaging."""
        communities = {
            node: world.profiles_by_id[node].community
            for node in network.nodes()
            if node in world.profiles_by_id
        }
        recalls = {}
        for mode, loop in LOOPS.items():
            config = DistributedDeepWalkConfig(
                cluster=ClusterConfig(num_machines=4),
                walk=RandomWalkConfig(walk_length=20, num_walks_per_node=3, batch_size=64),
                skipgram=SkipGramConfig(
                    dimension=16, window=4, epochs=8, batch_size=1024, negatives=4
                ),
                rounds_per_epoch=100,
                seed=2,
            )
            model = loop(config).fit(network)
            assert np.isfinite(model.loss_history).all()
            recalls[mode] = top1_neighbor_recall(model.embeddings(), communities)
        # both modes must capture community structure far beyond the 1/8 chance
        # level of the fixture's 8 communities
        assert min(recalls.values()) > 0.7
        assert recalls["sparse"] >= recalls["dense"] - 0.05
