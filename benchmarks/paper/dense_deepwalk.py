"""The dense model-average DeepWalk loop: Figure 10's A/B baseline.

``src/`` trains DeepWalk on the KunPeng cluster with the paper's sparse
pull/compute/push cycle (:class:`~repro.nrl.distributed.DistributedDeepWalk`).
This is the loop it is compared with: every round each worker pulls both full
embedding matrices, applies local SGD to a minibatch of its pair partition,
and the servers average the replicas
(:meth:`~repro.kunpeng.cluster.KunPengCluster.push_model_average`).
``benchmarks/bench_fig10_scalability.py`` holds the sparse loop to at least
5x fewer rows per round at recall within 0.02 of this one, the recall being
:func:`top1_neighbor_recall`.

:class:`DenseDeepWalk` materialises the walk corpus of the run's fixed walk
seed, so it trains on the same walks the sparse loop streams.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import EmbeddingError
from repro.graph.network import TransactionNetwork
from repro.graph.random_walk import RandomWalker
from repro.kunpeng.worker import WorkerNode
from repro.nrl.distributed import DistributedDeepWalk
from repro.nrl.embeddings import EmbeddingSet
from repro.nrl.word2vec import (
    build_negative_table,
    encode_walk_batch,
    generate_skipgram_pairs,
    sgns_batch_update,
)
from repro.rng import ensure_rng, spawn_child


class DenseDeepWalk(DistributedDeepWalk):
    """:class:`DistributedDeepWalk` trained by full-matrix pulls, local SGD
    and model averaging.  The vocabulary, the initial matrices and the rng
    draws are those of the sparse fit; only the training loop differs."""

    def fit(
        self,
        network: TransactionNetwork,
        *,
        node_labels: Optional[dict[str, int]] = None,
    ) -> "DenseDeepWalk":
        """Train node embeddings for the network on the KunPeng cluster."""
        if network.num_nodes == 0:
            raise EmbeddingError("cannot fit DistributedDeepWalk on an empty network")
        cfg = self.config
        self.walk_seed = int(spawn_child(self._rng, salt=11).integers(0, 2**63 - 1))
        self._walker = RandomWalker(network, cfg.walk, rng=ensure_rng(self.walk_seed))

        # 1. The dense loop materialises the corpus; the replayed walker
        #    yields the same batches the vocabulary count streams.
        walk_batches = list(self._replay_walker().iter_walk_batches())
        vocabulary, node_to_token = self._build_vocabulary(network)
        self.vocabulary_ = vocabulary
        table = build_negative_table(vocabulary.counts(), cfg.skipgram.negative_table_size)

        # 2. Initialise the embedding matrices, sharded row-wise on the servers.
        dimension = cfg.skipgram.dimension
        init_rng = spawn_child(self._rng, salt=13)
        w_in = (init_rng.random((len(vocabulary), dimension)) - 0.5) / dimension
        w_out = np.zeros((len(vocabulary), dimension))
        self.cluster.replace_parameter("w_in", w_in)
        self.cluster.replace_parameter("w_out", w_out)

        # 3. Train.
        pair_rng = spawn_child(self._rng, salt=17)
        self._fit_dense(walk_batches, node_to_token, table, pair_rng)

        final = self.cluster.pull_matrix("w_in")
        embeddings = EmbeddingSet(vocabulary.tokens(), final, name="deepwalk_distributed")
        self._embeddings = embeddings.subset(network.nodes())
        self._embeddings.name = "deepwalk_distributed"
        return self

    # ------------------------------------------------------------------
    def _fit_dense(
        self,
        walk_batches: List[np.ndarray],
        node_to_token: np.ndarray,
        negative_table: np.ndarray,
        pair_rng: np.random.Generator,
    ) -> None:
        """Model-average baseline: full-matrix pulls, local SGD, averaging."""
        cfg = self.config
        # Encode straight from the index batches (same mapping the sparse
        # stream uses), round-robin the walks across workers.
        encoded_walks: List[np.ndarray] = []
        for batch in walk_batches:
            encoded = encode_walk_batch(batch, node_to_token)
            encoded_walks.extend(row[row >= 0] for row in encoded)
        num_workers = len(self.cluster.workers)
        worker_pairs: List[Tuple[np.ndarray, np.ndarray]] = [
            generate_skipgram_pairs(encoded_walks[start::num_workers], cfg.skipgram.window)
            for start in range(num_workers)
        ]
        self.cluster.scatter_data([p[0].shape[0] for p in worker_pairs])

        total_rounds = cfg.skipgram.epochs * cfg.rounds_per_epoch
        for round_index in range(total_rounds):
            self.failure_injector.maybe_fail(round_index)
            self.failure_injector.heal()
            learning_rate = self._learning_rate(round_index, total_rounds)
            self.cluster.begin_round()
            replicas_in: List[np.ndarray] = []
            replicas_out: List[np.ndarray] = []
            for worker, (centers, contexts) in zip(self.cluster.workers, worker_pairs):
                if centers.size == 0:
                    continue
                local_in = self.cluster.pull_matrix("w_in")
                local_out = self.cluster.pull_matrix("w_out")
                self._dense_worker_round(
                    worker,
                    centers,
                    contexts,
                    local_in,
                    local_out,
                    negative_table,
                    learning_rate,
                    pair_rng,
                )
                replicas_in.append(local_in)
                replicas_out.append(local_out)
            if replicas_in:
                self.cluster.push_model_average("w_in", replicas_in)
                self.cluster.push_model_average("w_out", replicas_out)
            self.cluster.end_round()
            self.rounds_completed += 1

    def _dense_worker_round(
        self,
        worker: WorkerNode,
        centers: np.ndarray,
        contexts: np.ndarray,
        local_in: np.ndarray,
        local_out: np.ndarray,
        negative_table: np.ndarray,
        learning_rate: float,
        rng: np.random.Generator,
    ) -> None:
        """One worker's local pass over (a sample of) its pair partition."""
        cfg = self.config.skipgram

        def _step(_worker: WorkerNode) -> float:
            batch_size = min(cfg.batch_size, centers.shape[0])
            batch = rng.choice(centers.shape[0], size=batch_size, replace=False)
            negatives = negative_table[
                rng.integers(0, negative_table.shape[0], size=(batch_size, cfg.negatives))
            ]
            return sgns_batch_update(
                local_in, local_out, centers[batch], contexts[batch], negatives, learning_rate
            )

        loss = worker.run(
            _step, compute_units=float(min(cfg.batch_size, centers.shape[0]))
        )
        self.loss_history.append(loss)


def top1_neighbor_recall(embeddings: EmbeddingSet, labels: Mapping[str, object]) -> float:
    """Fraction of labelled nodes whose nearest embedding neighbour shares the label.

    The intrinsic quality metric used for dense/sparse DeepWalk A/B runs
    (recall@top-1): cosine nearest neighbour over all labelled nodes with a
    non-zero vector.  Raises if fewer than two such nodes exist.
    """
    nodes = [
        node
        for node in embeddings.node_ids()
        if node in labels and float(np.linalg.norm(embeddings[node])) > 0.0
    ]
    if len(nodes) < 2:
        raise EmbeddingError("top1_neighbor_recall needs at least two labelled nodes")
    vectors = embeddings.lookup(nodes)
    matrix = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)  # every norm is > 0
    similarity = matrix @ matrix.T
    np.fill_diagonal(similarity, -np.inf)
    top1 = np.argmax(similarity, axis=1)
    label_list = [labels[node] for node in nodes]
    hits = sum(1 for i, j in enumerate(top1) if label_list[i] == label_list[j])
    return hits / len(nodes)
