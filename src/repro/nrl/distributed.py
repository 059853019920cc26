"""Distributed DeepWalk on the KunPeng parameter server.

The paper reimplements word2vec on KunPeng because no public NRL
implementation scales to industrial transaction networks.  The division of
labour (Section 4.3):

* worker nodes receive the node sequences from random walks; every iteration
  each worker reads a batch of sequences, generates negative samples, pulls
  the embeddings referenced by the batch from the servers, applies gradient
  descent and pushes the row-sparse updates back,
* server nodes store row-range shards of the embedding matrices, answer pull
  requests and apply the workers' updates.

:class:`DistributedDeepWalk` reproduces that pull/compute/push cycle on the
simulated :class:`~repro.kunpeng.cluster.KunPengCluster`.  Walks are
*streamed* in batches from the vectorised walk engine (the corpus is never
materialised), encoded into skip-gram pair streams, and every round each
worker pulls only the rows its minibatch touches (centers for ``w_in``,
contexts ∪ negatives for ``w_out``), computes sparse gradients and pushes
them back to the owning shards.

The loop honours worker failure injection with automatic recovery and
records per-round communication, which the cost model converts into Figure
10's timings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.contracts import PROBABILITY, SEED, check_fields, checked, integer, one_of
from repro.exceptions import EmbeddingError
from repro.graph.network import TransactionNetwork
from repro.graph.random_walk import RandomWalkConfig, RandomWalker
from repro.kunpeng.cluster import BACKENDS, ClusterConfig, KunPengCluster
from repro.kunpeng.failover import FailureInjector
from repro.kunpeng.worker import WorkerNode
from repro.logging_utils import get_logger
from repro.nrl.embeddings import EmbeddingSet
from repro.nrl.word2vec import (
    SkipGramConfig,
    SparseBatch,
    Vocabulary,
    build_negative_table,
    encode_walk_batch,
    generate_skipgram_pairs_batch,
    sgns_sparse_step,
)
from repro.rng import SeedLike, ensure_rng, spawn_child

logger = get_logger("nrl.distributed")


@dataclass(frozen=True)
class DistributedDeepWalkConfig:
    """Configuration of the PS-distributed DeepWalk run."""

    cluster: ClusterConfig = field(default_factory=lambda: ClusterConfig(num_machines=4))
    walk: RandomWalkConfig = field(default_factory=RandomWalkConfig)
    skipgram: SkipGramConfig = field(default_factory=SkipGramConfig)
    #: Synchronous rounds per epoch; each round every worker processes one
    #: minibatch of ``skipgram.batch_size`` pairs.
    rounds_per_epoch: int = checked(integer(1), 5)
    #: Probability that a worker crashes before a round (fault-tolerance tests).
    failure_probability: float = checked(PROBABILITY, 0.0)
    #: PS backend: ``"inline"`` (in-process simulation) or ``"process"``
    #: (real shard processes over shared memory); results are equivalent.
    backend: str = checked(one_of(BACKENDS), "inline")
    seed: Optional[int] = checked(SEED, None)

    def __post_init__(self) -> None:
        check_fields(self, EmbeddingError)


class _PairBuffer:
    """FIFO of (center, context) chunks feeding one worker's minibatches.

    Chunks are consumed through a read offset so a take() only copies the
    pairs it hands out, never the (much larger) remaining stream.
    """

    def __init__(self) -> None:
        self._chunks: deque[Tuple[np.ndarray, np.ndarray]] = deque()
        self._offset = 0  # consumed prefix of the leftmost chunk
        self.size = 0

    def add(self, centers: np.ndarray, contexts: np.ndarray) -> None:
        self._chunks.append((centers, contexts))
        self.size += centers.shape[0]

    def take(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Pop up to ``count`` pairs in stream order."""
        taken_c: List[np.ndarray] = []
        taken_x: List[np.ndarray] = []
        remaining = count
        while remaining > 0 and self._chunks:
            centers, contexts = self._chunks[0]
            step = min(centers.shape[0] - self._offset, remaining)
            taken_c.append(centers[self._offset : self._offset + step])
            taken_x.append(contexts[self._offset : self._offset + step])
            self._offset += step
            remaining -= step
            self.size -= step
            if self._offset == centers.shape[0]:
                self._chunks.popleft()
                self._offset = 0
        if not taken_c:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(taken_c), np.concatenate(taken_x)


class DistributedDeepWalk:
    """DeepWalk trained with data parallelism on the KunPeng cluster."""

    def __init__(self, config: DistributedDeepWalkConfig | None = None, *, rng: SeedLike = None):
        self.config = config or DistributedDeepWalkConfig()
        self._rng = ensure_rng(self.config.seed if rng is None else rng)
        self.cluster = KunPengCluster(self.config.cluster, backend=self.config.backend)
        self.failure_injector = FailureInjector(
            self.cluster,
            failure_probability=self.config.failure_probability,
            rng=spawn_child(self._rng, salt=41),
        )
        self._embeddings: Optional[EmbeddingSet] = None
        self.rounds_completed = 0
        self.loss_history: List[float] = []
        #: Integer seed of the walk stream; fixed at :meth:`fit` time so the
        #: corpus can be replayed (tests, dense/sparse A/B on equal data).
        self.walk_seed: Optional[int] = None
        self.vocabulary_: Optional[Vocabulary] = None
        self._walker: Optional[RandomWalker] = None

    # ------------------------------------------------------------------
    def _replay_walker(self) -> RandomWalker:
        """A fresh walker over the run's fixed walk stream (shared CSR arrays)."""
        assert self._walker is not None and self.walk_seed is not None
        return self._walker.reseeded(ensure_rng(self.walk_seed))

    # ------------------------------------------------------------------
    def fit(
        self,
        network: TransactionNetwork,
        *,
        node_labels: Optional[dict[str, int]] = None,
    ) -> "DistributedDeepWalk":
        """Train node embeddings for the network on the KunPeng cluster."""
        if network.num_nodes == 0:
            raise EmbeddingError("cannot fit DistributedDeepWalk on an empty network")
        cfg = self.config
        self.walk_seed = int(spawn_child(self._rng, salt=11).integers(0, 2**63 - 1))
        self._walker = RandomWalker(network, cfg.walk, rng=ensure_rng(self.walk_seed))

        # 1. Stream the walk corpus once to build the vocabulary; the
        #    configured min_count pruning applies exactly as in the
        #    single-machine SkipGramTrainer path.
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
        self._fit_sparse(network, node_to_token, table, spawn_child(self._rng, salt=17))

        final = self.cluster.pull_matrix("w_in")
        embeddings = EmbeddingSet(vocabulary.tokens(), final, name="deepwalk_distributed")
        self._embeddings = embeddings.subset(network.nodes())
        self._embeddings.name = "deepwalk_distributed"
        return self

    # ------------------------------------------------------------------
    def _build_vocabulary(self, network: TransactionNetwork) -> Tuple[Vocabulary, np.ndarray]:
        """Count walk tokens in one streaming pass and prune by min_count.

        Returns the vocabulary plus the ``node index -> vocabulary index`` map
        used to encode walk batches (``-1`` marks pruned nodes).
        """
        counts = np.zeros(network.num_nodes, dtype=np.int64)
        for batch in self._replay_walker().iter_walk_batches():
            flat = batch[batch >= 0]
            counts += np.bincount(flat, minlength=network.num_nodes)
        kept = np.flatnonzero(counts >= self.config.skipgram.min_count)
        if kept.size == 0:
            raise EmbeddingError("corpus produced an empty vocabulary")
        vocabulary = Vocabulary()
        for index in kept:
            vocabulary.add(network.node_at(int(index)), int(counts[index]))
        node_to_token = np.full(network.num_nodes, -1, dtype=np.int64)
        node_to_token[kept] = np.arange(kept.size)
        return vocabulary, node_to_token

    def _pair_stream(self, node_to_token: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Endless stream of encoded (centers, contexts) chunks.

        Cycles over the fixed walk stream (same corpus every epoch) without
        ever holding more than one walk batch.
        Pairs are shuffled within each chunk: the batched pair generator groups
        pairs by window offset, which would otherwise feed minibatches long
        runs of identical-offset, same-neighbourhood pairs.
        """
        window = self.config.skipgram.window
        shuffle_rng = spawn_child(self._rng, salt=19)
        while True:
            produced = False
            for batch in self._replay_walker().iter_walk_batches():
                encoded = encode_walk_batch(batch, node_to_token)
                centers, contexts = generate_skipgram_pairs_batch(encoded, window)
                if centers.size:
                    produced = True
                    order = shuffle_rng.permutation(centers.shape[0])
                    yield centers[order], contexts[order]
            if not produced:
                raise EmbeddingError("corpus produced no skip-gram pairs")

    def _learning_rate(self, round_index: int, total_rounds: int) -> float:
        cfg = self.config.skipgram
        progress = round_index / max(total_rounds, 1)
        return max(cfg.min_learning_rate, cfg.learning_rate * (1.0 - progress))

    # ------------------------------------------------------------------
    def _fit_sparse(
        self,
        network: TransactionNetwork,
        node_to_token: np.ndarray,
        negative_table: np.ndarray,
        pair_rng: np.random.Generator,
    ) -> None:
        """The paper's loop: stream pairs, pull referenced rows, push updates."""
        cfg = self.config
        batch_size = cfg.skipgram.batch_size
        stream = self._pair_stream(node_to_token)
        buffers = [_PairBuffer() for _ in self.cluster.workers]
        total_rounds = cfg.skipgram.epochs * cfg.rounds_per_epoch
        self.cluster.scatter_data(
            [network.num_nodes * cfg.walk.num_walks_per_node // len(self.cluster.workers)]
            * len(self.cluster.workers)
        )

        for round_index in range(total_rounds):
            self.failure_injector.maybe_fail(round_index)
            self.failure_injector.heal()
            learning_rate = self._learning_rate(round_index, total_rounds)
            self.cluster.begin_round()
            for worker, buffer in zip(self.cluster.workers, buffers):
                while buffer.size < batch_size:
                    centers, contexts = next(stream)
                    buffer.add(centers, contexts)
                centers, contexts = buffer.take(batch_size)
                negatives = negative_table[
                    pair_rng.integers(
                        0, negative_table.shape[0], size=(centers.shape[0], cfg.skipgram.negatives)
                    )
                ]
                loss = self._sparse_worker_step(
                    worker, centers, contexts, negatives, learning_rate
                )
                self.loss_history.append(loss)
            self.cluster.end_round()
            self.rounds_completed += 1

    def _sparse_worker_step(
        self,
        worker: WorkerNode,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
        learning_rate: float,
    ) -> float:
        """One pull/compute/push cycle for one worker's minibatch."""
        batch = SparseBatch.from_pairs(centers, contexts, negatives)

        def _step(_worker: WorkerNode) -> float:
            v_in = self.cluster.pull_row_block("w_in", batch.rows_in)
            v_out = self.cluster.pull_row_block("w_out", batch.rows_out)
            grad_in, grad_out, loss = sgns_sparse_step(v_in, v_out, batch)
            self.cluster.push_row_block(
                "w_in", batch.rows_in, grad_in, learning_rate=learning_rate
            )
            self.cluster.push_row_block(
                "w_out", batch.rows_out, grad_out, learning_rate=learning_rate
            )
            return loss

        return worker.run(_step, compute_units=float(centers.shape[0]))

    # ------------------------------------------------------------------
    def embeddings(self) -> EmbeddingSet:
        """The trained embedding set (raises before :meth:`fit`)."""
        if self._embeddings is None:
            raise EmbeddingError("DistributedDeepWalk has not been fitted")
        return self._embeddings

    def close(self) -> None:
        """Release the cluster backend (shard processes, shared memory)."""
        self.cluster.close()

    def workload_summary(self) -> Dict[str, float]:
        """Compute/communication totals of the finished run (cost-model input)."""
        return self.cluster.workload_summary()
