"""DeepWalk on the transaction network.

DeepWalk first transforms the topology of the transaction network into linear
node sequences with truncated random walks, then learns node embeddings by
running skip-gram with negative sampling over those sequences.  The paper
selects it "for its efficiency, effectiveness and simplicity" and because it
needs no labels — the topological information is extracted without being
influenced by the extreme label imbalance.

The paper's production configuration: walk length 50, number of samplings 100
(each node starts 100 walks), embedding dimension 32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.contracts import SEED, check_fields, checked
from repro.exceptions import EmbeddingError
from repro.graph.network import TransactionNetwork
from repro.graph.random_walk import RandomWalkConfig, RandomWalker
from repro.nrl.embeddings import EmbeddingSet
from repro.nrl.word2vec import SkipGramConfig, SkipGramTrainer
from repro.rng import SeedLike, ensure_rng, spawn_child


@dataclass(frozen=True)
class DeepWalkConfig:
    """Configuration of DeepWalk (walk generation + skip-gram)."""

    walk: RandomWalkConfig = field(default_factory=RandomWalkConfig)
    skipgram: SkipGramConfig = field(default_factory=SkipGramConfig)
    seed: Optional[int] = checked(SEED, None)

    def __post_init__(self) -> None:
        check_fields(self, EmbeddingError)

    @classmethod
    def fast(cls, *, dimension: int = 32, seed: Optional[int] = None) -> "DeepWalkConfig":
        """A reduced configuration for tests and laptop-scale benchmarks."""
        return cls(
            walk=RandomWalkConfig(walk_length=20, num_walks_per_node=8),
            skipgram=SkipGramConfig(dimension=dimension, epochs=1, window=4),
            seed=seed,
        )


class DeepWalk:
    """Unsupervised node-embedding model (random walks + skip-gram)."""

    def __init__(self, config: DeepWalkConfig | None = None, *, rng: SeedLike = None):
        self.config = config or DeepWalkConfig()
        self._rng = ensure_rng(self.config.seed if rng is None else rng)
        self._embeddings: Optional[EmbeddingSet] = None
        self._trainer: Optional[SkipGramTrainer] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        network: TransactionNetwork,
        *,
        node_labels: Optional[dict[str, int]] = None,
    ) -> "DeepWalk":
        """Learn embeddings for every node of ``network``.

        ``node_labels`` is accepted for interface compatibility but unused —
        DeepWalk is unsupervised by design.
        """
        if network.num_nodes == 0:
            raise EmbeddingError("cannot fit DeepWalk on an empty network")
        walker = RandomWalker(network, self.config.walk, rng=spawn_child(self._rng, salt=11))
        corpus = walker.generate()
        trainer = SkipGramTrainer(self.config.skipgram, rng=spawn_child(self._rng, salt=13))
        embeddings = trainer.fit(corpus)
        # Nodes that never appeared in a walk (isolated nodes) get zero vectors
        # so that downstream feature assembly always finds a row.
        self._embeddings = embeddings.subset(network.nodes())
        self._embeddings.name = "deepwalk"
        self._trainer = trainer
        return self

    def embeddings(self) -> EmbeddingSet:
        if self._embeddings is None:
            raise EmbeddingError("DeepWalk has not been fitted")
        return self._embeddings
