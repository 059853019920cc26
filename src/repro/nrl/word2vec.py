"""Skip-gram with negative sampling (word2vec) on NumPy.

The paper's distributed DeepWalk reimplements word2vec on the KunPeng
parameter-server platform: workers read batches of node sequences, generate
negative samples, pull the relevant embeddings, apply gradient descent and
push the updates back.  This module provides the exact computational core that
both the single-machine :class:`~repro.nrl.deepwalk.DeepWalk` model and the
PS-distributed driver (:mod:`repro.nrl.distributed`) share:

* :class:`Vocabulary` — token/index mapping with unigram counts,
* skip-gram pair generation from linear node sequences,
* a unigram^0.75 negative-sampling table,
* dense mini-batch SGNS updates (in place) and sparse gradient computation
  (for the pull/compute/push cycle of the parameter server).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import EmbeddingError
from repro.nrl.embeddings import EmbeddingSet
from repro.numerics import scatter_add_rows, sigmoid
from repro.rng import SeedLike, ensure_rng


class Vocabulary:
    """Token vocabulary with occurrence counts."""

    def __init__(self) -> None:
        self._token_index: Dict[str, int] = {}
        self._tokens: List[str] = []
        self._counts: List[int] = []

    def add(self, token: str, count: int = 1) -> int:
        index = self._token_index.get(token)
        if index is None:
            index = len(self._tokens)
            self._token_index[token] = index
            self._tokens.append(token)
            self._counts.append(0)
        self._counts[index] += count
        return index

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._token_index

    def index(self, token: str) -> int:
        try:
            return self._token_index[token]
        except KeyError as exc:
            raise EmbeddingError(f"token {token!r} not in vocabulary") from exc

    def token(self, index: int) -> str:
        return self._tokens[index]

    def tokens(self) -> List[str]:
        return list(self._tokens)

    def counts(self) -> np.ndarray:
        return np.array(self._counts, dtype=np.float64)

    def encode(self, sequence: Sequence[str]) -> np.ndarray:
        """Encode a token sequence to indices, skipping unknown tokens."""
        return np.array(
            [self._token_index[t] for t in sequence if t in self._token_index],
            dtype=np.int64,
        )


def build_vocabulary(corpus: Iterable[Sequence[str]], *, min_count: int = 1) -> Vocabulary:
    """Build a vocabulary from a corpus of token sequences."""
    counts: Dict[str, int] = {}
    for sentence in corpus:
        for token in sentence:
            counts[token] = counts.get(token, 0) + 1
    vocabulary = Vocabulary()
    for token, count in counts.items():
        if count >= min_count:
            vocabulary.add(token, count)
    if len(vocabulary) == 0:
        raise EmbeddingError("corpus produced an empty vocabulary")
    return vocabulary


@dataclass
class SkipGramConfig:
    """Hyperparameters of skip-gram with negative sampling.

    ``dimension`` defaults to 32, the paper's best setting (Figure 11).
    """

    dimension: int = 32
    window: int = 5
    negatives: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 0.0005
    epochs: int = 2
    batch_size: int = 2048
    min_count: int = 1
    negative_table_size: int = 1_000_000
    seed: int | None = None

    def validate(self) -> None:
        if self.dimension <= 0:
            raise EmbeddingError("dimension must be positive")
        if self.window < 1:
            raise EmbeddingError("window must be at least 1")
        if self.negatives < 1:
            raise EmbeddingError("negatives must be at least 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise EmbeddingError("learning_rate must be finite and positive")
        if not 0.0 <= self.min_learning_rate < np.inf:
            raise EmbeddingError("min_learning_rate must be finite and non-negative")
        if self.epochs < 1:
            raise EmbeddingError("epochs must be at least 1")
        if self.batch_size < 1:
            raise EmbeddingError("batch_size must be at least 1")


def generate_skipgram_pairs(
    encoded_sentences: Iterable[np.ndarray], window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate (center, context) index pairs from encoded sentences.

    Every ordered pair of tokens at distance ``1..window`` inside a sentence
    becomes a training pair, in both directions — the standard skip-gram
    context definition.
    """
    centers: List[np.ndarray] = []
    contexts: List[np.ndarray] = []
    for sentence in encoded_sentences:
        n = sentence.shape[0]
        if n < 2:
            continue
        for offset in range(1, min(window, n - 1) + 1):
            left = sentence[:-offset]
            right = sentence[offset:]
            centers.append(left)
            contexts.append(right)
            centers.append(right)
            contexts.append(left)
    if not centers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(centers), np.concatenate(contexts)


def generate_skipgram_pairs_batch(
    encoded_batch: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Skip-gram pairs from a padded ``(batch, walk_length)`` index matrix.

    Entries ``< 0`` are padding (terminated walks or pruned tokens) and never
    pair.  Rows must be compacted (all valid entries before any padding) so
    that offsets measure distance in the pruned sequence, matching
    :func:`generate_skipgram_pairs` on individually encoded sentences.
    """
    centers: List[np.ndarray] = []
    contexts: List[np.ndarray] = []
    length = encoded_batch.shape[1] if encoded_batch.ndim == 2 else 0
    for offset in range(1, min(window, length - 1) + 1):
        left = encoded_batch[:, :-offset].reshape(-1)
        right = encoded_batch[:, offset:].reshape(-1)
        mask = (left >= 0) & (right >= 0)
        if not mask.any():
            continue
        left, right = left[mask], right[mask]
        centers.append(left)
        contexts.append(right)
        centers.append(right)
        contexts.append(left)
    if not centers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(centers), np.concatenate(contexts)


def encode_walk_batch(batch: np.ndarray, node_to_token: np.ndarray) -> np.ndarray:
    """Map a padded walk-index batch through ``node_to_token`` and compact rows.

    ``node_to_token`` maps network node index -> vocabulary index (``-1`` for
    pruned nodes).  Pruned entries are squeezed out of each row (valid tokens
    shift left, padding fills the tail), mirroring how
    :meth:`Vocabulary.encode` drops unknown tokens before pairing.
    """
    mapped = np.where(batch >= 0, node_to_token[np.maximum(batch, 0)], -1)
    invalid = mapped < 0
    if not invalid.any():
        return mapped
    order = np.argsort(invalid, axis=1, kind="stable")
    return np.take_along_axis(mapped, order, axis=1)


def build_negative_table(counts: np.ndarray, table_size: int, power: float = 0.75) -> np.ndarray:
    """Unigram^power negative-sampling table (index array of length ``table_size``)."""
    weights = np.power(np.maximum(counts, 1e-12), power)
    probabilities = weights / weights.sum()
    cumulative = np.cumsum(probabilities)
    positions = (np.arange(table_size) + 0.5) / table_size
    # table[j] = #{i : cumulative[i] < positions[j]}, the left search of each
    # position in ``cumulative``, built from V bounds instead of T searches
    # (it reaches V where cumulative[-1] falls below a position, as when the
    # weights' sum overflows and every probability is 0).
    bounds = np.searchsorted(positions, cumulative, side="right")
    return np.repeat(
        np.arange(cumulative.shape[0] + 1), np.diff(bounds, prepend=0, append=table_size)
    )


def _sgns_pair_gradients(
    v_in: np.ndarray, v_pos: np.ndarray, v_neg: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The SGNS arithmetic over gathered center ``(B, d)``, context ``(B, d)``
    and negative ``(B, K, d)`` rows: one gradient row per gathered row, and
    the mean batch loss.  Scattering them back is the caller's business."""
    pos_score = sigmoid(np.einsum("bd,bd->b", v_in, v_pos))
    neg_score = sigmoid(np.einsum("bkd,bd->bk", v_neg, v_in))

    g_pos = (pos_score - 1.0)[:, None]  # (B, 1)
    grad_in = g_pos * v_pos + np.einsum("bk,bkd->bd", neg_score, v_neg)
    grad_pos = g_pos * v_in
    grad_neg = neg_score[:, :, None] * v_in[:, None, :]

    eps = 1e-10
    loss = -np.mean(np.log(pos_score + eps)) - np.mean(
        np.sum(np.log(1.0 - neg_score + eps), axis=1)
    )
    return grad_in, grad_pos, grad_neg, float(loss)


def sgns_batch_update(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    learning_rate: float,
) -> float:
    """One in-place SGNS mini-batch update; returns the mean batch loss."""
    grad_in, grad_pos, grad_neg, loss = _sgns_pair_gradients(
        w_in[centers], w_out[contexts], w_out[negatives]
    )
    scatter_add_rows(w_in, centers, -learning_rate * grad_in)
    scatter_add_rows(w_out, contexts, -learning_rate * grad_pos)
    scatter_add_rows(w_out, negatives, -learning_rate * grad_neg)
    return loss


@dataclass
class SparseBatch:
    """One minibatch expressed against *compacted* row sets.

    ``rows_in``/``rows_out`` are the unique global rows a batch touches (sorted
    ascending); the index arrays address those compacted sets.  This is exactly
    the unit of work of the paper's pull/compute/push cycle: a worker pulls
    ``rows_in`` of ``w_in`` and ``rows_out`` of ``w_out``, computes gradients
    locally and pushes one gradient row back per pulled row.
    """

    rows_in: np.ndarray  # (U_in,) unique center rows
    rows_out: np.ndarray  # (U_out,) unique context ∪ negative rows
    center_idx: np.ndarray  # (B,) indices into rows_in
    context_idx: np.ndarray  # (B,) indices into rows_out
    negative_idx: np.ndarray  # (B, K) indices into rows_out

    @classmethod
    def from_pairs(
        cls, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray
    ) -> "SparseBatch":
        rows_in, center_idx = np.unique(centers, return_inverse=True)
        out_rows = np.concatenate([contexts, negatives.reshape(-1)])
        rows_out, out_idx = np.unique(out_rows, return_inverse=True)
        return cls(
            rows_in=rows_in,
            rows_out=rows_out,
            center_idx=center_idx,
            context_idx=out_idx[: contexts.shape[0]],
            negative_idx=out_idx[contexts.shape[0] :].reshape(negatives.shape),
        )

    @property
    def num_rows(self) -> int:
        """Unique embedding rows the batch pulls (and pushes)."""
        return int(self.rows_in.shape[0] + self.rows_out.shape[0])


def sgns_sparse_step(
    v_in: np.ndarray,
    v_out: np.ndarray,
    batch: SparseBatch,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """SGNS gradients over pulled row blocks, fully vectorised.

    ``v_in``/``v_out`` are the pulled ``(U_in, d)``/``(U_out, d)`` row blocks
    matching ``batch.rows_in``/``batch.rows_out``.  Returns dense gradient
    blocks of the same shapes plus the mean batch loss; the caller pushes the
    blocks back row-sparsely.
    """
    grad_in_rows, grad_pos_rows, grad_neg_rows, loss = _sgns_pair_gradients(
        v_in[batch.center_idx], v_out[batch.context_idx], v_out[batch.negative_idx]
    )
    grad_in = np.zeros_like(v_in)
    grad_out = np.zeros_like(v_out)
    scatter_add_rows(grad_in, batch.center_idx, grad_in_rows)
    scatter_add_rows(grad_out, batch.context_idx, grad_pos_rows)
    scatter_add_rows(grad_out, batch.negative_idx, grad_neg_rows)
    return grad_in, grad_out, loss


class SkipGramTrainer:
    """Single-process SGNS trainer over a corpus of node sequences."""

    def __init__(self, config: SkipGramConfig | None = None, *, rng: SeedLike = None) -> None:
        self.config = config or SkipGramConfig()
        self.config.validate()
        self._rng = ensure_rng(self.config.seed if rng is None else rng)
        self.vocabulary: Vocabulary | None = None
        self.w_in: np.ndarray | None = None
        self.w_out: np.ndarray | None = None
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------
    def initialize(self, vocabulary: Vocabulary) -> None:
        """Initialise parameter matrices for ``vocabulary``."""
        self.vocabulary = vocabulary
        size, dim = len(vocabulary), self.config.dimension
        self.w_in = (self._rng.random((size, dim)) - 0.5) / dim
        self.w_out = np.zeros((size, dim), dtype=np.float64)

    def fit(self, corpus: Sequence[Sequence[str]]) -> EmbeddingSet:
        """Train on ``corpus`` and return the learned input embeddings."""
        vocabulary = build_vocabulary(corpus, min_count=self.config.min_count)
        self.initialize(vocabulary)
        encoded = [vocabulary.encode(sentence) for sentence in corpus]
        centers, contexts = generate_skipgram_pairs(encoded, self.config.window)
        if centers.size == 0:
            raise EmbeddingError("corpus produced no skip-gram pairs")
        table = build_negative_table(vocabulary.counts(), self.config.negative_table_size)
        self._train_pairs(centers, contexts, table)
        return self.embeddings()

    def _train_pairs(
        self, centers: np.ndarray, contexts: np.ndarray, table: np.ndarray
    ) -> None:
        assert self.w_in is not None and self.w_out is not None
        cfg = self.config
        num_pairs = centers.shape[0]
        total_batches = max(1, int(np.ceil(num_pairs / cfg.batch_size))) * cfg.epochs
        batch_counter = 0
        for _ in range(cfg.epochs):
            order = self._rng.permutation(num_pairs)
            for start in range(0, num_pairs, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                progress = batch_counter / total_batches
                learning_rate = max(
                    cfg.min_learning_rate,
                    cfg.learning_rate * (1.0 - progress),
                )
                negatives = table[
                    self._rng.integers(0, table.shape[0], size=(batch.shape[0], cfg.negatives))
                ]
                loss = sgns_batch_update(
                    self.w_in,
                    self.w_out,
                    centers[batch],
                    contexts[batch],
                    negatives,
                    learning_rate,
                )
                self.loss_history.append(loss)
                batch_counter += 1

    # ------------------------------------------------------------------
    def embeddings(self) -> EmbeddingSet:
        if self.vocabulary is None or self.w_in is None:
            raise EmbeddingError("SkipGramTrainer has not been fitted")
        return EmbeddingSet(self.vocabulary.tokens(), self.w_in.copy(), name="skipgram")
