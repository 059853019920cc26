"""Tests of the network representation learning layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import EmbeddingError
from repro.graph.network import TransactionNetwork
from repro.graph.random_walk import RandomWalkConfig
from repro.nrl.deepwalk import DeepWalk, DeepWalkConfig
from repro.nrl.embeddings import EmbeddingSet
from repro.nrl.structure2vec import (
    Structure2Vec,
    Structure2VecConfig,
    node_labels_from_transactions,
    node_structural_features,
)
from repro.nrl.word2vec import (
    SkipGramConfig,
    SkipGramTrainer,
    SparseBatch,
    build_negative_table,
    build_vocabulary,
    encode_walk_batch,
    generate_skipgram_pairs,
    generate_skipgram_pairs_batch,
    sgns_batch_update,
    sgns_sparse_step,
)
from repro.numerics import scatter_add_rows


def _two_cluster_network() -> TransactionNetwork:
    """Two dense clusters connected by one bridge edge."""
    network = TransactionNetwork()
    cluster_a = [f"a{i}" for i in range(8)]
    cluster_b = [f"b{i}" for i in range(8)]
    for cluster in (cluster_a, cluster_b):
        for i, source in enumerate(cluster):
            for target in cluster[i + 1 :]:
                network.add_edge(source, target)
    network.add_edge("a0", "b0")
    return network


class TestEmbeddingSet:
    def test_lookup_and_default(self):
        embeddings = EmbeddingSet(["u1", "u2"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert embeddings["u1"].tolist() == [1.0, 0.0]
        assert embeddings.get("unknown").tolist() == [0.0, 0.0]
        matrix = embeddings.lookup(["u2", "unknown"])
        assert matrix.shape == (2, 2)
        assert matrix[1].tolist() == [0.0, 0.0]

    def test_duplicate_or_mismatched_rejected(self):
        with pytest.raises(EmbeddingError):
            EmbeddingSet(["u1", "u1"], np.zeros((2, 2)))
        with pytest.raises(EmbeddingError):
            EmbeddingSet(["u1"], np.zeros((2, 2)))

    def test_concatenate_unions_nodes(self):
        left = EmbeddingSet(["a", "b"], np.ones((2, 2)), name="dw")
        right = EmbeddingSet(["b", "c"], 2 * np.ones((2, 3)), name="s2v")
        combined = left.concatenate(right)
        assert combined.dimension == 5
        assert set(combined.node_ids()) == {"a", "b", "c"}
        assert combined["a"].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]

    def test_normalized_rows_unit_length(self):
        embeddings = EmbeddingSet(["a", "b"], np.array([[3.0, 4.0], [0.0, 0.0]]))
        normalized = embeddings.normalized()
        assert np.linalg.norm(normalized["a"]) == pytest.approx(1.0)
        assert np.linalg.norm(normalized["b"]) == pytest.approx(0.0)


class TestWord2Vec:
    def test_vocabulary_and_pairs(self):
        corpus = [["a", "b", "c"], ["b", "c", "d"]]
        vocabulary = build_vocabulary(corpus)
        assert len(vocabulary) == 4
        encoded = [vocabulary.encode(sentence) for sentence in corpus]
        centers, contexts = generate_skipgram_pairs(encoded, window=1)
        assert centers.shape == contexts.shape
        assert centers.shape[0] == 8  # 2 sentences x 2 adjacent pairs x 2 directions

    def test_negative_table_prefers_frequent_tokens(self):
        counts = np.array([100.0, 1.0])
        table = build_negative_table(counts, table_size=1000)
        assert (table == 0).mean() > 0.7

    def test_batch_update_reduces_loss(self):
        rng = np.random.default_rng(0)
        w_in = rng.normal(scale=0.1, size=(20, 8))
        w_out = np.zeros((20, 8))
        centers = rng.integers(0, 10, size=256)
        contexts = centers  # perfectly correlated pairs
        negatives = rng.integers(10, 20, size=(256, 3))
        first = sgns_batch_update(w_in, w_out, centers, contexts, negatives, 0.1)
        for _ in range(30):
            last = sgns_batch_update(w_in, w_out, centers, contexts, negatives, 0.1)
        assert last < first

    def test_batch_pair_generation_matches_per_sentence(self):
        """Padded-matrix pair generation covers the same pair multiset."""
        sentences = [np.array([0, 1, 2, 3]), np.array([4, 5]), np.array([6])]
        centers, contexts = generate_skipgram_pairs(sentences, window=2)
        padded = np.full((3, 4), -1, dtype=np.int64)
        for row, sentence in enumerate(sentences):
            padded[row, : sentence.shape[0]] = sentence
        batch_centers, batch_contexts = generate_skipgram_pairs_batch(padded, window=2)
        expected = sorted(zip(centers.tolist(), contexts.tolist()))
        actual = sorted(zip(batch_centers.tolist(), batch_contexts.tolist()))
        assert expected == actual

    def test_encode_walk_batch_compacts_pruned_tokens(self):
        # node 1 is pruned (maps to -1); distances must be measured in the
        # compacted sequence, exactly like Vocabulary.encode + pair generation.
        node_to_token = np.array([0, -1, 1, 2], dtype=np.int64)
        batch = np.array([[0, 1, 2, 3], [1, 1, 0, -1]], dtype=np.int64)
        encoded = encode_walk_batch(batch, node_to_token)
        assert encoded.tolist() == [[0, 1, 2, -1], [0, -1, -1, -1]]

    def test_sparse_step_matches_dense_update(self):
        rng = np.random.default_rng(5)
        w_in = rng.normal(scale=0.1, size=(12, 4))
        w_out = rng.normal(scale=0.1, size=(12, 4))
        centers = rng.integers(0, 12, size=64)
        contexts = rng.integers(0, 12, size=64)
        negatives = rng.integers(0, 12, size=(64, 3))
        dense_in, dense_out = w_in.copy(), w_out.copy()
        dense_loss = sgns_batch_update(dense_in, dense_out, centers, contexts, negatives, 0.3)
        batch = SparseBatch.from_pairs(centers, contexts, negatives)
        grad_in, grad_out, sparse_loss = sgns_sparse_step(
            w_in[batch.rows_in], w_out[batch.rows_out], batch
        )
        sparse_in, sparse_out = w_in.copy(), w_out.copy()
        sparse_in[batch.rows_in] -= 0.3 * grad_in
        sparse_out[batch.rows_out] -= 0.3 * grad_out
        assert np.allclose(sparse_in, dense_in)
        assert np.allclose(sparse_out, dense_out)
        assert sparse_loss == pytest.approx(dense_loss)

    def test_trainer_produces_embeddings_for_all_tokens(self):
        corpus = [[f"n{i}", f"n{i+1}", f"n{i+2}"] for i in range(10)]
        trainer = SkipGramTrainer(SkipGramConfig(dimension=6, epochs=1, window=2, seed=0))
        embeddings = trainer.fit(corpus)
        assert embeddings.dimension == 6
        assert len(embeddings) == 12

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmbeddingError):
            build_vocabulary([])

    @pytest.mark.parametrize(
        "settings_",
        [
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"min_learning_rate": float("nan")},
            {"min_learning_rate": float("inf")},
            {"min_learning_rate": -0.1},
        ],
        ids=["lr-nan", "lr-inf", "min-lr-nan", "min-lr-inf", "min-lr-negative"],
    )
    def test_non_finite_rates_rejected(self, settings_):
        """A NaN learning rate passed ``<= 0``, and ``max(floor, nan)`` then
        trained the whole run silently at the ``min_learning_rate`` floor."""
        with pytest.raises(EmbeddingError):
            SkipGramConfig(**settings_)


class TestDeepWalk:
    def test_cluster_structure_is_captured(self):
        network = _two_cluster_network()
        model = DeepWalk(
            DeepWalkConfig(
                walk=RandomWalkConfig(walk_length=10, num_walks_per_node=20),
                skipgram=SkipGramConfig(dimension=8, window=3, epochs=3),
                seed=0,
            )
        ).fit(network)
        embeddings = model.embeddings()

        def cosine(a, b):
            va, vb = embeddings.get(a), embeddings.get(b)
            return float(np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb)))

        assert cosine("a1", "a2") > cosine("a1", "b5")

    def test_every_node_has_a_vector(self, network):
        model = DeepWalk(DeepWalkConfig.fast(dimension=8, seed=1)).fit(network)
        embeddings = model.embeddings()
        assert len(embeddings) == network.num_nodes
        assert embeddings.dimension == 8

    def test_unfitted_access_raises(self):
        with pytest.raises(EmbeddingError):
            DeepWalk().embeddings()

    def test_empty_network_rejected(self):
        with pytest.raises(EmbeddingError):
            DeepWalk().fit(TransactionNetwork())


class TestStructure2Vec:
    def test_structural_features_shape(self, network):
        nodes, features = node_structural_features(network)
        assert len(nodes) == network.num_nodes
        assert features.shape == (network.num_nodes, 6)
        assert np.isfinite(features).all()

    def test_node_labels_from_transactions(self, dataset):
        labels = node_labels_from_transactions(dataset.network_transactions)
        assert set(labels.values()) <= {0, 1}
        fraud_payees = {t.payee_id for t in dataset.network_transactions if t.is_fraud}
        assert all(labels[p] == 1 for p in fraud_payees)

    def test_supervised_embeddings_separate_fraud_nodes(self, dataset, network):
        labels = node_labels_from_transactions(dataset.network_transactions)
        model = Structure2Vec(Structure2VecConfig(dimension=8, epochs=40, seed=0)).fit(
            network, node_labels=labels
        )
        embeddings = model.embeddings()
        positives = [n for n in embeddings.node_ids() if labels.get(n) == 1]
        negatives = [n for n in embeddings.node_ids() if labels.get(n) == 0]
        if positives and negatives:
            pos_norm = np.linalg.norm(embeddings.lookup(positives), axis=1).mean()
            neg_norm = np.linalg.norm(embeddings.lookup(negatives), axis=1).mean()
            assert pos_norm != pytest.approx(neg_norm, rel=1e-6)

    def test_requires_labels(self, network):
        with pytest.raises(EmbeddingError):
            Structure2Vec().fit(network)

    @pytest.mark.parametrize(
        "settings_",
        [
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"l2": float("nan")},
            {"l2": float("inf")},
        ],
        ids=["lr-nan", "lr-inf", "l2-nan", "l2-inf"],
    )
    def test_non_finite_settings_rejected(self, settings_):
        """Each of these used to train, and every embedding row came out NaN."""
        with pytest.raises(EmbeddingError):
            Structure2Vec(Structure2VecConfig(**settings_))

    def test_loss_decreases(self, dataset, network):
        labels = node_labels_from_transactions(dataset.network_transactions)
        model = Structure2Vec(Structure2VecConfig(dimension=8, epochs=30, seed=1)).fit(
            network, node_labels=labels
        )
        assert model.loss_history[-1] < model.loss_history[0]


@settings(max_examples=10, deadline=None)
@given(dimension=st.integers(2, 16))
def test_embedding_lookup_dimension_property(dimension):
    """lookup always returns (n, dimension) with zeros for unknown nodes."""
    embeddings = EmbeddingSet(["a"], np.ones((1, dimension)))
    matrix = embeddings.lookup(["a", "b", "c"])
    assert matrix.shape == (3, dimension)
    assert np.allclose(matrix[1:], 0.0)


# ---------------------------------------------------------------------------
# The SGNS scatter and negative table against the spellings they replaced.

_SPECIAL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1.0, 1e-16]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def _scatter_cases(draw):
    """A ``(V, d)`` target, ``n`` row indices (duplicate-heavy, negative ones
    included) and ``(n, d)`` values, all drawn with IEEE special values."""
    vocab, width, n = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(0, 40))
    rows = draw(
        st.lists(
            st.one_of(st.integers(0, 1).map(lambda r: r % vocab), st.integers(-vocab, vocab - 1)),
            min_size=n,
            max_size=n,
        )
    )
    size = (vocab + n) * width
    cells = draw(st.lists(_SPECIAL_FLOATS, min_size=size, max_size=size))
    grid = np.array(cells, dtype=np.float64).reshape(vocab + n, width)
    return grid[:vocab].copy(), np.array(rows, dtype=np.int64), grid[vocab:].copy()


def _scatter_matches_2d_add_at(case):
    """Every non-NaN cell byte-equal, NaN exactly where the reference has it.
    Only *which* NaN may differ: when both operands of an add are NaN, IEEE
    754 leaves the propagated payload open, and numpy's 2-D loop keeps the
    addend's where the flat one keeps the target's."""
    target, rows, values = case
    expected = target.copy()
    with np.errstate(all="ignore"):  # inf - inf and overflow are the point here
        np.add.at(expected, rows, values)
        scatter_add_rows(target, rows, values)
    nan = np.isnan(expected)
    assert target.dtype == expected.dtype and np.array_equal(np.isnan(target), nan)
    assert target[~nan].tobytes() == expected[~nan].tobytes()


# (1 + 1e-16) + 1e-16 is 1 but 1 + (1e-16 + 1e-16) is not: a scatter that sums
# a row's addends before adding them (bincount, reduceat) re-associates.
_REASSOCIATION = (np.ones((2, 1)), np.array([0, 0]), np.full((2, 1), 1e-16))
# -0.0 + 0.0 is +0.0: a scatter that adds zeros to untouched rows flips them.
_UNTOUCHED_NEGATIVE_ZERO = (np.full((3, 2), -0.0), np.array([1]), np.ones((1, 2)))
_EMPTY_ROWS = (np.arange(6.0).reshape(3, 2), np.empty(0, dtype=np.int64), np.empty((0, 2)))


def _negative_table_oracle(counts, table_size, power=0.75):
    """The table's previous body: one left search per table position."""
    weights = np.power(np.maximum(counts, 1e-12), power)
    cumulative = np.cumsum(weights / weights.sum())
    positions = (np.arange(table_size) + 0.5) / table_size
    return np.searchsorted(cumulative, positions).astype(np.int64)


@st.composite
def _negative_table_cases(draw):
    """Counts (zeros, ties, heavy tails, overflowing weights), a table size
    (1, primes, small and mid-sized) and a power."""
    vocab = draw(st.integers(1, 30))
    counts = draw(
        st.lists(
            st.one_of(
                st.integers(0, 3).map(float),
                st.floats(0.0, 1e6),
                st.sampled_from([0.0, 1e9, 1e308]),
            ),
            min_size=vocab,
            max_size=vocab,
        )
    )
    table_size = draw(st.one_of(st.integers(1, 3000), st.sampled_from([1, 2, 3, 7919, 104729])))
    power = draw(st.sampled_from([0.75, 0.0, 1.0]))
    return np.array(counts, dtype=np.float64), table_size, power


def _negative_table_matches_oracle(case):
    counts, table_size, power = case
    with np.errstate(all="ignore"):  # the 1e308 counts overflow the weights' sum
        table = build_negative_table(counts, table_size, power)
        expected = _negative_table_oracle(counts, table_size, power)
    assert table.dtype == expected.dtype and table.tobytes() == expected.tobytes()


def _with_examples(check, strategy, examples, max_examples):
    for case in examples:
        check = example(case=case)(check)
    return settings(max_examples=max_examples, deadline=None)(given(case=strategy)(check))


_SCATTER_EXAMPLES = (_REASSOCIATION, _UNTOUCHED_NEGATIVE_ZERO, _EMPTY_ROWS)
_NEGATIVE_TABLE_EXAMPLES = (
    (np.array([5.0]), 1, 0.75),  # V = 1, T = 1
    (np.zeros(4), 7919, 0.75),  # all-zero counts, T prime
    (np.array([1.0, 1.0]), 1, 0.75),  # cumulative[0] == positions[0]: the search side matters
    # weights.sum() overflows, every probability is 0: the whole table is V
    (np.array([1e308, 1e308]), 13, 1.0),
)

test_scatter_add_rows_matches_2d_add_at = _with_examples(
    _scatter_matches_2d_add_at, _scatter_cases(), _SCATTER_EXAMPLES, 60
)
test_scatter_add_rows_matches_2d_add_at_soak = pytest.mark.slow(
    _with_examples(_scatter_matches_2d_add_at, _scatter_cases(), _SCATTER_EXAMPLES, 1000)
)
test_negative_table_matches_searchsorted_oracle = _with_examples(
    _negative_table_matches_oracle, _negative_table_cases(), _NEGATIVE_TABLE_EXAMPLES, 60
)
test_negative_table_matches_searchsorted_oracle_soak = pytest.mark.slow(
    _with_examples(
        _negative_table_matches_oracle, _negative_table_cases(), _NEGATIVE_TABLE_EXAMPLES, 1000
    )
)


class TestScatterAddRows:
    def test_one_dimensional_target_is_plain_add_at(self):
        target, expected = np.zeros(4), np.zeros(4)
        rows, values = np.array([3, 1, 3]), np.array([0.5, 2.0, 0.25])
        np.add.at(expected, rows, values)
        scatter_add_rows(target, rows, values)
        assert target.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "target",
        [np.zeros((4, 3), order="F"), np.zeros((4, 6))[:, :3], np.zeros((4, 3, 1))],
        ids=["fortran-ordered", "column-sliced", "three-dimensional"],
    )
    def test_non_contiguous_target_raises_instead_of_losing_updates(self, target):
        """``reshape(-1)`` of the first two is a copy, so a flat scatter would
        land in the copy, and a 3-D target's row is not ``shape[1]`` wide; the
        guard refuses them and leaves the target alone."""
        with pytest.raises(ValueError):
            scatter_add_rows(target, np.array([0, 2]), np.ones((2, 3)))
        assert not target.any()

    def test_row_range_view_is_accepted(self):
        """A shard's shared-memory block is a row range: contiguous, so the
        flat view writes through to the parent matrix."""
        matrix = np.zeros((6, 2))
        scatter_add_rows(matrix[2:5], np.array([0, 2, 0]), np.ones((3, 2)))
        assert matrix[:, 0].tolist() == [0.0, 0.0, 2.0, 0.0, 1.0, 0.0]
