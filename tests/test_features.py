"""Tests of the feature layer: basic features, discretisation, aggregation, assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FeatureError, NotFittedError
from repro.features.aggregation import AggregationConfig, TransactionAggregator
from repro.features.assembler import EmbeddingSide, FeatureAssembler
from repro.features.basic import BASIC_FEATURE_NAMES, BasicFeatureExtractor
from repro.features.discretization import Discretizer, QuantileBinner
from repro.features.matrix import FeatureMatrix
from repro.nrl.embeddings import EmbeddingSet
from scalar_basic import ScalarBasicExtractor


class TestBasicFeatures:
    def test_exactly_52_features(self):
        assert len(BASIC_FEATURE_NAMES) == 52
        assert len(set(BASIC_FEATURE_NAMES)) == 52

    def test_extraction_shape_and_labels(self, world, dataset):
        extractor = BasicFeatureExtractor(world.profiles_by_id)
        matrix = extractor.extract(dataset.train_transactions[:200])
        assert matrix.num_features == 52
        assert matrix.num_rows == 200
        assert matrix.labels is not None and matrix.labels.shape == (200,)
        assert set(np.unique(matrix.labels)) <= {0.0, 1.0}

    def test_values_are_finite(self, feature_matrices):
        train, test = feature_matrices
        assert np.isfinite(train.values).all()
        assert np.isfinite(test.values).all()

    def test_unknown_user_gets_default_profile(self, world, dataset):
        extractor = ScalarBasicExtractor({})
        vector = extractor.extract_one(dataset.test_transactions[0])
        assert vector.shape == (52,)
        assert np.isfinite(vector).all()

    def test_gender_one_hot_consistency(self, world, dataset):
        extractor = BasicFeatureExtractor(world.profiles_by_id)
        matrix = extractor.extract(dataset.train_transactions[:300])
        one_hot = (
            matrix.column("payer_gender_f")
            + matrix.column("payer_gender_m")
            + matrix.column("payer_gender_u")
        )
        assert np.allclose(one_hot, 1.0)


class TestFeatureMatrix:
    def test_column(self):
        matrix = FeatureMatrix(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert matrix.column("b").tolist() == [2.0, 4.0]
        with pytest.raises(FeatureError):
            matrix.column("missing")

    def test_hstack_rejects_duplicates_and_mismatched_rows(self):
        left = FeatureMatrix(["a"], np.ones((3, 1)))
        right_dup = FeatureMatrix(["a"], np.ones((3, 1)))
        right_short = FeatureMatrix(["b"], np.ones((2, 1)))
        with pytest.raises(FeatureError):
            left.hstack(right_dup)
        with pytest.raises(FeatureError):
            left.hstack(right_short)

    def test_take_preserves_labels_and_ids(self):
        matrix = FeatureMatrix(
            ["a"], np.arange(4).reshape(4, 1), row_ids=["r0", "r1", "r2", "r3"], labels=[0, 1, 0, 1]
        )
        subset = matrix.take([1, 3])
        assert subset.row_ids == ["r1", "r3"]
        assert subset.labels.tolist() == [1.0, 1.0]

    def test_shape_validation(self):
        with pytest.raises(FeatureError):
            FeatureMatrix(["a", "b"], np.ones((2, 3)))
        with pytest.raises(FeatureError):
            FeatureMatrix(["a"], np.ones((2, 1)), labels=[1.0])


class TestDiscretization:
    def test_quantile_binner_spreads_rows(self):
        values = np.random.default_rng(0).exponential(size=1000)
        bins = QuantileBinner(10).fit(values).transform(values)
        counts = np.bincount(bins.astype(int), minlength=10)
        assert counts.min() > 50  # roughly equal-frequency

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            QuantileBinner(4).transform(np.array([1.0, 2.0]))

    def test_discretizer_one_hot_expands_columns(self, feature_matrices):
        train, _ = feature_matrices
        discretizer = Discretizer(6)
        transformed = discretizer.fit(train.values).transform(train.values)
        assert transformed.shape[1] > train.num_features
        assert set(np.unique(transformed)) <= {0.0, 1.0} | set(
            np.unique(train.values[:, [train.feature_names.index(n) for n in train.feature_names if n in ("payer_home_city_bucket",)]]).tolist()
        ) or transformed.max() <= train.values.max()
        # Binary flags pass through unbinned.
        flag = train.values[:, [train.feature_names.index("is_new_device")]]
        assert np.array_equal(Discretizer(6).fit(flag).transform(flag), flag)


class TestAggregation:
    def test_aggregates_match_manual_counts(self, dataset):
        aggregator = TransactionAggregator(AggregationConfig(window_days=6)).fit(
            dataset.train_transactions, as_of_day=dataset.spec.test_day
        )
        payer = dataset.train_transactions[0].payer_id
        manual = [
            t
            for t in dataset.train_transactions
            if t.payer_id == payer and dataset.spec.test_day - 6 <= t.day < dataset.spec.test_day
        ]
        row = aggregator.user_row(payer)
        assert row["out_count"] == float(len(manual))
        assert row["out_amount_sum"] == pytest.approx(sum(t.amount for t in manual))

    def test_transform_shape(self, dataset):
        """Transactions -> aggregation columns, through the assembler (the
        aggregator itself only serves per-user rows)."""
        aggregator = TransactionAggregator().fit(
            dataset.train_transactions, as_of_day=dataset.spec.test_day
        )
        matrix = FeatureAssembler({}, aggregator=aggregator).assemble(
            dataset.test_transactions[:50]
        )
        assert matrix.num_rows == 50
        assert matrix.feature_names[len(BASIC_FEATURE_NAMES):] == aggregator.feature_names


class TestFeatureAssembler:
    def _embeddings(self, dataset, dim=4):
        users = sorted({t.payer_id for t in dataset.train_transactions} | {t.payee_id for t in dataset.train_transactions})
        rng = np.random.default_rng(0)
        return EmbeddingSet(users, rng.normal(size=(len(users), dim)), name="dw")

    def test_concatenation_order_and_width(self, world, dataset):
        embeddings = self._embeddings(dataset)
        assembler = FeatureAssembler(world.profiles_by_id, {"dw": embeddings})
        matrix = assembler.assemble(dataset.train_transactions[:20])
        assert matrix.num_features == 52 + 2 * 4
        assert matrix.feature_names[:52] == BASIC_FEATURE_NAMES
        assert matrix.feature_names[52] == "dw_payer_0"
        assert matrix.feature_names[-1] == "dw_payee_3"

    def test_payee_side_only(self, world, dataset):
        embeddings = self._embeddings(dataset)
        assembler = FeatureAssembler(
            world.profiles_by_id, {"dw": embeddings}, embedding_side=EmbeddingSide.PAYEE
        )
        matrix = assembler.assemble(dataset.train_transactions[:10])
        assert matrix.num_features == 52 + 4

    def test_missing_embedding_rows_are_zero(self, world, dataset):
        embeddings = EmbeddingSet(["nobody"], np.ones((1, 4)), name="dw")
        assembler = FeatureAssembler(world.profiles_by_id, {"dw": embeddings})
        matrix = assembler.assemble(dataset.train_transactions[:5])
        assert np.allclose(matrix.values[:, 52:], 0.0)

    def test_single_vector_matches_batch(self, world, dataset):
        embeddings = self._embeddings(dataset)
        assembler = FeatureAssembler(world.profiles_by_id, {"dw": embeddings})
        txn = dataset.test_transactions[0]
        single = assembler.assemble_single(txn)
        batch = assembler.assemble([txn], with_labels=False)
        assert np.allclose(single, batch.values[0])


@settings(max_examples=20, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=20, max_size=200),
    num_bins=st.integers(2, 20),
)
def test_binner_output_range_property(values, num_bins):
    """Quantile bins always land inside [0, num_bins)."""
    array = np.array(values)
    bins = QuantileBinner(num_bins).fit(array).transform(array)
    assert bins.min() >= 0
    assert bins.max() < num_bins
