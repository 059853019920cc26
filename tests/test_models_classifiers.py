"""Tests of Logistic Regression and GBDT."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError, NotFittedError
from repro.models.base import validate_training_inputs
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.logistic_regression import LogisticRegression, soft_threshold


class TestBaseValidation:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(ModelError):
            validate_training_inputs(np.ones((3, 2)), np.array([0, 1, 2]))

    def test_rejects_nan_features(self):
        features = np.ones((3, 2))
        features[0, 0] = np.nan
        with pytest.raises(ModelError):
            validate_training_inputs(features, np.array([0, 1, 0]))

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ModelError):
            validate_training_inputs(np.zeros((0, 2)), None)
        with pytest.raises(ModelError):
            validate_training_inputs(np.ones((3, 2)), np.array([0, 1]))


class TestLogisticRegression:
    def test_soft_threshold(self):
        values = np.array([-3.0, -0.5, 0.5, 3.0])
        assert soft_threshold(values, 1.0).tolist() == [-2.0, 0.0, 0.0, 2.0]

    def test_learns_linear_boundary(self, small_classification_data):
        features, labels = small_classification_data
        model = LogisticRegression(discretize_bins=0, iterations=200, l1=0.01).fit(features, labels)
        accuracy = (model.predict(features) == labels).mean()
        assert accuracy > 0.85

    def test_discretization_improves_or_matches_raw_on_fraud(self, feature_matrices):
        train, test = feature_matrices
        raw = LogisticRegression(discretize_bins=0, iterations=80).fit(train.values, train.labels)
        binned = LogisticRegression(discretize_bins=10, iterations=80).fit(train.values, train.labels)
        # Both must produce valid probabilities; the binned variant is the paper's default.
        for model in (raw, binned):
            scores = model.predict_proba(test.values)
            assert np.all((scores >= 0) & (scores <= 1))

    def test_l1_produces_sparsity(self, small_classification_data):
        features, labels = small_classification_data
        dense = LogisticRegression(discretize_bins=20, iterations=120, l1=0.0).fit(features, labels)
        sparse = LogisticRegression(discretize_bins=20, iterations=120, l1=5.0).fit(features, labels)
        assert sparse.nonzero_coefficients <= dense.nonzero_coefficients

    def test_loss_decreases(self, small_classification_data):
        features, labels = small_classification_data
        model = LogisticRegression(discretize_bins=0, iterations=100).fit(features, labels)
        assert model.loss_history_[-1] < model.loss_history_[0]

    def test_requires_labels(self, small_classification_data):
        features, _ = small_classification_data
        with pytest.raises(ModelError):
            LogisticRegression().fit(features, None)

    @pytest.mark.parametrize(
        "setting",
        [
            {"l1": float("nan")},
            {"l1": float("inf")},
            {"l1": -0.1},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
        ids=repr,
    )
    def test_non_finite_settings_are_rejected(self, setting):
        """A NaN L1 weight trained a model answering NaN for every row, and
        ``p >= threshold`` is false for NaN: it would approve every transfer."""
        with pytest.raises(ModelError):
            LogisticRegression(**setting)

    @pytest.mark.parametrize(
        "bins, digest",
        [
            (0, "b48873de11400f18"),  # standardised raw features
            (2, "a0bac60f3ba08083"),
            (10, "197bae2da98e8ec9"),
            (200, "b5a8d6c6629fe042"),
        ],
    )
    def test_predictions_unmoved_by_the_one_discretiser_mode(
        self, small_classification_data, bins, digest
    ):
        """Digests recorded before the discretiser lost its equal-width and
        bin-index modes; column 5 is a flag, which passes through."""
        features, labels = small_classification_data
        features = features.copy()
        features[:, 5] = (features[:, 5] > 0).astype(float)
        model = LogisticRegression(discretize_bins=bins, iterations=50).fit(features, labels)
        scores = model.predict_proba(features)
        assert hashlib.sha256(scores.tobytes()).hexdigest()[:16] == digest


class TestGBDT:
    def test_learns_nonlinear_boundary(self, small_classification_data):
        features, labels = small_classification_data
        model = GradientBoostingClassifier(num_trees=40, seed=0).fit(features, labels)
        accuracy = (model.predict(features) == labels).mean()
        assert accuracy > 0.9

    def test_training_loss_decreases(self, small_classification_data):
        features, labels = small_classification_data
        model = GradientBoostingClassifier(num_trees=30, seed=1).fit(features, labels)
        assert model.train_loss_[-1] < model.train_loss_[0]

    def test_squared_objective_supported(self, small_classification_data):
        features, labels = small_classification_data
        model = GradientBoostingClassifier(num_trees=30, objective="squared", seed=2).fit(
            features, labels
        )
        scores = model.predict_proba(features)
        assert np.all((scores >= 0) & (scores <= 1))
        assert (model.predict(features) == labels).mean() > 0.85

    def test_staged_predictions_match_final(self, small_classification_data):
        features, labels = small_classification_data
        model = GradientBoostingClassifier(num_trees=25, seed=3).fit(features, labels)
        staged = dict(model.staged_predict_proba(features, every=5))
        assert np.allclose(staged[25], model.predict_proba(features))
        assert set(staged) == {5, 10, 15, 20, 25}

    def test_feature_importances_sum_to_one(self, small_classification_data):
        features, labels = small_classification_data
        model = GradientBoostingClassifier(num_trees=20, seed=4).fit(features, labels)
        importances = model.feature_importances(features.shape[1])
        assert importances.shape == (features.shape[1],)
        assert importances.sum() == pytest.approx(1.0)

    def test_outperforms_single_tree_on_fraud_data(self, feature_matrices):
        train, test = feature_matrices
        from repro.core.evaluation import evaluate_scores

        gbdt = GradientBoostingClassifier(num_trees=40, seed=5).fit(train.values, train.labels)
        shallow = GradientBoostingClassifier(num_trees=1, seed=5).fit(train.values, train.labels)
        f1_gbdt = evaluate_scores(test.labels, gbdt.predict_proba(test.values)).f1
        f1_single = evaluate_scores(test.labels, shallow.predict_proba(test.values)).f1
        assert f1_gbdt >= f1_single

    def test_invalid_params(self):
        with pytest.raises(ModelError):
            GradientBoostingClassifier(num_trees=0)
        with pytest.raises(ModelError):
            GradientBoostingClassifier(subsample_rows=0.0)
        with pytest.raises(ModelError):
            GradientBoostingClassifier(objective="absolute")  # type: ignore[arg-type]

    @pytest.mark.parametrize("reg_lambda", [float("nan"), float("inf"), -1.0])
    def test_non_finite_reg_lambda_is_rejected(self, reg_lambda):
        """A NaN ``reg_lambda`` trained a forest answering NaN for every row."""
        with pytest.raises(ModelError):
            GradientBoostingClassifier(reg_lambda=reg_lambda)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            GradientBoostingClassifier().predict_proba(np.ones((2, 3)))


class TestGBDTHistogram:
    """The histogram-grown GBDT.  (Its parity with the exact sorted-search
    grower is tested beside that grower, in ``benchmarks/paper/tests``.)"""

    def test_staged_and_importances_work_with_hist_trees(self, small_classification_data):
        features, labels = small_classification_data
        model = GradientBoostingClassifier(num_trees=20, seed=1).fit(features, labels)
        staged = dict(model.staged_predict_proba(features, every=10))
        assert np.allclose(staged[20], model.predict_proba(features))
        importances = model.feature_importances(features.shape[1])
        assert importances.sum() == pytest.approx(1.0)

    def test_predict_path_validates_inputs_once(self, small_classification_data):
        features, labels = small_classification_data
        model = GradientBoostingClassifier(num_trees=5, seed=0).fit(features, labels)
        calls = {"count": 0}
        original = model._check_predict_inputs

        def _counting(array):
            calls["count"] += 1
            return original(array)

        model._check_predict_inputs = _counting  # type: ignore[method-assign]
        model.predict_proba(features)
        assert calls["count"] == 1

    def test_invalid_histogram_params(self):
        with pytest.raises(ModelError):
            GradientBoostingClassifier(num_bins=1)
        with pytest.raises(ModelError):
            GradientBoostingClassifier(min_samples_leaf=0)
        with pytest.raises(ModelError):
            GradientBoostingClassifier(reg_lambda=-0.5)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gbdt_probabilities_bounded_property(seed):
    """GBDT probabilities stay in [0, 1] for arbitrary random data."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(80, 4))
    labels = (rng.random(80) < 0.3).astype(float)
    if labels.sum() in (0, len(labels)):
        labels[0] = 1.0 - labels[0]
    model = GradientBoostingClassifier(num_trees=5, seed=seed).fit(features, labels)
    scores = model.predict_proba(rng.normal(size=(20, 4)))
    assert np.all((scores >= 0.0) & (scores <= 1.0))
