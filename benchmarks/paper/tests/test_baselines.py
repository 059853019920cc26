"""Tests of Table 1's baselines: the split criteria, ID3, C4.5 / C5.0 (and
the rules extracted from its tree) and Isolation Forest."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.paper.c45 import C45Classifier
from benchmarks.paper.criteria import (
    best_categorical_split,
    best_numeric_split,
    entropy,
    gain_ratio,
    information_gain,
)
from benchmarks.paper.id3 import ID3Classifier
from benchmarks.paper.isolation_forest import IsolationForest, average_path_length
from repro.exceptions import ModelError, NotFittedError
from repro.features import discretization
from repro.models.rules import extract_rules


class TestSplitters:
    def test_entropy_bounds(self):
        assert entropy(np.array([0, 0, 0, 0])) == pytest.approx(0.0)
        assert entropy(np.array([0, 1, 0, 1])) == pytest.approx(1.0)
        assert 0.0 < entropy(np.array([0, 0, 0, 1])) < 1.0

    def test_information_gain_perfect_split(self):
        labels = np.array([0, 0, 1, 1])
        partitions = [np.array([0, 0]), np.array([1, 1])]
        assert information_gain(labels, partitions) == pytest.approx(1.0)

    def test_gain_ratio_penalises_many_way_splits(self):
        labels = np.array([0, 0, 1, 1])
        two_way = [np.array([0, 0]), np.array([1, 1])]
        four_way = [np.array([0]), np.array([0]), np.array([1]), np.array([1])]
        assert gain_ratio(labels, two_way) > gain_ratio(labels, four_way)

    def test_best_numeric_split_finds_threshold(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        split = best_numeric_split(values, labels)
        assert split is not None
        assert 3.0 < split.threshold < 10.0
        assert split.score == pytest.approx(1.0)

    def test_best_numeric_split_constant_feature(self):
        split = best_numeric_split(np.ones(10), np.arange(10) % 2)
        assert split is None

    def test_best_categorical_split(self):
        values = np.array([0, 0, 1, 1, 2, 2])
        labels = np.array([0, 0, 1, 1, 1, 1])
        split = best_categorical_split(values, labels)
        assert split is not None
        assert set(split.categories.tolist()) == {0, 1, 2}


class TestID3:
    def test_learns_simple_rule(self):
        rng = np.random.default_rng(0)
        features = rng.integers(0, 3, size=(500, 4)).astype(float)
        labels = (features[:, 1] == 2).astype(float)
        model = ID3Classifier(max_depth=3, discretize_bins=0).fit(features, labels)
        predictions = model.predict_proba(features) >= 0.5
        assert (predictions == labels).mean() > 0.95

    def test_requires_labels(self, feature_matrices):
        train, _ = feature_matrices
        with pytest.raises(ModelError):
            ID3Classifier().fit(train.values, None)

    def test_predict_before_fit_raises(self, feature_matrices):
        _, test = feature_matrices
        with pytest.raises(NotFittedError):
            ID3Classifier().predict_proba(test.values)

    def test_fraud_detection_beats_random(self, feature_matrices):
        train, test = feature_matrices
        model = ID3Classifier().fit(train.values, train.labels)
        scores = model.predict_proba(test.values)
        fraud_mean = scores[test.labels == 1].mean() if test.labels.sum() else 1.0
        normal_mean = scores[test.labels == 0].mean()
        assert fraud_mean > normal_mean


    @pytest.mark.parametrize(
        "bins, digest",
        [
            (0, "6bb9b02ad5ce743c"),
            (1, "6bb9b02ad5ce743c"),  # one bin has no cut points: every column collapses
            (2, "e6ddbcb548a36753"),
            (10, "365fae3ba15f23eb"),
        ],
    )
    def test_predictions_unmoved_by_sharing_quantile_edges(
        self, small_classification_data, bins, digest
    ):
        """ID3 takes its cut points from ``discretization.quantile_edges``
        (which rejects fewer than two bins — ID3 keeps its own guard for 0 and
        1); the digests were recorded before it did."""
        features, labels = small_classification_data
        scores = ID3Classifier(discretize_bins=bins).fit(features, labels).predict_proba(features)
        assert hashlib.sha256(scores.tobytes()).hexdigest()[:16] == digest

    def test_imports_only_the_discretisation_it_calls(self):
        import benchmarks.paper.id3 as id3

        assert id3.quantile_edges is discretization.quantile_edges


class TestC45:
    def test_learns_threshold_rule(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(600, 3))
        labels = (features[:, 0] > 0.3).astype(float)
        model = C45Classifier(max_depth=4).fit(features, labels)
        assert ((model.predict_proba(features) >= 0.5) == labels).mean() > 0.9

    def test_pruning_reduces_or_keeps_leaf_count(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(400, 5))
        labels = (rng.random(400) < 0.3).astype(float)  # pure noise
        unpruned = C45Classifier(max_depth=6, prune=False).fit(features, labels)
        pruned = C45Classifier(max_depth=6, prune=True).fit(features, labels)
        assert pruned.tree_.count_leaves() <= unpruned.tree_.count_leaves()

    def test_handles_categorical_and_continuous(self, feature_matrices):
        train, test = feature_matrices
        model = C45Classifier().fit(train.values, train.labels)
        scores = model.predict_proba(test.values)
        assert scores.shape == (test.num_rows,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ModelError):
            C45Classifier(max_depth=0)
        with pytest.raises(ModelError):
            C45Classifier(pruning_confidence=2.0)


class TestRuleExtraction:
    def test_rules_cover_all_rows(self, feature_matrices):
        train, test = feature_matrices
        model = C45Classifier(max_depth=4).fit(train.values, train.labels)
        rules = extract_rules(model.tree_)
        assert len(rules) == model.tree_.count_leaves()
        # Rule-set predictions agree with tree predictions.
        tree_scores = model.predict_proba(test.values[:100])
        rule_scores = [rules.predict_row(row) for row in test.values[:100]]
        assert np.allclose(tree_scores, rule_scores)

    def test_rule_description_readable(self, feature_matrices):
        train, _ = feature_matrices
        model = C45Classifier(max_depth=3).fit(train.values, train.labels)
        rules = extract_rules(model.tree_)
        text = rules.describe(train.feature_names)
        assert "IF" in text and "fraud_probability" in text

    def test_high_risk_rules_filter(self, feature_matrices):
        train, _ = feature_matrices
        model = C45Classifier(max_depth=4).fit(train.values, train.labels)
        rules = extract_rules(model.tree_)
        risky = rules.high_risk_rules(min_probability=0.5)
        assert all(rule.value >= 0.5 for rule in risky)


class TestIsolationForest:
    def test_average_path_length_monotonic(self):
        values = [average_path_length(n) for n in (2, 10, 100, 1000)]
        assert values == sorted(values)

    def test_outliers_score_higher(self):
        rng = np.random.default_rng(0)
        inliers = rng.normal(0, 1, size=(500, 2))
        outliers = rng.normal(8, 0.5, size=(10, 2))
        model = IsolationForest(num_trees=50, seed=1).fit(np.vstack([inliers, outliers]))
        scores = model.predict_proba(np.vstack([inliers[:50], outliers]))
        assert scores[50:].mean() > scores[:50].mean()

    def test_scores_in_unit_interval(self, feature_matrices):
        train, test = feature_matrices
        model = IsolationForest(num_trees=30, seed=2).fit(train.values)
        scores = model.predict_proba(test.values)
        assert np.all((scores > 0.0) & (scores < 1.0))

    def test_unsupervised_ignores_labels(self, feature_matrices):
        train, test = feature_matrices
        with_labels = IsolationForest(num_trees=20, seed=3).fit(train.values, train.labels)
        without = IsolationForest(num_trees=20, seed=3).fit(train.values)
        assert np.allclose(
            with_labels.predict_proba(test.values[:20]), without.predict_proba(test.values[:20])
        )

    def test_invalid_params(self):
        with pytest.raises(ModelError):
            IsolationForest(num_trees=0)
        with pytest.raises(ModelError):
            IsolationForest(subsample_size=1)


@settings(max_examples=30, deadline=None)
@given(
    labels=st.lists(st.integers(0, 1), min_size=2, max_size=80),
)
def test_entropy_information_gain_properties(labels):
    """0 <= entropy <= 1 for binary labels, and any split's gain is non-negative."""
    array = np.array(labels, dtype=float)
    value = entropy(array)
    assert 0.0 <= value <= 1.0 + 1e-9
    half = len(labels) // 2
    if half >= 1 and len(labels) - half >= 1:
        gain = information_gain(array, [array[:half], array[half:]])
        assert gain >= -1e-9
        assert gain <= value + 1e-9
