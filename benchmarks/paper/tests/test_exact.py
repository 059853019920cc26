"""Tests of the exact sorted-search tree grower (``benchmarks/paper/exact.py``)
and of its parity with the histogram grower GBDT uses: split search, tree,
boosted ensemble, compiled-forest scoring and the predictions the exact mode
of ``GradientBoostingClassifier`` gave before the grower moved here."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from benchmarks.paper.exact import ExactGBDT, RegressionTree, best_regression_split
from repro.exceptions import ModelError, NotFittedError
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.tree.forest import CompiledForest
from repro.models.tree.histogram import HistogramBinner, HistogramTreeBuilder, build_histograms
from repro.models.tree.splitter import best_histogram_split
from tests.test_compiled_forest import (
    assert_refit_rebuilds_the_forest,
    assert_scores_like_the_oracle,
)


class TestSplitters:
    def test_best_regression_split_reduces_error(self):
        values = np.linspace(0, 1, 50)
        targets = np.where(values > 0.5, 2.0, -2.0)
        split = best_regression_split(values, targets)
        assert split is not None
        assert abs(split.threshold - 0.5) < 0.1


class TestRegressionTree:
    def test_fits_piecewise_constant(self):
        values = np.linspace(0, 1, 200).reshape(-1, 1)
        targets = np.where(values[:, 0] > 0.5, 1.0, -1.0)
        tree = RegressionTree(max_depth=2, min_samples_leaf=5).fit(values, targets)
        predictions = tree.predict(values)
        assert np.corrcoef(predictions, targets)[0, 1] > 0.95

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(300, 4))
        targets = rng.normal(size=300)
        tree = RegressionTree(max_depth=3).fit(features, targets)
        assert tree.tree_.depth() <= 3

    def test_feature_subset_restricts_splits(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(300, 4))
        targets = features[:, 3] * 2.0
        tree = RegressionTree(max_depth=2, feature_indices=np.array([0, 1])).fit(features, targets)

        def _features_used(node, used):
            if not node.is_leaf:
                used.add(node.feature_index)
                for child in node.iter_children():
                    _features_used(child, used)
            return used

        assert _features_used(tree.tree_, set()) <= {0, 1}

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            RegressionTree().predict(np.ones((2, 2)))

    def test_predict_checks_the_fitted_width(self):
        """A tree fitted on 5 columns scored a 7-column matrix silently and
        died on a 3-column one with a bare IndexError."""
        rng = np.random.default_rng(5)
        features = rng.normal(size=(200, 5))
        tree = RegressionTree(max_depth=3).fit(features, features[:, 4] - features[:, 0])
        for bad in (np.zeros((4, 7)), np.zeros((4, 3)), np.zeros(3), np.zeros((2, 2, 5))):
            with pytest.raises(ModelError, match="fitted on 5 features"):
                tree.predict(bad)
        assert tree.predict(features[0]).shape == (1,)
        assert tree.predict(np.zeros((0, 5))).shape == (0,)


class TestHistogramParity:
    """With one bin per distinct value the histogram search degenerates to
    the exact sorted search, split by split and tree by tree."""

    def test_matches_exact_tree_on_integer_data(self):
        """One bin per distinct value reproduces the exact sorted search."""
        rng = np.random.default_rng(0)
        features = rng.integers(0, 8, size=(120, 5)).astype(float)
        gradients = rng.normal(size=120)
        exact = RegressionTree(max_depth=3, min_samples_leaf=5).fit(features, gradients)
        binner = HistogramBinner(num_bins=256).fit(features)
        binned = binner.transform(features)
        hist = HistogramTreeBuilder(binner, max_depth=3, min_samples_leaf=5).build(
            binned, gradients, np.ones(120)
        )
        raw = CompiledForest([hist.tree_]).decision_function(features)
        assert np.allclose(exact.predict(features), raw)
        assert np.array_equal(raw, hist.predict_binned(binned))

    def test_best_histogram_split_agrees_with_regression_split(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 6, size=200).astype(float)
        gradients = np.where(values > 2.5, 1.0, -1.0) + rng.normal(size=200) * 0.1
        hessians = np.ones(200)
        exact = best_regression_split(values, gradients, hessians=hessians, min_leaf=5)
        binner = HistogramBinner(num_bins=64).fit(values.reshape(-1, 1))
        binned = binner.transform(values.reshape(-1, 1))
        grad_hist, hess_hist, count_hist = build_histograms(
            binned, gradients, hessians, num_bins=64
        )
        hist = best_histogram_split(
            grad_hist[0], hess_hist[0], count_hist[0], min_leaf=5
        )
        assert exact is not None and hist is not None
        assert hist.score == pytest.approx(exact.score)
        assert hist.left_count == exact.left_count
        assert hist.right_count == exact.right_count

    def test_identical_predictions_when_bins_exceed_distinct_values(self):
        """With one bin per distinct value (and the full row sample, so both
        methods see every distinct value) the histogram search degenerates to
        the exact sorted search: same trees, same predictions."""
        rng = np.random.default_rng(3)
        features = rng.integers(0, 8, size=(120, 5)).astype(float)
        labels = ((features[:, 0] + features[:, 1] - features[:, 2]) > 4).astype(float)
        kwargs = dict(num_trees=30, subsample_rows=1.0, seed=3)
        exact = ExactGBDT(**kwargs).fit(features, labels)
        hist = GradientBoostingClassifier(num_bins=256, **kwargs).fit(features, labels)
        assert np.allclose(
            exact.predict_proba(features), hist.predict_proba(features), atol=1e-10
        )

    def test_auc_parity_on_fraud_data(self, feature_matrices):
        from repro.core.evaluation import roc_auc

        train, test = feature_matrices
        aucs = {}
        for method, model_class in (("exact", ExactGBDT), ("hist", GradientBoostingClassifier)):
            model = model_class(num_trees=60, seed=7).fit(train.values, train.labels)
            aucs[method] = roc_auc(test.labels, model.predict_proba(test.values))
        assert aucs["hist"] >= aucs["exact"] - 0.01


class TestExactGBDT:
    @pytest.mark.parametrize("objective", ["logistic", "squared"])
    def test_scores_like_the_oracle(self, objective, small_classification_data):
        features, labels = small_classification_data
        features, labels = features[:240], labels[:240]
        model = ExactGBDT(num_trees=14, objective=objective, seed=5).fit(features, labels)
        assert_scores_like_the_oracle(model, features.shape[1])

    def test_refit_rebuilds_the_forest(self, small_classification_data):
        features, labels = small_classification_data
        assert_refit_rebuilds_the_forest(
            lambda: ExactGBDT(num_trees=14, objective="logistic", seed=5), features, labels
        )

    @pytest.mark.parametrize(
        "objective, digest",
        [("logistic", "c239dd8423dd13bd"), ("squared", "51b97e68f70f7fc6")],
    )
    def test_predictions_are_the_former_exact_mode_bytes(
        self, small_classification_data, objective, digest
    ):
        """The digests were recorded from
        ``GradientBoostingClassifier(tree_method="exact")`` before the exact
        grower left ``src/``: the oracle moved, its predictions did not."""
        features, labels = small_classification_data
        model = ExactGBDT(num_trees=20, objective=objective, seed=3).fit(features, labels)
        scores = model.predict_proba(features)
        assert hashlib.sha256(scores.tobytes()).hexdigest()[:16] == digest
