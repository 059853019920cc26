"""The exact tree grower: GBDT with a sorted split search per node.

The histogram grower of ``src/`` (:mod:`repro.models.tree.histogram`) bins
the training matrix once and scans at most ``num_bins - 1`` boundaries per
feature; this one sorts every node's rows and scans every distinct value.
It is kept as the oracle the histogram grower is compared with: with one bin
per distinct value both grow the same trees, and Figure 12's A/B
(``benchmarks/bench_fig12_gbdt_trees.py``) holds the histogram fit at least
3x faster at AUC parity.

* :func:`best_regression_split` — the exact second-order split search,
* :class:`RegressionTree` — a depth-limited regression tree grown with it,
* :class:`ExactGBDT` — :class:`~repro.models.gbdt.GradientBoostingClassifier`
  boosting :class:`RegressionTree` weak learners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.models.base import validate_training_inputs
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.tree.forest import CompiledForest
from repro.models.tree.node import TreeNode
from repro.numerics import class_weights


@dataclass
class RegressionSplit:
    """Best variance-reducing split for a regression target."""

    threshold: float
    score: float
    left_count: int
    right_count: int


def best_regression_split(
    values: np.ndarray,
    targets: np.ndarray,
    *,
    hessians: Optional[np.ndarray] = None,
    min_leaf: int = 1,
    reg_lambda: float = 1.0,
) -> Optional[RegressionSplit]:
    """Best threshold split maximising the boosting gain.

    Uses the standard second-order gain
    ``G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)`` where gradients are ``targets``
    and ``hessians`` default to 1 (plain variance reduction).
    """
    values = np.asarray(values, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = values.shape[0]
    if n < 2 * min_leaf:
        return None
    if hessians is None:
        hessians = np.ones_like(targets)
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    sorted_targets = targets[order]
    sorted_hessians = hessians[order]

    distinct = np.nonzero(np.diff(sorted_values) > 0)[0]
    if distinct.size == 0:
        return None
    left_counts = distinct + 1
    right_counts = n - left_counts
    valid = (left_counts >= min_leaf) & (right_counts >= min_leaf)
    if not np.any(valid):
        return None

    gradient_prefix = np.cumsum(sorted_targets)
    hessian_prefix = np.cumsum(sorted_hessians)
    total_gradient = gradient_prefix[-1]
    total_hessian = hessian_prefix[-1]

    left_gradient = gradient_prefix[distinct]
    left_hessian = hessian_prefix[distinct]
    right_gradient = total_gradient - left_gradient
    right_hessian = total_hessian - left_hessian

    parent_score = total_gradient**2 / (total_hessian + reg_lambda)
    gains = (
        left_gradient**2 / (left_hessian + reg_lambda)
        + right_gradient**2 / (right_hessian + reg_lambda)
        - parent_score
    )
    gains = np.where(valid, gains, -np.inf)
    best = int(np.argmax(gains))
    if not np.isfinite(gains[best]) or gains[best] <= 1e-12:
        return None
    position = distinct[best]
    threshold = 0.5 * (sorted_values[position] + sorted_values[position + 1])
    return RegressionSplit(
        threshold=float(threshold),
        score=float(gains[best]),
        left_count=int(left_counts[best]),
        right_count=int(right_counts[best]),
    )


class RegressionTree:
    """Depth-limited regression tree with optional per-row hessians.

    Parameters
    ----------
    max_depth:
        Maximum depth (the paper uses 3 for GBDT).
    min_samples_leaf:
        Minimum rows per leaf.
    reg_lambda:
        L2 regularisation added to the hessian sum in leaf values and gains.
    feature_indices:
        Optional array of column indices this tree is allowed to split on
        (set by GBDT's feature subsampling); leaf predictions still consume
        the full feature vector.
    """

    def __init__(
        self,
        *,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        reg_lambda: float = 1.0,
        feature_indices: Optional[np.ndarray] = None,
    ) -> None:
        if max_depth < 1:
            raise ModelError("max_depth must be at least 1")
        if min_samples_leaf < 1:
            raise ModelError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.feature_indices = feature_indices
        self._root: Optional[TreeNode] = None
        self._forest: Optional[CompiledForest] = None
        self.num_features_: Optional[int] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: Optional[np.ndarray] = None,
    ) -> "RegressionTree":
        """Fit the tree to (negative) gradients with optional hessians."""
        features = np.asarray(features, dtype=np.float64)
        gradients = np.asarray(gradients, dtype=np.float64).ravel()
        if features.ndim != 2:
            raise ModelError("features must be a 2-dimensional array")
        if gradients.shape[0] != features.shape[0]:
            raise ModelError("gradients length does not match the number of rows")
        if hessians is None:
            hessians = np.ones_like(gradients)
        else:
            hessians = np.asarray(hessians, dtype=np.float64).ravel()
            if hessians.shape[0] != features.shape[0]:
                raise ModelError("hessians length does not match the number of rows")
        self._root = self._build(features, gradients, hessians, depth=0)
        self._forest = CompiledForest([self._root])
        self.num_features_ = features.shape[1]
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._forest is None:
            raise NotFittedError("RegressionTree must be fitted before prediction")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if features.ndim != 2 or features.shape[1] != self.num_features_:
            raise ModelError(
                f"RegressionTree was fitted on {self.num_features_} features, "
                f"got an array of shape {features.shape}"
            )
        return self._forest.decision_function(features)

    @property
    def tree_(self) -> TreeNode:
        if self._root is None:
            raise NotFittedError("RegressionTree must be fitted before inspection")
        return self._root

    # ------------------------------------------------------------------
    def _leaf_value(self, gradients: np.ndarray, hessians: np.ndarray) -> float:
        return float(gradients.sum() / (hessians.sum() + self.reg_lambda))

    def _build(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        *,
        depth: int,
    ) -> TreeNode:
        value = self._leaf_value(gradients, hessians)
        node = TreeNode.leaf(value, int(gradients.shape[0]))
        if depth >= self.max_depth or gradients.shape[0] < 2 * self.min_samples_leaf:
            return node

        candidate_columns = (
            self.feature_indices
            if self.feature_indices is not None
            else np.arange(features.shape[1])
        )
        best_gain = 0.0
        best_feature: Optional[int] = None
        best_threshold = 0.0
        for feature_index in candidate_columns:
            split = best_regression_split(
                features[:, feature_index],
                gradients,
                hessians=hessians,
                min_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
            )
            if split is not None and split.score > best_gain:
                best_gain = split.score
                best_feature = int(feature_index)
                best_threshold = split.threshold
        if best_feature is None:
            return node

        mask = features[:, best_feature] <= best_threshold
        node.is_leaf = False
        node.feature_index = best_feature
        node.threshold = best_threshold
        node.left = self._build(features[mask], gradients[mask], hessians[mask], depth=depth + 1)
        node.right = self._build(
            features[~mask], gradients[~mask], hessians[~mask], depth=depth + 1
        )
        return node


class ExactGBDT(GradientBoostingClassifier):
    """:class:`GradientBoostingClassifier` whose weak learners are exact
    :class:`RegressionTree` s grown on the raw features (``num_bins`` is
    unused).  Row and feature subsamples are drawn from the inherited rng in
    the same order as the histogram fit, and the fitted trees are scored by
    the same :class:`CompiledForest`."""

    name = "gbdt_exact"

    def fit(self, features: np.ndarray, labels: Optional[np.ndarray] = None) -> "ExactGBDT":
        features, labels = validate_training_inputs(features, labels)
        if labels is None:
            raise ModelError(f"{type(self).__name__} is supervised and requires labels")
        weights = class_weights(labels, balanced=self.class_weight == "balanced")

        self._initial_score = self._initial_prediction(labels, weights)
        scores = np.full(labels.shape[0], self._initial_score)
        self._trees = []
        self.train_loss_ = []

        num_rows, num_features = features.shape
        rows_per_tree = max(2 * self.min_samples_leaf, int(round(self.subsample_rows * num_rows)))
        features_per_tree = max(1, int(round(self.subsample_features * num_features)))

        for _ in range(self.num_trees):
            gradients, hessians = self._gradients(labels, scores, weights)
            row_indices = self._rng.choice(num_rows, size=min(rows_per_tree, num_rows), replace=False)
            feature_indices = self._rng.choice(
                num_features, size=features_per_tree, replace=False
            )
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
                feature_indices=feature_indices,
            ).fit(features[row_indices], gradients[row_indices], hessians[row_indices])
            scores += self.learning_rate * tree.predict(features)
            self._trees.append(tree)
            self.train_loss_.append(self._loss(labels, scores, weights))

        self._forest = CompiledForest(
            [tree.tree_ for tree in self._trees],
            learning_rate=self.learning_rate,
            initial_score=self._initial_score,
        )
        self.num_features_ = num_features
        self._fitted = True
        return self
