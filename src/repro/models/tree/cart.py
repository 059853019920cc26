"""Regression trees (CART style) — the weak learners inside GBDT.

Each tree fits the negative gradients of the boosting objective with binary
threshold splits chosen by the second-order gain, and stores per-leaf Newton
step values.  The paper's GBDT uses trees of depth 3 with row/column
subsampling of 0.4; subsampling is handled by the boosting driver, the tree
only sees the (sub)sample it is given.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.models.tree.forest import CompiledForest
from repro.models.tree.node import TreeNode
from repro.models.tree.splitter import best_regression_split


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
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._forest is None:
            raise NotFittedError("RegressionTree must be fitted before prediction")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
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
