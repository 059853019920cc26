"""ID3 decision-tree classifier (Quinlan, 1986).

The paper's first rule-based baseline.  ID3 treats every feature as a
categorical attribute and splits multiway on the attribute with the highest
information gain.  Continuous basic features must therefore be discretised
first — the experiment harness bins them exactly as Section 5.1 describes
("we discretize the data into different bins").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import ModelError
from repro.features.discretization import quantile_edges
from repro.models.base import BaseDetector, validate_training_inputs
from repro.models.tree.node import TreeNode
from repro.models.tree.splitter import best_categorical_split


class ID3Classifier(BaseDetector):
    """ID3 with multiway categorical splits and information gain.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ID3 has no pruning, so the depth cap is the only
        regularisation.
    min_samples_split:
        Minimum number of rows required to attempt a split.
    discretize_bins:
        When positive, continuous input columns are quantile-binned into this
        many bins at ``fit`` time (and the same binning is applied at
        prediction time through the stored bin edges of the training data).
    """

    name = "id3"

    def __init__(
        self,
        *,
        max_depth: int = 6,
        min_samples_split: int = 20,
        min_samples_leaf: int = 5,
        discretize_bins: int = 10,
    ) -> None:
        super().__init__()
        if max_depth < 1:
            raise ModelError("max_depth must be at least 1")
        if min_samples_split < 2:
            raise ModelError("min_samples_split must be at least 2")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.discretize_bins = discretize_bins
        self._root: Optional[TreeNode] = None
        self._bin_edges: Optional[List[Optional[np.ndarray]]] = None

    # ------------------------------------------------------------------
    criterion = "gain"

    def fit(self, features: np.ndarray, labels: Optional[np.ndarray] = None) -> "ID3Classifier":
        features, labels = validate_training_inputs(features, labels)
        if labels is None:
            raise ModelError(f"{type(self).__name__} is supervised and requires labels")
        encoded = self._fit_discretizer(features)
        self._root = self._build(encoded, labels, depth=0)
        self._fitted = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = self._check_predict_inputs(features)
        assert self._root is not None
        encoded = self._apply_discretizer(features)
        return self._root.predict(encoded)

    # ------------------------------------------------------------------
    @property
    def tree_(self) -> TreeNode:
        if self._root is None:
            raise ModelError("tree has not been fitted")
        return self._root

    # ------------------------------------------------------------------
    def _fit_discretizer(self, features: np.ndarray) -> np.ndarray:
        if self.discretize_bins <= 0:
            self._bin_edges = None
            return features
        edges: List[Optional[np.ndarray]] = []
        for column_index in range(features.shape[1]):
            column = features[:, column_index]
            if np.unique(column).size <= self.discretize_bins:
                edges.append(None)
            elif self.discretize_bins == 1:
                edges.append(np.empty(0))  # one bin has no cut points
            else:
                edges.append(quantile_edges(column, self.discretize_bins))
        self._bin_edges = edges
        return self._apply_discretizer(features)

    def _apply_discretizer(self, features: np.ndarray) -> np.ndarray:
        if self._bin_edges is None:
            return features
        encoded = features.copy()
        for column_index, column_edges in enumerate(self._bin_edges):
            if column_edges is None:
                continue
            encoded[:, column_index] = np.searchsorted(
                column_edges, features[:, column_index], side="right"
            )
        return encoded

    # ------------------------------------------------------------------
    def _build(self, features: np.ndarray, labels: np.ndarray, *, depth: int) -> TreeNode:
        positive_rate = float(labels.mean()) if labels.size else 0.0
        node = TreeNode.leaf(positive_rate, int(labels.size))
        if (
            depth >= self.max_depth
            or labels.size < self.min_samples_split
            or positive_rate in (0.0, 1.0)
        ):
            return node

        best_feature = None
        best_split = None
        for feature_index in range(features.shape[1]):
            split = best_categorical_split(
                features[:, feature_index],
                labels,
                criterion=self.criterion,
                min_leaf=self.min_samples_leaf,
            )
            if split is None:
                continue
            if best_split is None or split.score > best_split.score:
                best_split = split
                best_feature = feature_index
        if best_split is None or best_feature is None:
            return node

        node.is_leaf = False
        node.feature_index = best_feature
        node.threshold = None
        for category in best_split.categories:
            mask = features[:, best_feature] == category
            child = self._build(features[mask], labels[mask], depth=depth + 1)
            node.children[float(category)] = child
        return node
