"""Isolation Forest (Liu, Ting and Zhou, 2008).

The paper's anomaly-detection baseline: features are treated as attributes and
fraud is predicted directly from the anomaly score without any labels.  The
paper configures 100 trees on the raw basic features and finds it performs the
worst of the five detection methods — outliers are often unusual for reasons
other than fraud — which our benchmarks reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import ModelError
from repro.models.base import BaseDetector, validate_training_inputs
from repro.rng import SeedLike, ensure_rng


def average_path_length(num_samples: float) -> float:
    """Expected path length c(n) of an unsuccessful BST search (the paper's normaliser)."""
    if num_samples <= 1:
        return 0.0
    if num_samples == 2:
        return 1.0
    harmonic = np.log(num_samples - 1.0) + np.euler_gamma
    return float(2.0 * harmonic - 2.0 * (num_samples - 1.0) / num_samples)


@dataclass
class _IsolationNode:
    """Node of an isolation tree."""

    size: int
    feature_index: int = -1
    threshold: float = 0.0
    left: Optional["_IsolationNode"] = None
    right: Optional["_IsolationNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class IsolationForest(BaseDetector):
    """Unsupervised anomaly detector based on random isolation trees.

    Parameters
    ----------
    num_trees:
        Number of isolation trees (the paper uses 100).
    subsample_size:
        Rows drawn (without replacement) per tree; 256 as in the original paper.
    seed:
        Seed of the random splits.
    """

    name = "isolation_forest"

    def __init__(
        self,
        *,
        num_trees: int = 100,
        subsample_size: int = 256,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if num_trees < 1:
            raise ModelError("num_trees must be at least 1")
        if subsample_size < 2:
            raise ModelError("subsample_size must be at least 2")
        self.num_trees = num_trees
        self.subsample_size = subsample_size
        self.seed = seed
        self._trees: List[_IsolationNode] = []
        self._rng = ensure_rng(seed)
        self._normalizer: float = 1.0

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: Optional[np.ndarray] = None) -> "IsolationForest":
        """Build the forest.  ``labels`` are ignored (unsupervised)."""
        features, _ = validate_training_inputs(features, None)
        sample_size = min(self.subsample_size, features.shape[0])
        height_limit = int(np.ceil(np.log2(max(sample_size, 2))))
        self._trees = []
        for _ in range(self.num_trees):
            indices = self._rng.choice(features.shape[0], size=sample_size, replace=False)
            self._trees.append(self._build_tree(features[indices], 0, height_limit))
        self._normalizer = average_path_length(float(sample_size))
        self._fitted = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Anomaly score in (0, 1): higher means more isolated (more suspicious)."""
        features = self._check_predict_inputs(features)
        depths = np.zeros(features.shape[0])
        for tree in self._trees:
            depths += np.array([self._path_length(row, tree, 0) for row in features])
        mean_depth = depths / len(self._trees)
        normalizer = self._normalizer if self._normalizer > 0 else 1.0
        return np.power(2.0, -mean_depth / normalizer)

    # ------------------------------------------------------------------
    def _build_tree(
        self, features: np.ndarray, depth: int, height_limit: int
    ) -> _IsolationNode:
        num_rows = features.shape[0]
        if depth >= height_limit or num_rows <= 1:
            return _IsolationNode(size=num_rows)
        # Pick a random feature with non-constant values, if any exists.
        candidate_order = self._rng.permutation(features.shape[1])
        for feature_index in candidate_order:
            column = features[:, feature_index]
            low, high = column.min(), column.max()
            if high > low:
                threshold = float(self._rng.uniform(low, high))
                mask = column < threshold
                return _IsolationNode(
                    size=num_rows,
                    feature_index=int(feature_index),
                    threshold=threshold,
                    left=self._build_tree(features[mask], depth + 1, height_limit),
                    right=self._build_tree(features[~mask], depth + 1, height_limit),
                )
        return _IsolationNode(size=num_rows)

    def _path_length(self, row: np.ndarray, node: _IsolationNode, depth: int) -> float:
        while not node.is_leaf:
            if row[node.feature_index] < node.threshold:
                node = node.left  # type: ignore[assignment]
            else:
                node = node.right  # type: ignore[assignment]
            depth += 1
        return depth + average_path_length(float(node.size))
