"""Gradient Boosting Decision Trees.

The paper's strongest detector: 400 trees of depth 3, row and feature
subsampling of 0.4 to prevent overfitting.  We implement standard gradient
boosting with depth-limited regression trees grown from gradient histograms
(:class:`~repro.models.tree.histogram.HistogramTreeBuilder`) as weak learners
and two objectives:

* ``"logistic"`` — binomial deviance with Newton leaf values (default),
* ``"squared"`` — least-squares boosting on the 0/1 labels, matching the
  paper's statement that root mean square error is used as the objective.

Both produce scores mapped to [0, 1] by :meth:`predict_proba`, so the
evaluation layer treats GBDT exactly like every other detector.  The exact
sorted-search grower the histogram one is compared with lives in
``benchmarks/paper/exact.py``.
"""

from __future__ import annotations

from typing import ClassVar, Iterator, List, Literal, Mapping, Optional, Tuple, get_args

import numpy as np

from repro.contracts import NON_NEGATIVE, SEED, Contract, check_fields, integer, number, one_of
from repro.exceptions import ModelError
from repro.models.base import BaseDetector, validate_training_inputs
from repro.models.tree.forest import CompiledForest
from repro.models.tree.histogram import HistogramBinner, HistogramTree, HistogramTreeBuilder
from repro.numerics import class_weights, sigmoid
from repro.rng import ensure_rng

Objective = Literal["logistic", "squared"]


class GradientBoostingClassifier(BaseDetector):
    """Gradient boosting with regression-tree weak learners.

    Parameters
    ----------
    num_trees:
        Number of boosting rounds (paper: 400).
    max_depth:
        Depth of each tree (paper: 3).
    learning_rate:
        Shrinkage applied to each tree's contribution.
    subsample_rows, subsample_features:
        Row / feature subsampling rates per tree (paper: 0.4 each).
    objective:
        ``"logistic"`` (binomial deviance) or ``"squared"`` (RMSE objective,
        as stated in the paper).
    class_weight:
        ``"balanced"`` up-weights fraud rows by the inverse class frequency.
    num_bins:
        Histogram resolution: the training matrix is binned once with
        :class:`~repro.models.tree.histogram.HistogramBinner` and every tree
        grows from gradient/hessian histograms over those bins.
    """

    name = "gbdt"

    #: The contract of each hyperparameter, checked by ``__init__``.
    contracts: ClassVar[Mapping[str, Contract]] = {
        "num_trees": integer(1),
        "max_depth": integer(1),
        "learning_rate": number(gt=0.0, le=1.0),
        "subsample_rows": number(gt=0.0, le=1.0),
        "subsample_features": number(gt=0.0, le=1.0),
        "min_samples_leaf": integer(1),
        "reg_lambda": NON_NEGATIVE,
        "objective": one_of(get_args(Objective)),
        "class_weight": one_of((None, "balanced")),
        "num_bins": integer(2, 65536),
        "seed": SEED,
    }

    def __init__(
        self,
        *,
        num_trees: int = 400,
        max_depth: int = 3,
        learning_rate: float = 0.1,
        subsample_rows: float = 0.4,
        subsample_features: float = 0.4,
        min_samples_leaf: int = 5,
        reg_lambda: float = 1.0,
        objective: Objective = "logistic",
        class_weight: Optional[str] = "balanced",
        num_bins: int = 64,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.num_trees = num_trees
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.subsample_rows = subsample_rows
        self.subsample_features = subsample_features
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.objective = objective
        self.class_weight = class_weight
        self.num_bins = num_bins
        self.seed = seed
        check_fields(self, ModelError)
        self._rng = ensure_rng(seed)
        self._trees: List[HistogramTree] = []
        self._forest: Optional[CompiledForest] = None
        self._binner: Optional[HistogramBinner] = None
        self._initial_score: float = 0.0
        self.train_loss_: List[float] = []

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: Optional[np.ndarray] = None) -> "GradientBoostingClassifier":
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

        # Bin the full matrix once; every tree after this touches only the
        # compact integer matrix.
        self._binner = HistogramBinner(num_bins=self.num_bins).fit(features)
        binned = self._binner.transform(features)
        self._begin_fit(num_rows, features_per_tree)

        for round_index in range(self.num_trees):
            gradients, hessians = self._round_gradients(round_index, labels, scores, weights)
            row_indices = self._rng.choice(num_rows, size=min(rows_per_tree, num_rows), replace=False)
            feature_indices = self._rng.choice(
                num_features, size=features_per_tree, replace=False
            )
            tree = self._grow_histogram_tree(
                binned, gradients, hessians, row_indices, feature_indices
            )
            scores += self.learning_rate * tree.predict_binned(binned)
            self._trees.append(tree)
            self.train_loss_.append(self._loss(labels, scores, weights))
            self._end_round()

        # Every fit recompiles: nothing of an earlier forest survives a refit.
        self._forest = CompiledForest(
            [tree.tree_ for tree in self._trees],
            learning_rate=self.learning_rate,
            initial_score=self._initial_score,
        )
        self.num_features_ = num_features
        self._fitted = True
        return self

    # The steps of the loop that DistributedGBDT moves onto the PS cluster.
    def _begin_fit(self, num_rows: int, features_per_tree: int) -> None:
        pass

    def _round_gradients(
        self, round_index: int, labels: np.ndarray, scores: np.ndarray, weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self._gradients(labels, scores, weights)

    def _grow_histogram_tree(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        row_indices: np.ndarray,
        feature_indices: np.ndarray,
    ) -> HistogramTree:
        assert self._binner is not None
        builder = HistogramTreeBuilder(
            self._binner,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=self.reg_lambda,
            feature_indices=feature_indices,
        )
        return builder.build(binned[row_indices], gradients[row_indices], hessians[row_indices])

    def _end_round(self) -> None:
        pass

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self._probabilities(self.decision_function(features))

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw additive score before the probability mapping."""
        features = self._check_predict_inputs(features)
        assert self._forest is not None
        return self._forest.decision_function(features)

    def staged_predict_proba(
        self, features: np.ndarray, *, every: int = 1
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield (num_trees_used, probabilities) as trees are added.

        Used by the Figure 12 benchmark to evaluate 100/200/400/800 trees from
        a single fitted 800-tree model instead of refitting four times.  Every
        ``every``-th count is yielded, and the last; ``every`` must be >= 1.
        """
        if every < 1:
            raise ModelError(f"every must be at least 1, got {every}")
        features = self._check_predict_inputs(features)
        assert self._forest is not None
        total = len(self._trees)
        counts = [used for used in range(1, total + 1) if used % every == 0 or used == total]
        staged = self._forest.scores_after(features, counts)
        for column, used in enumerate(counts):
            yield used, self._probabilities(staged[:, column])

    def _probabilities(self, scores: np.ndarray) -> np.ndarray:
        if self.objective == "logistic":
            return sigmoid(scores)
        return np.clip(scores, 0.0, 1.0)

    @property
    def num_fitted_trees(self) -> int:
        return len(self._trees)

    def feature_importances(self, num_features: int) -> np.ndarray:
        """Split-count feature importances (normalised to sum to 1), one per
        feature of the fitted width, which ``num_features`` must equal."""
        self._check_fitted()
        self._check_width(num_features)
        assert self._forest is not None
        counts = self._forest.split_counts(num_features).astype(np.float64)
        total = counts.sum()
        return counts / total if total > 0 else counts

    # ------------------------------------------------------------------
    def _initial_prediction(self, labels: np.ndarray, weights: np.ndarray) -> float:
        mean = float(np.average(labels, weights=weights))
        mean = min(max(mean, 1e-6), 1.0 - 1e-6)
        if self.objective == "logistic":
            return float(np.log(mean / (1.0 - mean)))
        return mean

    def _gradients(
        self, labels: np.ndarray, scores: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Negative gradients and hessians of the objective at ``scores``."""
        if self.objective == "logistic":
            probabilities = sigmoid(scores)
            gradients = weights * (labels - probabilities)
            hessians = weights * probabilities * (1.0 - probabilities)
            return gradients, np.maximum(hessians, 1e-6)
        residuals = weights * (labels - scores)
        return residuals, weights.copy()

    def _loss(self, labels: np.ndarray, scores: np.ndarray, weights: np.ndarray) -> float:
        if self.objective == "logistic":
            probabilities = sigmoid(scores)
            eps = 1e-10
            return float(
                -np.average(
                    labels * np.log(probabilities + eps)
                    + (1 - labels) * np.log(1 - probabilities + eps),
                    weights=weights,
                )
            )
        return float(np.sqrt(np.average((labels - scores) ** 2, weights=weights)))
