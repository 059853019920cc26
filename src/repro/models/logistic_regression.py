"""Logistic Regression with L1 regularisation and feature discretisation.

Section 5.1 of the paper: LR is trained with L1 regularisation (weight 0.1),
300 iterations as the stopping criterion, and feature discretisation
pre-processing ("which tremendously improves performance"); the best reported
discretisation bin size is 200.  We implement proximal gradient descent
(ISTA with a soft-thresholding step) on the logistic loss, with the optional
quantile discretisation + one-hot expansion applied inside the model so that
callers can hand it the same raw feature matrix every other detector receives.
"""

from __future__ import annotations

from typing import ClassVar, Mapping, Optional

import numpy as np

from repro.contracts import NON_NEGATIVE, POSITIVE, SEED, Contract, check_fields, integer, one_of
from repro.exceptions import ModelError
from repro.features.discretization import Discretizer
from repro.models.base import BaseDetector, validate_training_inputs
from repro.numerics import class_weights, column_scaling, sigmoid


def soft_threshold(values: np.ndarray, amount: float) -> np.ndarray:
    """Soft-thresholding operator used by the L1 proximal step."""
    return np.sign(values) * np.maximum(np.abs(values) - amount, 0.0)


class LogisticRegression(BaseDetector):
    """L1-regularised logistic regression trained with proximal gradient descent.

    Parameters
    ----------
    l1:
        L1 penalty weight (paper: 0.1).
    iterations:
        Number of full-batch proximal gradient steps (paper: 300).
    learning_rate:
        Step size; decayed harmonically over iterations.
    discretize_bins:
        When positive, continuous columns are quantile-binned into this many
        bins and one-hot encoded before fitting (paper's best: 200).  Zero
        disables discretisation and fits on standardised raw features.
    class_weight:
        ``"balanced"`` re-weights the minority class by the inverse class
        frequency (important under the extreme fraud imbalance); ``None``
        uses plain unweighted loss.
    """

    name = "logistic_regression"

    #: The contract of each hyperparameter, checked by ``__init__``.
    contracts: ClassVar[Mapping[str, Contract]] = {
        "l1": NON_NEGATIVE,
        "iterations": integer(1),
        "learning_rate": POSITIVE,
        "discretize_bins": integer(0),
        "class_weight": one_of((None, "balanced")),
        "seed": SEED,
    }

    def __init__(
        self,
        *,
        l1: float = 0.1,
        iterations: int = 300,
        learning_rate: float = 0.5,
        discretize_bins: int = 200,
        class_weight: Optional[str] = "balanced",
        fit_intercept: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.l1 = l1
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.discretize_bins = discretize_bins
        self.class_weight = class_weight
        self.fit_intercept = fit_intercept
        self.seed = seed
        check_fields(self, ModelError)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.loss_history_: list[float] = []
        self._discretizer: Optional[Discretizer] = None
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: Optional[np.ndarray] = None) -> "LogisticRegression":
        features, labels = validate_training_inputs(features, labels)
        if labels is None:
            raise ModelError("LogisticRegression is supervised and requires labels")
        design = self._fit_preprocess(features)
        weights = class_weights(labels, balanced=self.class_weight == "balanced")

        num_features = design.shape[1]
        coef = np.zeros(num_features)
        intercept = 0.0
        self.loss_history_ = []
        for iteration in range(self.iterations):
            step = self.learning_rate / (1.0 + 0.01 * iteration)
            scores = design @ coef + intercept
            probabilities = sigmoid(scores)
            residual = weights * (probabilities - labels)
            gradient = design.T @ residual / design.shape[0]
            coef = soft_threshold(coef - step * gradient, step * self.l1 / design.shape[0])
            if self.fit_intercept:
                intercept -= step * float(residual.mean())
            eps = 1e-10
            loss = float(
                -np.mean(
                    weights
                    * (labels * np.log(probabilities + eps) + (1 - labels) * np.log(1 - probabilities + eps))
                )
                + self.l1 * np.abs(coef).sum() / design.shape[0]
            )
            self.loss_history_.append(loss)

        self.coef_ = coef
        self.intercept_ = intercept
        self._fitted = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = self._check_predict_inputs(features)
        design = self._apply_preprocess(features)
        assert self.coef_ is not None
        return sigmoid(design @ self.coef_ + self.intercept_)

    # ------------------------------------------------------------------
    def _fit_preprocess(self, features: np.ndarray) -> np.ndarray:
        self._discretizer = None
        self._mean = self._std = None
        if self.discretize_bins and self.discretize_bins > 1:
            self._discretizer = Discretizer(self.discretize_bins).fit(features)
        else:
            self._mean, self._std = column_scaling(features)
        return self._apply_preprocess(features)

    def _apply_preprocess(self, features: np.ndarray) -> np.ndarray:
        if self._discretizer is not None:
            return self._discretizer.transform(features)
        assert self._mean is not None and self._std is not None
        return (features - self._mean) / self._std
