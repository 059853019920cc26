"""Common interface of all detection methods."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional

import numpy as np

from repro.exceptions import ModelError, NotFittedError


def validate_training_inputs(
    features: np.ndarray, labels: Optional[np.ndarray] = None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Coerce and validate (features, labels) for ``fit``.

    Raises :class:`ModelError` on shape mismatches, empty inputs or non-binary
    labels — fail fast rather than producing a silently broken model.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ModelError("features must be a 2-dimensional array")
    if features.shape[0] == 0:
        raise ModelError("cannot fit on an empty feature matrix")
    if not np.isfinite(features).all():
        raise ModelError("features contain NaN or infinite values")
    if labels is None:
        return features, None
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if labels.shape[0] != features.shape[0]:
        raise ModelError(
            f"{labels.shape[0]} labels do not match {features.shape[0]} feature rows"
        )
    unique = np.unique(labels)
    if not np.all(np.isin(unique, [0.0, 1.0])):
        raise ModelError(f"labels must be binary (0/1), found values {unique[:5]}")
    return features, labels


class BaseDetector(ABC):
    """Base class of every detection method (rule-based, anomaly, classifier)."""

    #: Human-readable name used in experiment reports (Table 1 rows).
    name: str = "detector"

    #: Training matrix width, for detectors that record it at ``fit``;
    #: prediction then rejects matrices of any other width.
    num_features_: Optional[int] = None

    def __init__(self) -> None:
        self._fitted = False

    # ------------------------------------------------------------------
    @abstractmethod
    def fit(self, features: np.ndarray, labels: Optional[np.ndarray] = None) -> "BaseDetector":
        """Train the detector.  Unsupervised methods ignore ``labels``."""

    @abstractmethod
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Fraud probability (or anomaly score in [0, 1]) per row."""

    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray, *, threshold: float = 0.5) -> np.ndarray:
        """Binary fraud decision per row."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before prediction")

    def _check_predict_inputs(self, features: np.ndarray) -> np.ndarray:
        self._check_fitted()
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if features.ndim != 2:
            raise ModelError("features must be a 2-dimensional array")
        self._check_width(features.shape[1])
        return features

    def _check_width(self, width: int) -> None:
        if self.num_features_ is not None and width != self.num_features_:
            raise ModelError(
                f"{type(self).__name__} was fitted on {self.num_features_} features, got {width}"
            )

    def get_params(self) -> Dict[str, object]:
        """Hyperparameters of the detector (for logging and model registry)."""
        return {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_") and not isinstance(value, np.ndarray)
        }
