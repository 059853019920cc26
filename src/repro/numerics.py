"""Training arithmetic the classifiers (``models/``) and the graph learners
(``nrl/``) share, so a same-seed fit cannot differ by which trainer spelled it."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, clipped to ±30 so ``exp`` cannot overflow.  The clip
    is the two ufuncs ``np.clip`` applies (same bits, NaN included) without
    its Python-level wrapper, which costs more than the arithmetic on the
    few-row calls serving makes."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -30.0), 30.0)))


def class_weights(labels: np.ndarray, *, balanced: bool) -> np.ndarray:
    """Per-row loss weights for 0/1 ``labels``: ``balanced`` up-weights the
    positive rows by the inverse class frequency; otherwise, or when a class
    is empty, every row weighs 1."""
    positives = labels.sum()
    negatives = labels.shape[0] - positives
    if not balanced or positives == 0 or negatives == 0:
        return np.ones_like(labels)
    return np.where(labels > 0.5, negatives / positives, 1.0)


def column_scaling(features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations for ``(features - mean) / std``;
    a constant column gets 1.0 so it standardises to zeros, not NaN."""
    std = features.std(axis=0)
    return features.mean(axis=0), np.where(std == 0.0, 1.0, std)
