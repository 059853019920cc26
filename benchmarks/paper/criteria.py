"""Split criteria of the rule-based baselines: entropy and information gain
(ID3) and gain ratio (C4.5/C5.0, credited by the paper for C5.0's better "data
discretization and segmentation"), with the best-split searches over them and
the row-by-row leaf lookup both trees score with."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ModelError
from repro.models.tree.node import TreeNode

_EPS = 1e-12


def entropy(labels: np.ndarray) -> float:
    """Shannon entropy (base 2) of a binary or categorical label vector."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    probabilities = counts / counts.sum()
    value = float(-np.sum(probabilities * np.log2(probabilities + _EPS)))
    return max(value, 0.0)


def information_gain(labels: np.ndarray, partitions: list[np.ndarray]) -> float:
    """Information gain of splitting ``labels`` into ``partitions``."""
    total = sum(part.size for part in partitions)
    if total == 0:
        return 0.0
    if total != np.asarray(labels).size:
        raise ModelError("partitions must cover exactly the parent labels")
    parent = entropy(labels)
    children = sum((part.size / total) * entropy(part) for part in partitions)
    return float(parent - children)


def split_information(partitions: list[np.ndarray]) -> float:
    """Split information (intrinsic value) term of the gain ratio."""
    total = sum(part.size for part in partitions)
    if total == 0:
        return 0.0
    value = 0.0
    for part in partitions:
        if part.size == 0:
            continue
        fraction = part.size / total
        value -= fraction * np.log2(fraction + _EPS)
    return float(value)


def gain_ratio(labels: np.ndarray, partitions: list[np.ndarray]) -> float:
    """C4.5's gain ratio: information gain normalised by split information."""
    gain = information_gain(labels, partitions)
    split_info = split_information(partitions)
    if split_info <= _EPS:
        return 0.0
    return float(gain / split_info)


# ---------------------------------------------------------------------------
# Vectorised split search
# ---------------------------------------------------------------------------


@dataclass
class NumericSplit:
    """Best binary split of one numeric feature."""

    threshold: float
    score: float
    left_count: int
    right_count: int


def _binary_entropy(positive: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Vectorised binary entropy for ``positive`` successes out of ``total``."""
    total = np.maximum(total, _EPS)
    p = np.clip(positive / total, _EPS, 1.0 - _EPS)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def best_numeric_split(
    values: np.ndarray,
    labels: np.ndarray,
    *,
    criterion: str = "gain",
    min_leaf: int = 1,
) -> Optional[NumericSplit]:
    """Best threshold split ``values <= t`` for binary ``labels``.

    ``criterion`` is ``"gain"`` (information gain) or ``"gain_ratio"``.
    Returns ``None`` when no split satisfies ``min_leaf`` on both sides or the
    feature is constant.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = values.shape[0]
    if n < 2 * min_leaf:
        return None
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    sorted_labels = labels[order]

    # Candidate split positions: between consecutive distinct values.
    distinct = np.nonzero(np.diff(sorted_values) > 0)[0]
    if distinct.size == 0:
        return None
    left_counts = distinct + 1
    right_counts = n - left_counts
    valid = (left_counts >= min_leaf) & (right_counts >= min_leaf)
    if not np.any(valid):
        return None

    positives = np.cumsum(sorted_labels)
    left_positives = positives[distinct]
    total_positives = positives[-1]
    right_positives = total_positives - left_positives

    parent_entropy = _binary_entropy(np.array([total_positives]), np.array([float(n)]))[0]
    left_entropy = _binary_entropy(left_positives, left_counts.astype(np.float64))
    right_entropy = _binary_entropy(right_positives, right_counts.astype(np.float64))
    weighted = (left_counts / n) * left_entropy + (right_counts / n) * right_entropy
    gains = parent_entropy - weighted

    if criterion == "gain_ratio":
        fractions = left_counts / n
        split_info = -(
            fractions * np.log2(fractions + _EPS)
            + (1.0 - fractions) * np.log2(1.0 - fractions + _EPS)
        )
        scores = np.where(split_info > _EPS, gains / split_info, 0.0)
    elif criterion == "gain":
        scores = gains
    else:
        raise ModelError(f"unknown criterion {criterion!r}")

    scores = np.where(valid, scores, -np.inf)
    best = int(np.argmax(scores))
    if not np.isfinite(scores[best]) or scores[best] <= 0.0:
        return None
    position = distinct[best]
    threshold = 0.5 * (sorted_values[position] + sorted_values[position + 1])
    return NumericSplit(
        threshold=float(threshold),
        score=float(scores[best]),
        left_count=int(left_counts[best]),
        right_count=int(right_counts[best]),
    )


@dataclass
class CategoricalSplit:
    """Multiway split of one categorical (discretised) feature."""

    categories: np.ndarray
    score: float


def best_categorical_split(
    values: np.ndarray,
    labels: np.ndarray,
    *,
    criterion: str = "gain",
    min_leaf: int = 1,
) -> Optional[CategoricalSplit]:
    """Score the multiway split of a categorical feature (ID3/C4.5 style)."""
    values = np.asarray(values)
    labels = np.asarray(labels)
    categories = np.unique(values)
    if categories.size < 2:
        return None
    partitions = [labels[values == category] for category in categories]
    if any(part.size < min_leaf for part in partitions):
        return None
    if criterion == "gain":
        score = information_gain(labels, partitions)
    elif criterion == "gain_ratio":
        score = gain_ratio(labels, partitions)
    else:
        raise ModelError(f"unknown criterion {criterion!r}")
    if score <= 0.0:
        return None
    return CategoricalSplit(categories=categories, score=float(score))


def tree_scores(root: TreeNode, features: np.ndarray) -> np.ndarray:
    """The leaf value ``root`` routes each row of ``features`` to."""
    return np.array([root.predict_row(row) for row in np.asarray(features, dtype=np.float64)])
