"""Impurity criteria and best-split search.

Implements the classical measures the paper's rule-based methods rely on:
entropy and information gain for ID3, gain ratio (C4.5/C5.0's improvement,
which the paper credits for C5.0's better "data discretization and
segmentation"), Gini impurity, and variance reduction for the regression trees
inside GBDT.  The numeric split search is vectorised with prefix sums so that
fitting hundreds of boosted trees stays fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError

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


def gini_impurity(labels: np.ndarray) -> float:
    """Gini impurity of a label vector."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    probabilities = counts / counts.sum()
    return float(1.0 - np.sum(probabilities**2))


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


@dataclass
class RegressionSplit:
    """Best variance-reducing split for a regression target."""

    threshold: float
    score: float
    left_count: int
    right_count: int


@dataclass
class HistogramSplit:
    """Best bin-boundary split of one node's feature histograms.

    ``feature_slot`` indexes into the histogram's feature axis (the caller
    maps it back to a global column), ``bin_index`` is the last bin routed to
    the left child (``bin <= bin_index`` goes left).  The left/right gradient,
    hessian and count sums are returned so tree builders can derive the child
    totals without rescanning any rows.
    """

    feature_slot: int
    bin_index: int
    score: float
    left_gradient: float
    left_hessian: float
    left_count: int
    right_gradient: float
    right_hessian: float
    right_count: int


def best_histogram_splits(
    grad_hist: np.ndarray,
    hess_hist: np.ndarray,
    count_hist: np.ndarray,
    *,
    min_leaf: int = 1,
    reg_lambda: float = 1.0,
) -> List[Optional[HistogramSplit]]:
    """Best bin-boundary split of each node of ``(nodes, features, bins)``
    histograms — one tree level in one call.

    Scans every boundary of every feature with prefix sums and the same
    second-order gain as :func:`best_regression_split`; the boundaries are the
    at most ``num_bins - 1`` bin edges instead of the per-node sorted values,
    which is what makes histogram tree growth independent of the row count.
    Per node, features are scanned in slot order and ties keep the first
    maximum, so a histogram with one bin per distinct value reproduces the
    exact search.  Each step is elementwise or along the bin axis: a node's
    split has the bits a search of that node alone would give.
    """
    grad_hist = np.asarray(grad_hist, dtype=np.float64)
    hess_hist = np.asarray(hess_hist, dtype=np.float64)
    count_hist = np.asarray(count_hist, dtype=np.float64)
    if grad_hist.ndim != 3:
        raise ModelError("histogram arrays must be 3-dimensional (nodes, features, bins)")
    if grad_hist.shape != hess_hist.shape or grad_hist.shape != count_hist.shape:
        raise ModelError("histogram arrays must share one (nodes, features, bins) shape")
    num_nodes, num_features, num_bins = grad_hist.shape
    if num_bins < 2 or num_features == 0:
        return [None] * num_nodes

    # Left sums for a split "bin <= b", b in [0, num_bins - 2].
    left_gradient = np.cumsum(grad_hist, axis=2)[..., :-1]
    left_hessian = np.cumsum(hess_hist, axis=2)[..., :-1]
    left_count = np.cumsum(count_hist, axis=2)[..., :-1]
    total_gradient = left_gradient[..., -1] + grad_hist[..., -1]
    total_hessian = left_hessian[..., -1] + hess_hist[..., -1]
    total_count = left_count[..., -1] + count_hist[..., -1]
    right_gradient = total_gradient[..., None] - left_gradient
    right_hessian = total_hessian[..., None] - left_hessian
    right_count = total_count[..., None] - left_count

    valid = (left_count >= min_leaf) & (right_count >= min_leaf)
    parent_score = total_gradient**2 / (total_hessian + reg_lambda)
    gains = (
        left_gradient**2 / (left_hessian + reg_lambda)
        + right_gradient**2 / (right_hessian + reg_lambda)
        - parent_score[..., None]
    )
    gains = np.where(valid, gains, -np.inf)
    # First maximum per node over the features-major flattening.
    best = np.argmax(gains.reshape(num_nodes, num_features * (num_bins - 1)), axis=1)
    splits: List[Optional[HistogramSplit]] = []
    for node, flat in enumerate(best.tolist()):
        feature_slot, bin_index = divmod(flat, num_bins - 1)
        at = (node, feature_slot, bin_index)
        if not np.isfinite(gains[at]) or gains[at] <= 1e-12:
            splits.append(None)
            continue
        splits.append(
            HistogramSplit(
                feature_slot=feature_slot,
                bin_index=bin_index,
                score=float(gains[at]),
                left_gradient=float(left_gradient[at]),
                left_hessian=float(left_hessian[at]),
                left_count=int(left_count[at]),
                right_gradient=float(right_gradient[at]),
                right_hessian=float(right_hessian[at]),
                right_count=int(right_count[at]),
            )
        )
    return splits


def best_histogram_split(
    grad_hist: np.ndarray,
    hess_hist: np.ndarray,
    count_hist: np.ndarray,
    *,
    min_leaf: int = 1,
    reg_lambda: float = 1.0,
) -> Optional[HistogramSplit]:
    """Best bin-boundary split over one node's ``(num_features, num_bins)``
    histograms: the one-node view of :func:`best_histogram_splits`."""
    if np.ndim(grad_hist) != 2:
        raise ModelError("histogram arrays must be 2-dimensional (features, bins)")
    stacked = (np.asarray(hist)[None] for hist in (grad_hist, hess_hist, count_hist))
    return best_histogram_splits(*stacked, min_leaf=min_leaf, reg_lambda=reg_lambda)[0]


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
