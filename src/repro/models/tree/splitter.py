"""Best-split search of the gradient-boosted trees.

The second-order (variance-reduction) gain GBDT's regression trees split on,
searched over histograms by the level-wise grower, which scans every node of
a tree level in one call.  It is vectorised with prefix sums so that fitting
hundreds of boosted trees stays fast.  (The exact sorted search it is
compared with lives in ``benchmarks/paper/exact.py``; the entropy and
gain-ratio criteria of the Table 1 baselines ID3 and C5.0 in
``benchmarks/paper/criteria.py``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import ModelError


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

    Scans every boundary of every feature with prefix sums and the
    second-order gain ``G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)``; the
    boundaries are the at most ``num_bins - 1`` bin edges instead of the
    per-node sorted values of an exact search, which is what makes histogram
    tree growth independent of the row count.
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
