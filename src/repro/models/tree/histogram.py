"""Histogram-binned regression-tree growth — the tree grower inside GBDT.

Exact split search sorts every node's rows for every candidate feature, so
fitting 400 boosted trees rescans the raw matrix thousands of times.  The
histogram engine follows the design of production boosted-tree systems
(XGBoost/LightGBM and the paper's KunPeng training platform):

* :class:`HistogramBinner` quantile-bins the full training matrix **once**
  into compact ``uint8``/``uint16`` bin indices (the cut points of every
  column from one
  :func:`repro.features.discretization.column_quantile_edges` call),
* :func:`build_histograms` accumulates per-node (gradient, hessian, count)
  histograms with a single ``np.bincount`` sweep per statistic,
* :func:`grow_level_wise` grows a depth-limited tree level by level,
  scanning every eligible node's bin boundaries with prefix sums in one
  call per level (:func:`repro.models.tree.splitter.best_histogram_splits`);
  :class:`HistogramTreeBuilder` runs it over one in-memory partition.

Because a node's histogram is a fixed ``features x bins`` block regardless of
how many rows it holds, the distributed driver can aggregate worker-local
histograms through the parameter servers with communication volume
independent of the row count — see :class:`repro.models.distributed.DistributedGBDT`.

The produced trees carry both a raw-feature ``threshold`` (what
:class:`~repro.models.tree.forest.CompiledForest` compiles for serving-time
scoring) and the originating ``bin_threshold`` (so the boosting loop can
route pre-binned rows without touching floats).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.features.discretization import column_quantile_edges
from repro.models.tree.node import TreeNode
from repro.models.tree.splitter import best_histogram_splits


class HistogramBinner:
    """Per-column quantile binning of a training matrix into bin indices.

    Parameters
    ----------
    num_bins:
        Maximum bins per feature.  Columns with fewer distinct values use
        fewer bins (duplicate quantile edges collapse, exactly as in
        :class:`~repro.features.discretization.QuantileBinner`).
    """

    def __init__(self, *, num_bins: int = 64) -> None:
        if not 2 <= num_bins <= 65536:
            raise ModelError("num_bins must be in [2, 65536]")
        self.num_bins = num_bins
        self.edges_: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray) -> "HistogramBinner":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ModelError("features must be a 2-dimensional array")
        if features.shape[0] == 0:
            raise ModelError("cannot fit a binner on an empty matrix")
        self.edges_ = column_quantile_edges(features, self.num_bins)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Bin a matrix into ``uint8``/``uint16`` bin indices, column by column."""
        if self.edges_ is None:
            raise NotFittedError("HistogramBinner must be fitted before transform")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != len(self.edges_):
            raise ModelError(
                f"expected a 2-d matrix with {len(self.edges_)} columns to bin"
            )
        dtype = np.uint8 if self.num_bins <= 256 else np.uint16
        binned = np.empty(features.shape, dtype=dtype)
        columns = np.ascontiguousarray(features.T)
        # At most len(edges) <= num_bins - 1: every index fits its bin range.
        for column, edges in enumerate(self.edges_):
            binned[:, column] = np.searchsorted(edges, columns[column], side="right")
        return binned

    # ------------------------------------------------------------------
    @property
    def num_features(self) -> int:
        if self.edges_ is None:
            raise NotFittedError("HistogramBinner must be fitted first")
        return len(self.edges_)

    def threshold(self, feature_index: int, bin_index: int) -> float:
        """Raw-feature threshold equivalent to the binned split ``bin <= bin_index``.

        ``transform`` sends ``value`` to a bin ``<= bin_index`` exactly when
        ``value < edges[bin_index]``; tree traversal tests ``value <=
        threshold``, so the threshold is the largest float *below* that edge.
        """
        if self.edges_ is None:
            raise NotFittedError("HistogramBinner must be fitted first")
        edges = self.edges_[feature_index]
        if not 0 <= bin_index < edges.shape[0]:
            raise ModelError(
                f"bin {bin_index} of feature {feature_index} has no upper edge"
            )
        return float(np.nextafter(edges[bin_index], -np.inf))


# ---------------------------------------------------------------------------
# Histogram accumulation
# ---------------------------------------------------------------------------


def build_histograms(
    binned: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    *,
    num_bins: int,
    node_ids: Optional[np.ndarray] = None,
    num_nodes: int = 1,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node (gradient, hessian, count) histograms of a binned matrix.

    Returns three ``(num_nodes, num_features, num_bins)`` arrays accumulated
    with one ``np.bincount`` sweep per statistic.  ``node_ids`` assigns each
    row to a node slot (all rows to slot 0 when omitted).  Addition is the
    only operation, so histograms over disjoint row partitions merge by
    summation — the property the distributed driver relies on when workers
    push local histograms to the parameter servers.
    """
    binned = np.asarray(binned)
    if binned.ndim != 2:
        raise ModelError("binned matrix must be 2-dimensional")
    num_rows, num_features = binned.shape
    gradients = np.asarray(gradients, dtype=np.float64).ravel()
    hessians = np.asarray(hessians, dtype=np.float64).ravel()
    if gradients.shape[0] != num_rows or hessians.shape[0] != num_rows:
        raise ModelError("gradients/hessians length does not match the binned rows")
    if node_ids is None:
        node_ids = np.zeros(num_rows, dtype=np.int64)
    else:
        node_ids = np.asarray(node_ids, dtype=np.int64).ravel()
        if node_ids.shape[0] != num_rows:
            raise ModelError("node_ids length does not match the binned rows")
    size = num_nodes * num_features * num_bins
    shape = (num_nodes, num_features, num_bins)
    if num_rows == 0:
        zeros = np.zeros(shape)
        return zeros, zeros.copy(), zeros.copy()
    # Flat (node, feature, bin) index per matrix cell, row-major over features.
    flat = (
        node_ids[:, None] * (num_features * num_bins)
        + np.arange(num_features, dtype=np.int64)[None, :] * num_bins
        + binned.astype(np.int64)
    ).ravel()
    grad_hist = np.bincount(flat, weights=np.repeat(gradients, num_features), minlength=size)
    hess_hist = np.bincount(flat, weights=np.repeat(hessians, num_features), minlength=size)
    count_hist = np.bincount(flat, minlength=size).astype(np.float64)
    return grad_hist.reshape(shape), hess_hist.reshape(shape), count_hist.reshape(shape)


# ---------------------------------------------------------------------------
# Binned traversal (the boosting loop's per-tree update)
# ---------------------------------------------------------------------------


def _fill_predictions(
    node: TreeNode, binned: np.ndarray, indices: np.ndarray, out: np.ndarray
) -> None:
    if node.is_leaf:
        out[indices] = node.value
        return
    assert node.left is not None and node.right is not None
    assert node.bin_threshold is not None
    goes_left = binned[indices, node.feature_index] <= node.bin_threshold
    _fill_predictions(node.left, binned, indices[goes_left], out)
    _fill_predictions(node.right, binned, indices[~goes_left], out)


def _newton_leaf(gradient: float, hessian: float, count: int, reg_lambda: float) -> TreeNode:
    """A leaf holding the second-order optimal value ``G / (H + λ)``."""
    return TreeNode.leaf(gradient / (hessian + reg_lambda), count)


#: What the grower tells whoever holds the rows about one active node slot:
#: ``None`` — the node stays a leaf and its rows retire — or ``(feature_slot,
#: bin_index, left_slot)`` with the right child at ``left_slot + 1``.
SplitDecision = Tuple[int, int, int]


def grow_level_wise(
    binner: HistogramBinner,
    columns: np.ndarray,
    *,
    total_gradient: float,
    total_hessian: float,
    num_rows: int,
    max_depth: int,
    min_samples_leaf: int,
    reg_lambda: float,
    level_histograms: Callable[[int], Tuple[np.ndarray, np.ndarray, np.ndarray]],
    reroute: Callable[[List[Optional[SplitDecision]]], None],
) -> TreeNode:
    """Grow one depth-limited tree level by level; returns its root.

    The growth rules — Newton root value, ``min_samples_leaf`` on both
    children (a node with fewer than twice that many rows has no valid
    boundary, so it stays a leaf), one split search per level, child slots
    numbered in active order — live here once.  Who holds the rows is the
    caller's business, through two callbacks: ``level_histograms(num_active)``
    returns the level's summed ``(num_active, features, bins)`` gradient / hessian /
    count histograms, and ``reroute(decisions)`` moves the rows to next-level
    slots (:func:`apply_decisions`).  ``columns[slot]`` is the matrix column
    behind histogram feature ``slot``.
    """
    root = _newton_leaf(total_gradient, total_hessian, num_rows, reg_lambda)
    active: List[TreeNode] = [root]
    for _depth in range(max_depth):
        if not active:
            break
        grad_hist, hess_hist, count_hist = level_histograms(len(active))
        splits = best_histogram_splits(
            grad_hist,
            hess_hist,
            count_hist,
            min_leaf=min_samples_leaf,
            reg_lambda=reg_lambda,
        )
        decisions: List[Optional[SplitDecision]] = []
        next_active: List[TreeNode] = []
        for node, split in zip(active, splits):
            if split is None:
                decisions.append(None)
                continue
            # The leaf becomes the split: the bin→raw threshold mapping and
            # two Newton leaves.
            feature_index = int(columns[split.feature_slot])
            node.is_leaf = False
            node.feature_index = feature_index
            node.bin_threshold = int(split.bin_index)
            node.threshold = binner.threshold(feature_index, split.bin_index)
            node.left = left = _newton_leaf(
                split.left_gradient, split.left_hessian, split.left_count, reg_lambda
            )
            node.right = right = _newton_leaf(
                split.right_gradient, split.right_hessian, split.right_count, reg_lambda
            )
            decisions.append((split.feature_slot, split.bin_index, len(next_active)))
            next_active.append(left)
            next_active.append(right)
        reroute(decisions)
        active = next_active
    return root


def apply_decisions(
    sub: np.ndarray,
    rows: np.ndarray,
    assign: np.ndarray,
    decisions: List[Optional[SplitDecision]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Reroute ``rows`` (indices into ``sub``, currently in node slots
    ``assign``) to next-level slots; rows of nodes that became leaves drop out."""
    if rows.size == 0:
        return rows, assign
    new_assign = np.full(rows.shape[0], -1, dtype=np.int64)
    for slot, decision in enumerate(decisions):
        if decision is None:
            continue
        feature_slot, bin_index, left_slot = decision
        members = assign == slot
        goes_left = sub[rows[members], feature_slot] <= bin_index
        new_assign[members] = np.where(goes_left, left_slot, left_slot + 1)
    keep = new_assign >= 0
    return rows[keep], new_assign[keep]


class HistogramTree:
    """A fitted histogram tree; raw features are scored by the compiled forest."""

    def __init__(self, root: TreeNode, *, feature_indices: Optional[np.ndarray] = None):
        self._root = root
        self.feature_indices = feature_indices

    @property
    def tree_(self) -> TreeNode:
        return self._root

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Leaf values for pre-binned rows — the boosting-loop hot path."""
        binned = np.asarray(binned)
        out = np.empty(binned.shape[0], dtype=np.float64)
        _fill_predictions(self._root, binned, np.arange(binned.shape[0]), out)
        return out


class HistogramTreeBuilder:
    """Grow a depth-limited regression tree from a pre-binned matrix.

    :func:`grow_level_wise` over one partition: it follows the growth rules
    of the exact sorted-search tree in ``benchmarks/paper/exact.py``
    (second-order gain, ``min_samples_leaf`` on both children, strictly
    positive gain, candidate features scanned in the given order) but
    replaces per-node sorting with level-wise histogram accumulation.  Its
    ``level_histograms`` callback is one :func:`build_histograms` sweep over
    the rows still in a growing node, its ``reroute`` callback one
    :func:`apply_decisions` over the same rows.
    """

    def __init__(
        self,
        binner: HistogramBinner,
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
        self.binner = binner
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.feature_indices = feature_indices

    # ------------------------------------------------------------------
    def build(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
    ) -> HistogramTree:
        """Fit a tree to (negative) gradients over pre-binned rows."""
        binned = np.asarray(binned)
        gradients = np.asarray(gradients, dtype=np.float64).ravel()
        hessians = np.asarray(hessians, dtype=np.float64).ravel()
        if binned.ndim != 2 or binned.shape[0] != gradients.shape[0]:
            raise ModelError("binned matrix and gradients disagree on the row count")
        columns = (
            np.asarray(self.feature_indices, dtype=np.int64)
            if self.feature_indices is not None
            else np.arange(binned.shape[1], dtype=np.int64)
        )
        sub = np.ascontiguousarray(binned[:, columns])
        # The one partition: rows still in a growing node, and their slots.
        rows = np.arange(sub.shape[0], dtype=np.int64)
        assign = np.zeros(sub.shape[0], dtype=np.int64)

        def level_histograms(num_active: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            return build_histograms(
                sub[rows],
                gradients[rows],
                hessians[rows],
                num_bins=self.binner.num_bins,
                node_ids=assign,
                num_nodes=num_active,
            )

        def reroute(decisions: List[Optional[SplitDecision]]) -> None:
            nonlocal rows, assign
            rows, assign = apply_decisions(sub, rows, assign, decisions)

        root = grow_level_wise(
            self.binner,
            columns,
            total_gradient=float(gradients.sum()),
            total_hessian=float(hessians.sum()),
            num_rows=sub.shape[0],
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=self.reg_lambda,
            level_histograms=level_histograms,
            reroute=reroute,
        )
        return HistogramTree(root, feature_indices=self.feature_indices)
