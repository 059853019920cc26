"""Tests of GBDT's decision-tree infrastructure: histogram split search and
trees, cut points.  (The exact sorted-search grower they are compared with
and Table 1's rule-based baselines are tested in ``benchmarks/paper/tests``.)"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError, NotFittedError
from repro.features import discretization
from repro.models.tree.histogram import (
    HistogramBinner,
    HistogramTreeBuilder,
    build_histograms,
)
from repro.models.tree import splitter


class TestHistogramBinner:
    def test_binned_split_matches_raw_threshold(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(500, 3))
        binner = HistogramBinner(num_bins=16).fit(values)
        binned = binner.transform(values)
        for feature in range(3):
            for bin_index in (0, 3, 7):
                threshold = binner.threshold(feature, bin_index)
                left_by_bin = binned[:, feature] <= bin_index
                left_by_value = values[:, feature] <= threshold
                assert np.array_equal(left_by_bin, left_by_value)

    def test_dtype_follows_bin_count(self):
        values = np.random.default_rng(1).normal(size=(50, 2))
        assert HistogramBinner(num_bins=256).fit(values).transform(values).dtype == np.uint8
        assert HistogramBinner(num_bins=300).fit(values).transform(values).dtype == np.uint16

    def test_invalid_inputs(self):
        with pytest.raises(ModelError):
            HistogramBinner(num_bins=1)
        with pytest.raises(NotFittedError):
            HistogramBinner(num_bins=8).transform(np.ones((2, 2)))
        binner = HistogramBinner(num_bins=8).fit(np.random.default_rng(2).normal(size=(20, 2)))
        with pytest.raises(ModelError):
            binner.transform(np.ones((2, 3)))


class TestHistogramTree:
    def test_depth_limit_and_feature_subset(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(300, 4))
        targets = features[:, 3] * 2.0 + rng.normal(size=300) * 0.1
        binner = HistogramBinner(num_bins=32).fit(features)
        binned = binner.transform(features)
        tree = HistogramTreeBuilder(
            binner, max_depth=2, feature_indices=np.array([0, 1])
        ).build(binned, targets, np.ones(300))
        assert tree.tree_.depth() <= 2

        def _features_used(node, used):
            if not node.is_leaf:
                used.add(node.feature_index)
                for child in node.iter_children():
                    _features_used(child, used)
            return used

        assert _features_used(tree.tree_, set()) <= {0, 1}

    def test_histogram_merge_associativity(self):
        """Worker-local histograms merged by summation equal the global one."""
        rng = np.random.default_rng(7)
        features = rng.normal(size=(400, 6))
        gradients = rng.normal(size=400)
        hessians = rng.random(400) + 0.1
        binner = HistogramBinner(num_bins=16).fit(features)
        binned = binner.transform(features)
        node_ids = rng.integers(0, 3, size=400)
        whole = build_histograms(
            binned, gradients, hessians, num_bins=16, node_ids=node_ids, num_nodes=3
        )
        # Any partition of the rows — contiguous, interleaved, unbalanced.
        for partitions in (
            [np.arange(0, 100), np.arange(100, 400)],
            [np.arange(0, 400, 2), np.arange(1, 400, 2)],
            [np.arange(0, 7), np.arange(7, 399), np.array([399])],
        ):
            merged = [np.zeros_like(part) for part in whole]
            for rows in partitions:
                local = build_histograms(
                    binned[rows],
                    gradients[rows],
                    hessians[rows],
                    num_bins=16,
                    node_ids=node_ids[rows],
                    num_nodes=3,
                )
                for target, piece in zip(merged, local):
                    target += piece
            for target, expected in zip(merged, whole):
                assert np.allclose(target, expected)

    def test_best_histogram_splits_rejects_bad_shapes(self):
        with pytest.raises(ModelError):
            splitter.best_histogram_splits(np.ones(4), np.ones(4), np.ones(4))
        with pytest.raises(ModelError):
            splitter.best_histogram_splits(
                np.ones((1, 2, 4)), np.ones((1, 2, 4)), np.ones((1, 2, 5))
            )
        # A constant feature (single populated bin) yields no split.
        grad = np.zeros((1, 1, 4))
        grad[0, 0, 1] = 3.0
        count = np.zeros((1, 1, 4))
        count[0, 0, 1] = 10.0
        assert splitter.best_histogram_splits(grad, count.copy(), count, min_leaf=1) == [None]


# ---------------------------------------------------------------------------
# Differential tests: the level-wise split search and the column-wise cut
# points against the per-node / per-column bodies they replaced
# ---------------------------------------------------------------------------
#
# The oracles below are the previous implementations, kept verbatim as
# references.  Every field is compared bit for bit (floats under
# ``float.hex``, cut points under ``tobytes``).


def _per_node_histogram_split(grad_hist, hess_hist, count_hist, *, min_leaf, reg_lambda):
    """Oracle: the one-node split search as it was before the level-wise call."""
    num_bins = grad_hist.shape[1]
    if num_bins < 2:
        return None
    left_gradient = np.cumsum(grad_hist, axis=1)[:, :-1]
    left_hessian = np.cumsum(hess_hist, axis=1)[:, :-1]
    left_count = np.cumsum(count_hist, axis=1)[:, :-1]
    total_gradient = left_gradient[:, -1] + grad_hist[:, -1]
    total_hessian = left_hessian[:, -1] + hess_hist[:, -1]
    total_count = left_count[:, -1] + count_hist[:, -1]
    right_gradient = total_gradient[:, None] - left_gradient
    right_hessian = total_hessian[:, None] - left_hessian
    right_count = total_count[:, None] - left_count
    valid = (left_count >= min_leaf) & (right_count >= min_leaf)
    if not np.any(valid):
        return None
    parent_score = total_gradient**2 / (total_hessian + reg_lambda)
    gains = (
        left_gradient**2 / (left_hessian + reg_lambda)
        + right_gradient**2 / (right_hessian + reg_lambda)
        - parent_score[:, None]
    )
    gains = np.where(valid, gains, -np.inf)
    best = int(np.argmax(gains))
    feature_slot, bin_index = divmod(best, num_bins - 1)
    if not np.isfinite(gains[feature_slot, bin_index]) or gains[feature_slot, bin_index] <= 1e-12:
        return None
    return (
        feature_slot,
        bin_index,
        float(gains[feature_slot, bin_index]).hex(),
        float(left_gradient[feature_slot, bin_index]).hex(),
        float(left_hessian[feature_slot, bin_index]).hex(),
        int(left_count[feature_slot, bin_index]),
        float(right_gradient[feature_slot, bin_index]).hex(),
        float(right_hessian[feature_slot, bin_index]).hex(),
        int(right_count[feature_slot, bin_index]),
    )


def _split_bits(split):
    if split is None:
        return None
    return (
        split.feature_slot,
        split.bin_index,
        split.score.hex(),
        split.left_gradient.hex(),
        split.left_hessian.hex(),
        split.left_count,
        split.right_gradient.hex(),
        split.right_hessian.hex(),
        split.right_count,
    )


_LEVEL = dict(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 7)),
    seed=st.integers(0, 2**32 - 1),
    tie_features=st.booleans(),
    dense_gradients=st.booleans(),
    min_leaf=st.integers(1, 12),
    reg_lambda=st.sampled_from([0.5, 1.0, 3.0]),
)


def _level_search_matches_per_node(shape, seed, tie_features, dense_gradients, min_leaf, reg_lambda):
    rng = np.random.default_rng(seed)
    num_nodes, num_features, num_bins = shape
    # Small counts put min_leaf at and around the children's sizes, and make
    # whole nodes invalid; coarse gradients make gains tie.
    count_hist = rng.integers(0, 5, size=shape).astype(np.float64)
    if dense_gradients:
        grad_hist = rng.normal(size=shape) * count_hist
    else:
        grad_hist = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=shape) * count_hist
    hess_hist = count_hist * rng.choice([0.25, 0.5, 1.0])
    if tie_features:  # every feature of a node holds the same histogram
        for hist in (grad_hist, hess_hist, count_hist):
            hist[:] = hist[:, :1, :]
    found = splitter.best_histogram_splits(
        grad_hist, hess_hist, count_hist, min_leaf=min_leaf, reg_lambda=reg_lambda
    )
    assert len(found) == num_nodes
    for node in range(num_nodes):
        expected = _per_node_histogram_split(
            grad_hist[node], hess_hist[node], count_hist[node],
            min_leaf=min_leaf, reg_lambda=reg_lambda,
        )
        assert _split_bits(found[node]) == expected


test_level_search_matches_per_node_property = settings(max_examples=80, deadline=None)(
    given(**_LEVEL)(_level_search_matches_per_node)
)
test_level_search_matches_per_node_soak = pytest.mark.slow(
    settings(max_examples=1000, deadline=None)(given(**_LEVEL)(_level_search_matches_per_node))
)


def test_level_search_breaks_ties_features_first():
    """Two features with equal best gains at different bins: the lower slot
    wins although its bin is later — the first maximum of the
    features-major flattening, not the bins-major one."""
    count = np.full((1, 2, 4), 2.0)
    # Mirror images: feature 0 splits best after bin 2, feature 1 after bin 0,
    # with the same gain 9/7 + 9/3.
    grad = np.array([[[-1.0, -1.0, -1.0, 3.0], [3.0, -1.0, -1.0, -1.0]]])
    (split,) = splitter.best_histogram_splits(grad, count.copy(), count)
    assert (split.feature_slot, split.bin_index) == (0, 2)
    assert split.score == 9.0 / 7.0 + 9.0 / 3.0


def _unique_quantiles_per_column(features, levels):
    """Oracle: the per-column cut points as computed before the one-call form."""
    return [np.unique(np.quantile(features[:, column], levels)) for column in range(features.shape[1])]


_SPECIAL_VALUES = [0.0, -0.0, 1.0, 1.0, 2.5, -3.0, 1e300, -1e300, np.inf, -np.inf]
_CUTS = dict(
    rows=st.integers(1, 40),
    columns=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["special", "normal", "constant", "mixed"]),
    num_bins=st.integers(2, 70),
)


def _column_cuts_match_per_column(rows, columns, seed, kind, num_bins):
    rng = np.random.default_rng(seed)
    if kind == "special":  # heavy duplicates, signed zeros, +-inf
        features = rng.choice(_SPECIAL_VALUES, size=(rows, columns))
    elif kind == "constant":
        features = np.repeat(rng.normal(size=(1, columns)), rows, axis=0)
    elif kind == "normal":
        features = rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-3, 4)
    else:
        features = np.where(
            rng.random((rows, columns)) < 0.3,
            rng.choice(_SPECIAL_VALUES, size=(rows, columns)),
            rng.normal(size=(rows, columns)),
        )
    bin_levels = np.linspace(0.0, 1.0, num_bins + 1)[1:-1]
    threshold_grid = np.linspace(0.01, 0.99, num_bins)
    with np.errstate(invalid="ignore"):  # inf - inf inside the interpolation
        edges = discretization.column_quantile_edges(features, num_bins)
        expected = _unique_quantiles_per_column(features, bin_levels)
        grid = discretization.column_quantiles(features, threshold_grid)
        expected_grid = _unique_quantiles_per_column(features, threshold_grid)
        one = [discretization.quantile_edges(features[:, c], num_bins) for c in range(columns)]
    for got, want in zip(edges, expected):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(one, expected):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(grid, expected_grid):
        assert got.tobytes() == want.tobytes()


test_column_cut_points_match_per_column_property = settings(max_examples=80, deadline=None)(
    given(**_CUTS)(_column_cuts_match_per_column)
)
test_column_cut_points_match_per_column_soak = pytest.mark.slow(
    settings(max_examples=1000, deadline=None)(given(**_CUTS)(_column_cuts_match_per_column))
)


def test_transform_bins_fit_without_clipping():
    """``searchsorted`` returns at most ``len(edges) <= num_bins - 1``, so the
    dropped clip never had anything to do, NaN and +inf included."""
    rng = np.random.default_rng(5)
    features = rng.normal(size=(300, 3))
    features[::7, 1] = np.inf
    for num_bins in (2, 3, 16, 256):
        with np.errstate(invalid="ignore"):  # inf - inf inside the interpolation
            binner = HistogramBinner(num_bins=num_bins).fit(features)
        probe = np.vstack([features, [[np.nan, np.inf, 1e308]]])
        binned = binner.transform(probe)
        assert int(binned.max()) <= num_bins - 1
        for column, edges in enumerate(binner.edges_):
            assert np.array_equal(
                binned[:, column], np.searchsorted(edges, probe[:, column], side="right")
            )
