"""The compiled forest against a brute-force oracle, bit for bit.

The oracle is the arithmetic the ensemble used before it was compiled: route
every row through every tree with :meth:`TreeNode.predict_row` and add
``learning_rate * leaf`` tree by tree, in order.  Every comparison here is
``==`` on float64, never ``allclose``.
"""

from __future__ import annotations

import copy
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.kunpeng.cluster import ClusterConfig
from repro.models.distributed import DistributedGBDT
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.tree import forest as forest_module
from repro.models.tree.forest import CompiledForest
from repro.models.tree.node import TreeNode
from repro.numerics import sigmoid

WIDTH = 5
#: Few enough distinct thresholds that inputs land exactly on them.
THRESHOLDS = np.array([-1.5, -0.25, 0.0, 0.5, 2.0])
SPECIALS = np.array([np.nan, np.inf, -np.inf])


def oracle_staged(
    roots: List[TreeNode], features: np.ndarray, learning_rate: float, initial_score: float
) -> np.ndarray:
    """Column ``k``: the oracle's score after the first ``k`` trees."""
    scores = np.full(features.shape[0], initial_score)
    staged = [scores.copy()]
    for root in roots:
        scores += learning_rate * np.array([root.predict_row(row) for row in features])
        staged.append(scores.copy())
    return np.column_stack(staged)


def oracle_scores(
    roots: List[TreeNode], features: np.ndarray, learning_rate: float, initial_score: float
) -> np.ndarray:
    return oracle_staged(roots, features, learning_rate, initial_score)[:, -1]


def random_tree(rng: np.random.Generator, max_depth: int, leaf_probability: float) -> TreeNode:
    value = float(rng.normal())
    if max_depth == 0 or rng.random() < leaf_probability:
        return TreeNode(is_leaf=True, value=value)
    return TreeNode(
        is_leaf=False,
        value=value,
        feature_index=int(rng.integers(WIDTH)),
        threshold=float(rng.choice(THRESHOLDS)),
        left=random_tree(rng, max_depth - 1, leaf_probability),
        right=random_tree(rng, max_depth - 1, leaf_probability),
    )


def random_matrix(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Ordinary values, exact thresholds, NaN and +-inf mixed cell by cell."""
    kind = rng.integers(4, size=(rows, WIDTH))
    matrix = rng.normal(scale=2.0, size=(rows, WIDTH))
    on_threshold = rng.choice(THRESHOLDS, size=(rows, WIDTH))
    special = rng.choice(SPECIALS, size=(rows, WIDTH))
    return np.where(kind == 0, special, np.where(kind == 1, on_threshold, matrix))


def assert_scores_equal_oracle(seed, num_trees, max_depth, leaf_probability, rows, block_cells):
    rng = np.random.default_rng(seed)
    roots = [random_tree(rng, max_depth, leaf_probability) for _ in range(num_trees)]
    features = random_matrix(rng, rows)
    learning_rate, initial_score = float(rng.uniform(0.01, 1.0)), float(rng.normal())
    compiled = CompiledForest(roots, learning_rate=learning_rate, initial_score=initial_score)
    assert compiled.depth == max(root.depth() for root in roots)
    saved = forest_module._BLOCK_CELLS
    forest_module._BLOCK_CELLS = block_cells
    try:
        scores = compiled.decision_function(features)
        staged = compiled.scores_after(features, list(range(num_trees + 1)))
    finally:
        forest_module._BLOCK_CELLS = saved
    expected = oracle_staged(roots, features, learning_rate, initial_score)
    assert np.array_equal(scores, expected[:, -1])
    assert np.array_equal(staged, expected)


#: A row block holds ``_BLOCK_CELLS // (8 * trees)`` rows (8 cells per block
#: of three levels): one row, ``24 // trees`` rows with a ragged tail, or all.
BLOCK_CELLS = st.sampled_from([1, 24 * 8, 1 << 14])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_trees=st.integers(1, 12),
    max_depth=st.integers(0, 7),
    leaf_probability=st.sampled_from([0.0, 0.3, 0.8]),
    rows=st.sampled_from([0, 1, 2, 7, 33]),
    block_cells=BLOCK_CELLS,
)
def test_compiled_scores_equal_oracle(
    seed, num_trees, max_depth, leaf_probability, rows, block_cells
):
    """Stumps, bare leaves, ragged depths padded to one, two or three rounds
    of three levels, special values, any block size."""
    assert_scores_equal_oracle(seed, num_trees, max_depth, leaf_probability, rows, block_cells)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_trees=st.integers(1, 40),
    max_depth=st.integers(0, 7),
    leaf_probability=st.sampled_from([0.0, 0.3, 0.8]),
    rows=st.sampled_from([0, 1, 2, 7, 33, 101]),
    block_cells=BLOCK_CELLS,
)
def test_compiled_scores_equal_oracle_soak(
    seed, num_trees, max_depth, leaf_probability, rows, block_cells
):
    assert_scores_equal_oracle(seed, num_trees, max_depth, leaf_probability, rows, block_cells)


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_depth=st.integers(0, 6),
    offset=st.sampled_from([-1, 0, 1]),
)
def test_400_tree_forests_across_the_row_block_soak(seed, max_depth, offset):
    """Staged and whole scores of the paper's 400 trees, ragged depths, on
    either side of the real row-block boundary."""
    rows = 2 * (forest_module._BLOCK_CELLS // (8 * 400)) + offset
    assert_scores_equal_oracle(seed, 400, max_depth, 0.2, rows, forest_module._BLOCK_CELLS)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_400_trees_straddling_the_row_block(offset):
    """Sequential summation holds at the paper's 400 trees, where pairwise
    ``np.sum`` would differ in the last ulp, across the real block boundary."""
    rng = np.random.default_rng(400)
    roots = [random_tree(rng, 3, 0.2) for _ in range(400)]
    block = forest_module._BLOCK_CELLS // (8 * 400)
    features = random_matrix(rng, 2 * block + offset)
    compiled = CompiledForest(roots, learning_rate=0.1, initial_score=-2.0)
    assert np.array_equal(
        compiled.decision_function(features), oracle_scores(roots, features, 0.1, -2.0)
    )


def test_shallow_leaf_is_replicated_so_nan_reaches_it():
    """A depth-1 tree in a depth-2 forest: NaN fails ``x <= t`` at the padding
    slot and goes right, and must still read the shallow leaf's value."""
    stump = TreeNode(
        is_leaf=False, feature_index=0, threshold=0.0,
        left=TreeNode(value=-1.0), right=TreeNode(value=1.0),
    )
    deep = TreeNode(
        is_leaf=False, feature_index=1, threshold=0.0,
        left=TreeNode(is_leaf=False, feature_index=0, threshold=5.0,
                      left=TreeNode(value=10.0), right=TreeNode(value=20.0)),
        right=TreeNode(value=30.0),
    )
    compiled = CompiledForest([stump, deep])
    assert compiled.depth == 2
    features = np.array([[np.nan, np.nan], [-1.0, np.nan], [0.0, 0.0], [np.inf, -np.inf]])
    assert compiled.decision_function(features).tolist() == [31.0, 29.0, 9.0, 21.0]
    assert compiled.split_counts(3).tolist() == [2, 1, 0]


def test_categorical_and_empty_forests_are_rejected():
    categorical = TreeNode(is_leaf=False, feature_index=0, children={1.0: TreeNode(value=1.0)})
    with pytest.raises(ModelError):
        CompiledForest([categorical])
    with pytest.raises(ModelError):
        CompiledForest([])


# ---------------------------------------------------------------------------
# Fitted ensembles
# ---------------------------------------------------------------------------


def _model(kind: str, objective: str):
    kwargs = dict(num_trees=14, objective=objective, seed=5)
    if kind == "distributed":
        return DistributedGBDT(cluster=ClusterConfig(num_machines=3), **kwargs)
    return GradientBoostingClassifier(**kwargs)


def _fitted(kind: str, objective: str, features, labels):
    return _model(kind, objective).fit(features, labels)


@pytest.mark.parametrize("kind", ["single", "distributed"])
@pytest.mark.parametrize("objective", ["logistic", "squared"])
def test_fitted_models_score_like_the_oracle(kind, objective, small_classification_data):
    features, labels = small_classification_data
    features, labels = features[:240], labels[:240]
    assert_scores_like_the_oracle(_fitted(kind, objective, features, labels), features.shape[1])


def assert_scores_like_the_oracle(model, width: int) -> None:
    """A 14-tree ``model`` fitted on ``width`` columns scores, stages and
    counts splits exactly as the oracle walks its trees."""
    probe = np.random.default_rng(1).normal(size=(50, width))
    probe[3, 2] = np.nan
    probe[4, :] = np.inf
    probe[5, :] = -np.inf
    roots = [tree.tree_ for tree in model._trees]
    expected = oracle_scores(roots, probe, model.learning_rate, model._initial_score)
    assert np.array_equal(model.decision_function(probe), expected)
    stages = list(model.staged_predict_proba(probe, every=4))
    assert [used for used, _ in stages] == [4, 8, 12, 14]
    assert np.array_equal(stages[-1][1], model.predict_proba(probe))
    walked = np.zeros(width)
    stack = list(roots)
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            walked[node.feature_index] += 1.0
            stack.extend(node.iter_children())
    assert np.array_equal(model.feature_importances(width), walked / walked.sum())


def test_sigmoid_is_the_clip_spelling_bit_for_bit():
    """``predict_proba``'s mapping skips ``np.clip``'s wrapper, not its bits."""
    scores = np.concatenate(
        [
            SPECIALS,
            [-0.0, 0.0, -30.0, 30.0, -30.5, 30.5, 1e308, -1e308, 5e-324],
            np.random.default_rng(2).normal(scale=20.0, size=2000),
        ]
    )
    reference = 1.0 / (1.0 + np.exp(-np.clip(scores, -30.0, 30.0)))
    assert sigmoid(scores).tobytes() == reference.tobytes()


@pytest.mark.parametrize("kind", ["single", "distributed"])
def test_feature_width_is_checked(kind, small_classification_data):
    """A too-wide matrix used to be scored silently and a too-narrow one died
    with a bare IndexError; flat gathers would read the neighbouring row."""
    features, labels = small_classification_data
    model = _fitted(kind, "logistic", features[:200], labels[:200])
    width = features.shape[1]
    assert model.num_features_ == width
    for bad in (np.zeros((3, width + 1)), np.zeros((3, width - 1)), np.zeros(width - 1)):
        with pytest.raises(ModelError, match=f"fitted on {width} features"):
            model.predict_proba(bad)
        with pytest.raises(ModelError):
            next(model.staged_predict_proba(bad))
    single_row = model.predict_proba(features[0])
    assert single_row.shape == (1,)
    assert single_row[0] == model.predict_proba(features[:1])[0]
    assert model.predict_proba(np.zeros((0, width))).shape == (0,)


@pytest.mark.parametrize("kind", ["single", "distributed"])
def test_refit_rebuilds_the_forest(kind, small_classification_data):
    features, labels = small_classification_data
    assert_refit_rebuilds_the_forest(lambda: _model(kind, "logistic"), features, labels)


def assert_refit_rebuilds_the_forest(make_model, features, labels) -> None:
    """fit -> predict -> refit on other data scores with the new trees only,
    exactly like a fresh model that starts from the same RNG state."""
    first, second = slice(0, 200), slice(200, 420)
    model = make_model().fit(features[first], labels[first])
    before = model.predict_proba(features[second])
    rng_state = copy.deepcopy(model._rng.bit_generator.state)
    model.fit(features[second], labels[second])

    fresh = make_model()
    fresh._rng.bit_generator.state = rng_state
    fresh.fit(features[second], labels[second])

    after = model.predict_proba(features[second])
    assert model.num_fitted_trees == 14
    assert not np.array_equal(before, after)
    assert np.array_equal(after, fresh.predict_proba(features[second]))
    last_stage = list(model.staged_predict_proba(features[second], every=1))[-1]
    assert last_stage[0] == 14
    assert np.array_equal(last_stage[1], after)


@pytest.mark.parametrize("kind", ["single", "distributed"])
def test_staged_prediction_rejects_a_step_below_one(kind, small_classification_data):
    """``every=0`` died with a ZeroDivisionError and ``every=-2`` acted as 2."""
    features, labels = small_classification_data
    model = _fitted(kind, "logistic", features[:200], labels[:200])
    for every in (0, -2):
        with pytest.raises(ModelError, match="every"):
            list(model.staged_predict_proba(features[:5], every=every))


def test_scores_after_rejects_counts_outside_the_forest():
    """A negative count wrapped around to the whole ensemble's score and one
    past the last tree was a bare IndexError."""
    rng = np.random.default_rng(7)
    roots = [random_tree(rng, 3, 0.3) for _ in range(4)]
    compiled = CompiledForest(roots, learning_rate=0.5, initial_score=1.0)
    features = random_matrix(rng, 6)
    for counts in ([-1], [0, 5], [2, -4]):
        with pytest.raises(ModelError, match=r"\[0, 4\]"):
            compiled.scores_after(features, counts)
    assert np.array_equal(
        compiled.scores_after(features, [0, 4]),
        oracle_staged(roots, features, 0.5, 1.0)[:, [0, 4]],
    )


@pytest.mark.parametrize("kind", ["single", "distributed"])
def test_feature_importances_reject_another_width(kind, small_classification_data):
    """``bincount``'s ``minlength`` is only a minimum: any width used to come
    back as the model's own, or wider."""
    features, labels = small_classification_data
    model = _fitted(kind, "logistic", features[:200], labels[:200])
    width = features.shape[1]
    for bad in (2, width - 1, width + 1):
        with pytest.raises(ModelError, match=f"fitted on {width} features"):
            model.feature_importances(bad)
    assert model.feature_importances(width).shape == (width,)
