"""A fitted tree ensemble compiled into flat arrays — the raw-feature scorer.

Growing trees wants linked :class:`~repro.models.tree.node.TreeNode`s; scoring
them that way costs one Python call per node per tree however few rows there
are.  :class:`CompiledForest` is built once when ``fit`` ends and is the only
path from a raw feature matrix to ensemble scores (single-machine, staged and
distributed GBDT, and a lone :class:`~repro.models.tree.cart.RegressionTree`).

**Layout.**  Every tree is padded to a complete binary tree of the forest's
depth ``D`` and stored heap-ordered (children of node ``k`` are ``2k + 1`` and
``2k + 2``) in flat arrays: ``feature`` / ``threshold`` hold ``2**D - 1``
split slots per tree, ``leaf_value`` holds ``2**D`` leaves per tree already
multiplied by the learning rate, and ``node_offset`` / ``leaf_offset`` say
where each tree starts.  A leaf shallower than ``D`` becomes a padding slot
(``feature == -1``) with the leaf replicated into *both* children: a row
routes right whenever ``x <= threshold`` is false — NaN included — so either
child must hold the same value.

**Scoring** is level-synchronous: ``D`` rounds of ``take`` gathers advance a
``rows x trees`` matrix of node indices one level each, with no Python loop
over trees or nodes.

**Summation contract.**  A row's score is ``initial_score``, then tree 0,
tree 1, ... added strictly in that order (``np.cumsum``).  ``np.sum`` adds
pairwise, which differs in the last ulp at a few hundred trees; the recorded
checksums and the serving path's bit-for-bit offline recompute rely on the
sequential order.  The running sums are also what staged prediction reads.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.models.tree.node import TreeNode

#: ``rows x trees`` cells scored per block: a few float64/int64 intermediates
#: of this size stay cache-resident, which un-blocked large batches do not.
_BLOCK_CELLS = 1 << 14


class CompiledForest:
    """Flat-array form of numeric-split trees, scored level-synchronously."""

    def __init__(
        self,
        roots: Sequence[TreeNode],
        *,
        learning_rate: float = 1.0,
        initial_score: float = 0.0,
    ) -> None:
        if not roots:
            raise ModelError("cannot compile an empty forest")
        self.num_trees = len(roots)
        self.depth = max(root.depth() for root in roots)
        self.initial_score = float(initial_score)
        splits, leaves = (1 << self.depth) - 1, 1 << self.depth
        self.feature = np.full(self.num_trees * splits, -1, dtype=np.int64)
        self.threshold = np.zeros(self.num_trees * splits)
        self.leaf_value = np.empty(self.num_trees * leaves)
        self.node_offset = np.arange(self.num_trees, dtype=np.int64) * splits
        self.leaf_offset = np.arange(self.num_trees, dtype=np.int64) * leaves
        for tree, root in enumerate(roots):
            self._fill(root, tree, 0, learning_rate)
        # Gathers read column 0 at padding slots; both children agree there.
        self._column = np.maximum(self.feature, 0)
        # A split's two children are adjacent flat indices — heap slots 2k + 1
        # and 2k + 2, or the two leaves under a last-level split — so a row
        # moves to _right[g] - (x <= t), and after D levels holds a flat leaf
        # index (a depth-0 forest starts there).
        child = 2 * np.arange(splits, dtype=np.int64) + 2
        start = np.where(child < splits, self.node_offset[:, None], self.leaf_offset[:, None] - splits)
        self._right = (start + child).reshape(-1)
        self._roots = self.node_offset if self.depth else self.leaf_offset
        if self.depth:  # every row reads the roots' slots: gathered once here
            self._root_column, self._root_threshold, self._root_right = (
                table.take(self._roots) for table in (self._column, self.threshold, self._right)
            )

    def _fill(self, node: TreeNode, tree: int, slot: int, learning_rate: float) -> None:
        splits = (1 << self.depth) - 1
        if slot >= splits:
            self.leaf_value[self.leaf_offset[tree] + slot - splits] = learning_rate * node.value
            return
        left = right = node  # padding below a shallow leaf
        if not node.is_leaf:
            if node.feature_index is None or node.threshold is None:
                raise ModelError("only numeric-split trees can be compiled")
            if node.left is None or node.right is None:
                raise ModelError("numeric split node with a missing child")
            index = self.node_offset[tree] + slot
            self.feature[index] = node.feature_index
            self.threshold[index] = node.threshold
            left, right = node.left, node.right
        self._fill(left, tree, 2 * slot + 1, learning_rate)
        self._fill(right, tree, 2 * slot + 2, learning_rate)

    # ------------------------------------------------------------------
    def scores_after(self, features: np.ndarray, tree_counts: Sequence[int]) -> np.ndarray:
        """``(rows, len(tree_counts))`` scores using the first ``k`` trees each."""
        counts = np.asarray(tree_counts, dtype=np.int64)
        out = np.empty((len(features), counts.shape[0]))
        for rows, sums in self._running_sums(features):
            out[rows] = sums.take(counts, axis=1)
        return out

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Score of the whole ensemble per row: its last running sum."""
        out = np.empty(len(features))
        for rows, sums in self._running_sums(features):
            out[rows] = sums[:, -1]
        return out

    def _running_sums(self, features: np.ndarray) -> Iterator[Tuple[slice, np.ndarray]]:
        """Per block of rows, ``(rows, sums)`` with ``sums[:, k]`` the initial
        score plus the first ``k`` trees, added in tree order.

        ``features`` is a validated 2-d float matrix at least as wide as the
        largest split feature (the detectors check the training width).
        """
        features = np.ascontiguousarray(features, dtype=np.float64)
        num_rows, width = features.shape
        flat = features.reshape(-1)
        block = max(1, _BLOCK_CELLS // self.num_trees)
        running = np.empty((min(block, num_rows), self.num_trees + 1))
        running[:, 0] = self.initial_score
        for start in range(0, num_rows, block):
            stop = min(start + block, num_rows)
            row_base = np.arange(start * width, stop * width, width, dtype=np.int64)[:, None]
            node = self._roots  # (trees,) at the roots, (rows, trees) below
            if self.depth:
                goes_left = flat.take(self._root_column + row_base) <= self._root_threshold
                node = self._root_right - goes_left
            for _level in range(1, self.depth):
                cell = self._column.take(node) + row_base
                goes_left = flat.take(cell) <= self.threshold.take(node)
                node = self._right.take(node) - goes_left
            contributions = running[: stop - start]
            contributions[:, 1:] = self.leaf_value.take(node)
            yield slice(start, stop), contributions.cumsum(axis=1)

    def split_counts(self, num_features: int) -> np.ndarray:
        """How many split nodes test each feature (padding slots excluded)."""
        return np.bincount(self.feature[self.feature >= 0], minlength=num_features)
