"""A fitted tree ensemble compiled into flat arrays — the raw-feature scorer.

Growing trees wants linked :class:`~repro.models.tree.node.TreeNode`s; scoring
them that way costs one Python call per node per tree however few rows there
are.  :class:`CompiledForest` is built once when ``fit`` ends and is the only
path from a raw feature matrix to ensemble scores (single-machine, staged and
distributed GBDT, and the exact-grower oracle in ``benchmarks/paper/exact.py``).

**Layout.**  Every tree is padded to a complete binary tree whose depth is the
forest's depth ``D`` rounded up to a multiple of 3 (at least 3), heap-ordered.
A leaf shallower than that becomes a padding split (``feature == -1``) with
the leaf replicated into *both* children: a row goes right whenever
``x <= threshold`` is false — NaN included — so either side must hold the
same value.  The padded tree is cut into rounds of 3-level *blocks*: 7
splits, and 8 exits that are blocks of the next round or, in the last, leaves.

**Scoring** resolves three levels per numpy round.  Gather each ``(row,
tree)``'s block cells (a dummy that never passes, then its 7 splits) and
compare them with one ``<=``.  Read as one int64, the 8 outcome bytes times
:data:`_PACK` is their dot product with the powers of two, a 7-bit code, and
one ``take`` from the round's table maps ``(block, code)`` to the exit that
the on-path outcomes choose: a block, or the tree's leaf value pre-multiplied
by the learning rate.  Every row starts at the same blocks, so a depth-3
forest is ``features.take(columns, axis=1) <= thresholds``, the multiply and
one ``take``, with no row offsets.

**Summation contract.**  A row's score is ``initial_score``, then tree 0,
tree 1, ... added strictly in that order (``np.cumsum``; tree 0's table holds
``initial_score + leaf``, the first sum, made once).  ``np.sum`` adds
pairwise, which differs in the last ulp at a few hundred trees; the recorded
checksums and the serving path's bit-for-bit offline recompute rely on the
sequential order.  The running sums are also what staged prediction reads.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.models.tree.node import TreeNode

#: ``rows x trees x 8`` cells gathered per row block: the widest intermediate
#: stays cache-resident, which un-blocked large batches do not.
_BLOCK_CELLS = 1 << 16

#: Cell ``c`` (1-7) of a block is node ``c`` of its subtree numbered 1-based in
#: heap order: heap slot ``first * _SCALE + _OFFSET`` of a tree whose block
#: starts at 1-based node ``first``.  Cell 0, scaled by 0, is slot -1: the dummy.
_SCALE = np.array([0, 1, 2, 2, 4, 4, 4, 4])
_OFFSET = np.arange(8) - _SCALE - 1
#: Times 8 outcome bytes read as a little-endian int64, this sets bit ``63 - c``
#: to cell ``c`` with no carries; the dummy's bit 63 is 0, so ``>> 56`` is < 128.
_PACK = np.int64(0x8040201008040201 - (1 << 64))


def _codes(passed: np.ndarray) -> np.ndarray:
    """7-bit code per block from ``(rows, blocks * 8)`` outcomes."""
    return passed.view("<i8") * _PACK >> 56


def _exits() -> np.ndarray:
    """Exit (0-7, left to right) a block's path leaves by, per code."""
    code, cell = np.arange(128), np.ones(128, dtype=np.int64)
    for _level in range(3):
        cell = 2 * cell + 1 - ((code >> (7 - cell)) & 1)
    return cell - 8


_EXIT = _exits()


class CompiledForest:
    """Flat-array form of numeric-split trees, scored three levels a round."""

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
        rounds = max(1, -(-self.depth // 3))
        self._splits = (1 << 3 * rounds) - 1
        # Slot -1 is the dummy, and it and padding never pass (x <= NaN).
        self.feature = np.full((self.num_trees, self._splits + 1), -1, dtype=np.int64)
        self.threshold = np.full((self.num_trees, self._splits + 1), np.nan)
        self.leaf_value = np.empty((self.num_trees, self._splits + 1))
        for tree, root in enumerate(roots):
            self._fill(root, tree, 0, learning_rate)
        column = np.maximum(self.feature, 0)  # padding and the dummy read column 0
        self._rounds = []
        for level in range(rounds):
            # A round's blocks, tree-major: block i's exit e is block (or leaf) 8i + e.
            heap = np.arange(1 << 3 * level, 2 << 3 * level)[:, None] * _SCALE + _OFFSET
            exits = (8 * np.arange(self.num_trees << 3 * level)[:, None] + _EXIT).reshape(-1)
            table = self.leaf_value.reshape(-1).take(exits) if level == rounds - 1 else exits
            self._rounds.append((column[:, heap].ravel(), self.threshold[:, heap].ravel(), table))
        # Tree 0's leaves carry the initial score: cumsum's first addition, made once.
        table[: len(table) // self.num_trees] += self.initial_score
        self._tree_offset = np.arange(self.num_trees, dtype=np.int64) << 7  # first-round blocks

    def _fill(self, node: TreeNode, tree: int, slot: int, learning_rate: float) -> None:
        if slot >= self._splits:
            self.leaf_value[tree, slot - self._splits] = learning_rate * node.value
            return
        left = right = node  # padding below a shallow leaf
        if not node.is_leaf:
            if node.feature_index is None or node.threshold is None:
                raise ModelError("only numeric-split trees can be compiled")
            if node.left is None or node.right is None:
                raise ModelError("numeric split node with a missing child")
            self.feature[tree, slot] = node.feature_index
            self.threshold[tree, slot] = node.threshold
            left, right = node.left, node.right
        self._fill(left, tree, 2 * slot + 1, learning_rate)
        self._fill(right, tree, 2 * slot + 2, learning_rate)

    def scores_after(self, features: np.ndarray, tree_counts: Sequence[int]) -> np.ndarray:
        """``(rows, len(tree_counts))`` scores using the first ``k`` trees each."""
        counts = np.asarray(tree_counts, dtype=np.int64)
        if ((counts < 0) | (counts > self.num_trees)).any():
            raise ModelError(f"tree counts must lie in [0, {self.num_trees}]")
        out = np.empty((len(features), counts.shape[0]))
        for rows, sums in self._running_sums(features):
            out[rows] = sums.take(counts - 1, axis=1)  # count 0 is overwritten below
        out[:, counts == 0] = self.initial_score
        return out

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Score of the whole ensemble per row: its last running sum."""
        out = np.empty(len(features))
        for rows, sums in self._running_sums(features):
            out[rows] = sums[:, -1]
        return out

    def _running_sums(self, features: np.ndarray) -> Iterator[Tuple[slice, np.ndarray]]:
        """Per block of ``features`` rows (2-d, float, validated by the detector),
        ``(rows, sums)``: ``sums[:, k]`` is the initial score plus the first
        ``k + 1`` trees, added in tree order."""
        block = max(1, _BLOCK_CELLS // (8 * self.num_trees))
        (columns, thresholds, table), *deeper = self._rounds
        for start in range(0, len(features), block):
            rows = features[start : start + block]
            node = table.take(_codes(rows.take(columns, axis=1) <= thresholds) + self._tree_offset)
            for below, limits, exits in deeper:  # each row in its own blocks now
                cells = ((node << 3)[:, :, None] + np.arange(8)).reshape(len(rows), -1)
                passed = np.take_along_axis(rows, below.take(cells), axis=1) <= limits.take(cells)
                node = exits.take(_codes(passed) + (node << 7))
            yield slice(start, start + len(rows)), node.cumsum(axis=1)

    def split_counts(self, num_features: int) -> np.ndarray:
        """How many split nodes test each feature (padding slots excluded)."""
        return np.bincount(self.feature[self.feature >= 0], minlength=num_features)
