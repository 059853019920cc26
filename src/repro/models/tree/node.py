"""Decision-tree node structure and traversal."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

from repro.exceptions import ModelError


@dataclass
class TreeNode:
    """One node of a decision tree.

    A node is either

    * a **leaf** (``is_leaf`` is True): ``value`` is the prediction (class
      probability for classification trees, regression value for CART),
    * a **numeric split**: ``feature_index`` and ``threshold`` are set and
      ``left`` / ``right`` are the ``<= threshold`` / ``> threshold`` children,
    * a **categorical split** (ID3 / C4.5 multiway): ``feature_index`` is set
      and ``children`` maps each category value to a child node.
    """

    is_leaf: bool = True
    value: float = 0.0
    num_samples: int = 0
    feature_index: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    children: Dict[float, "TreeNode"] = field(default_factory=dict)
    #: For histogram-built trees: last bin index routed left (``bin <=
    #: bin_threshold`` mirrors ``value <= threshold`` on the raw feature), so
    #: the boosting loop can traverse pre-binned matrices without touching
    #: the float features.
    bin_threshold: Optional[int] = None
    #: Majority/fallback prediction used when a categorical value was never
    #: seen during training.
    fallback_value: float = 0.0

    @classmethod
    def leaf(cls, value: float, num_samples: int) -> "TreeNode":
        """A fresh leaf: ``value`` is also what it answers for an unseen category."""
        return cls(is_leaf=True, value=value, num_samples=num_samples, fallback_value=value)

    # ------------------------------------------------------------------
    def predict_row(self, row: np.ndarray) -> float:
        """Route one feature row to a leaf and return its value."""
        node = self
        while not node.is_leaf:
            if node.feature_index is None:
                raise ModelError("internal node without a feature index")
            feature_value = row[node.feature_index]
            if node.threshold is not None:
                node = node.left if feature_value <= node.threshold else node.right
                if node is None:
                    raise ModelError("numeric split node with a missing child")
            else:
                child = node.children.get(float(feature_value))
                if child is None:
                    return node.fallback_value
                node = child
        return node.value

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Depth of the subtree rooted at this node (a leaf has depth 0)."""
        if self.is_leaf:
            return 0
        children = list(self.children.values())
        if self.left is not None:
            children.append(self.left)
        if self.right is not None:
            children.append(self.right)
        return 1 + max((child.depth() for child in children), default=0)

    def count_leaves(self) -> int:
        if self.is_leaf:
            return 1
        total = 0
        for child in self.iter_children():
            total += child.count_leaves()
        return total

    def iter_children(self) -> Iterator["TreeNode"]:
        if self.left is not None:
            yield self.left
        if self.right is not None:
            yield self.right
        yield from self.children.values()
