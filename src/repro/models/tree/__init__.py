"""Decision-tree infrastructure.

Shared by the rule-based detectors (ID3, C5.0-style C4.5) and by GBDT's
regression trees:

* :mod:`repro.models.tree.splitter` — impurity criteria (entropy, information
  gain, gain ratio, variance reduction) and vectorised best-split search,
* :mod:`repro.models.tree.node` — the tree node structure and traversal,
* :mod:`repro.models.tree.id3` — ID3 with multiway categorical splits,
* :mod:`repro.models.tree.c45` — C4.5/C5.0-style trees (gain ratio, binary
  threshold splits on continuous attributes, pessimistic pruning),
* :mod:`repro.models.tree.cart` — regression trees used as GBDT weak learners,
* :mod:`repro.models.tree.histogram` — quantile binning and histogram-based
  tree growth (GBDT's ``tree_method="hist"`` fast path),
* :mod:`repro.models.tree.forest` — fitted trees compiled into flat arrays,
  the only raw-feature scorer of a boosted ensemble.
"""

from repro.models.tree.node import TreeNode
from repro.models.tree.splitter import (
    entropy,
    gini_impurity,
    information_gain,
    gain_ratio,
    best_numeric_split,
    best_categorical_split,
    best_histogram_split,
)
from repro.models.tree.id3 import ID3Classifier
from repro.models.tree.c45 import C45Classifier
from repro.models.tree.cart import RegressionTree
from repro.models.tree.histogram import (
    HistogramBinner,
    HistogramTree,
    HistogramTreeBuilder,
    build_histograms,
)

__all__ = [
    "TreeNode",
    "entropy",
    "gini_impurity",
    "information_gain",
    "gain_ratio",
    "best_numeric_split",
    "best_categorical_split",
    "best_histogram_split",
    "ID3Classifier",
    "C45Classifier",
    "RegressionTree",
    "HistogramBinner",
    "HistogramTree",
    "HistogramTreeBuilder",
    "build_histograms",
]
