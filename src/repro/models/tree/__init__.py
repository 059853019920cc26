"""Decision-tree infrastructure of GBDT's regression trees:

* :mod:`repro.models.tree.splitter` — the second-order (variance-reduction)
  best-split search over histograms,
* :mod:`repro.models.tree.node` — the tree node structure and traversal
  (numeric splits, and the multiway categorical splits the ID3 and C5.0
  baselines in ``benchmarks/paper`` grow),
* :mod:`repro.models.tree.histogram` — quantile binning and histogram-based
  growth of GBDT's regression-tree weak learners,
* :mod:`repro.models.tree.forest` — fitted trees compiled into flat arrays,
  the only raw-feature scorer of a boosted ensemble.

The exact sorted-search grower the histogram one is compared with lives in
``benchmarks/paper/exact.py``.
"""

from repro.models.tree.node import TreeNode
from repro.models.tree.splitter import best_histogram_splits
from repro.models.tree.histogram import (
    HistogramBinner,
    HistogramTree,
    HistogramTreeBuilder,
    build_histograms,
)

__all__ = [
    "TreeNode",
    "best_histogram_splits",
    "HistogramBinner",
    "HistogramTree",
    "HistogramTreeBuilder",
    "build_histograms",
]
