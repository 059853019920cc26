"""Feature discretisation, and the one owner of quantile cut points.

Logistic Regression bins its inputs — "better performance can be achieved
after feature discretization in most cases"; the paper's best LR uses 200
bins.  :class:`Discretizer` quantile-bins every continuous column of a
feature array and one-hot encodes the bin indices (the usual "discretise +
LR" recipe).  Every quantile cut point comes from :func:`column_quantiles`:
the discretiser's, the GBDT histogram binner's, the threshold grid's and the
ID3 baseline's.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import FeatureError, NotFittedError

#: Columns with at most this many distinct values are passed through
#: unchanged (they are already categorical flags).
PASSTHROUGH_MAX_UNIQUE = 2


def column_quantiles(features: np.ndarray, levels: np.ndarray) -> List[np.ndarray]:
    """The deduplicated ``levels``-quantiles of every column of a 2-D matrix,
    from one ``np.quantile`` call: each column goes through the partition and
    interpolation a call on it alone would, so the bytes are the same."""
    cuts = np.quantile(np.asarray(features, dtype=np.float64), levels, axis=0)
    return [np.unique(cuts[:, column]) for column in range(cuts.shape[1])]


def column_quantile_edges(features: np.ndarray, num_bins: int) -> List[np.ndarray]:
    """:func:`quantile_edges` of every column of a 2-D matrix, in one pass."""
    return column_quantiles(features, np.linspace(0.0, 1.0, num_bins + 1)[1:-1])


def quantile_edges(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Deduplicated quantile cut points splitting ``values`` into ``num_bins``.

    The one-column case of :func:`column_quantile_edges`, which the GBDT
    histogram binner (:class:`repro.models.tree.histogram.HistogramBinner`)
    calls, so the offline discretiser and the boosting engine agree on bin
    boundaries.
    """
    if num_bins < 2:
        raise FeatureError("num_bins must be at least 2")
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise FeatureError("cannot compute bin edges of an empty column")
    return column_quantile_edges(values[:, None], num_bins)[0]


class QuantileBinner:
    """Equal-frequency bins (quantile cut points) of one column; robust to heavy tails."""

    def __init__(self, num_bins: int) -> None:
        if num_bins < 2:
            raise FeatureError("num_bins must be at least 2")
        self.num_bins = num_bins
        self.edges_: Optional[np.ndarray] = None

    def fit(self, values: np.ndarray) -> "QuantileBinner":
        self.edges_ = quantile_edges(values, self.num_bins)
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Bin index per value; at most ``len(edges_) <= num_bins - 1``."""
        if self.edges_ is None:
            raise NotFittedError("binner must be fitted before transform")
        values = np.asarray(values, dtype=np.float64).ravel()
        return np.searchsorted(self.edges_, values, side="right")

    @property
    def actual_num_bins(self) -> int:
        """Number of distinct bins after fitting (duplicates collapse)."""
        if self.edges_ is None:
            raise NotFittedError("binner must be fitted first")
        return int(len(self.edges_) + 1)


class Discretizer:
    """Quantile-bin the continuous columns of a feature array and one-hot
    encode the bins; flag columns pass through."""

    def __init__(self, num_bins: int = 200):
        if num_bins < 2:
            raise FeatureError("num_bins must be at least 2")
        self.num_bins = num_bins
        self._binners: Optional[List[Optional[QuantileBinner]]] = None

    def fit(self, features: np.ndarray) -> "Discretizer":
        self._binners = [
            None
            if np.unique(column).size <= PASSTHROUGH_MAX_UNIQUE
            else QuantileBinner(self.num_bins).fit(column)
            for column in np.asarray(features, dtype=np.float64).T
        ]
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self._binners is None:
            raise NotFittedError("Discretizer must be fitted before transform")
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != len(self._binners):
            raise FeatureError(
                f"features have {features.shape[1]} columns, discretizer was fitted on "
                f"{len(self._binners)}"
            )
        rows = np.arange(features.shape[0])
        columns: List[np.ndarray] = []
        for column, binner in zip(features.T, self._binners):
            if binner is None:
                columns.append(column[:, None])
                continue
            encoded = np.zeros((features.shape[0], binner.actual_num_bins))
            encoded[rows, binner.transform(column)] = 1.0
            columns.append(encoded)
        return np.hstack(columns) if columns else np.zeros((features.shape[0], 0))
