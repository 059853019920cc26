"""Feature discretisation.

Two of the paper's detection methods depend on binning continuous values:

* Logistic Regression — "better performance can be achieved after feature
  discretization in most cases"; the paper's best LR uses 200 bins,
* the rule-based trees (ID3 / C5.0) — "cannot support continuous values well,
  we discretize the data into different bins".

We provide equal-width and equal-frequency (quantile) binners plus a
:class:`Discretizer` that applies a binner per column and can one-hot encode
the resulting bin indices (the usual "discretise + LR" recipe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional, Sequence

import numpy as np

from repro.exceptions import FeatureError, NotFittedError
from repro.features.matrix import FeatureMatrix


class _BaseBinner:
    """Shared fit/transform plumbing of the per-column binners."""

    def __init__(self, num_bins: int) -> None:
        if num_bins < 2:
            raise FeatureError("num_bins must be at least 2")
        self.num_bins = num_bins
        self.edges_: Optional[np.ndarray] = None

    def fit(self, values: np.ndarray) -> "_BaseBinner":
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            raise FeatureError("cannot fit a binner on an empty column")
        self.edges_ = self._compute_edges(values)
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise NotFittedError("binner must be fitted before transform")
        values = np.asarray(values, dtype=np.float64).ravel()
        bins = np.searchsorted(self.edges_, values, side="right")
        return np.clip(bins, 0, self.num_bins - 1)

    def fit_transform(self, values: np.ndarray) -> np.ndarray:
        return self.fit(values).transform(values)

    @property
    def actual_num_bins(self) -> int:
        """Number of distinct bins after fitting (duplicates collapse)."""
        if self.edges_ is None:
            raise NotFittedError("binner must be fitted first")
        return int(len(self.edges_) + 1)

    def _compute_edges(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class EqualWidthBinner(_BaseBinner):
    """Bins of equal width between the observed minimum and maximum."""

    def _compute_edges(self, values: np.ndarray) -> np.ndarray:
        low, high = float(values.min()), float(values.max())
        if low == high:
            return np.array([low])
        return np.linspace(low, high, self.num_bins + 1)[1:-1]


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


class QuantileBinner(_BaseBinner):
    """Equal-frequency bins (quantile cut points); robust to heavy tails."""

    def _compute_edges(self, values: np.ndarray) -> np.ndarray:
        return quantile_edges(values, self.num_bins)


BinnerKind = Literal["quantile", "equal_width"]


@dataclass
class DiscretizerConfig:
    """Configuration of the matrix-level discretiser."""

    num_bins: int = 200
    kind: BinnerKind = "quantile"
    one_hot: bool = False
    #: Columns with at most this many distinct values are passed through
    #: unchanged (they are already categorical flags).
    passthrough_max_unique: int = 2


class Discretizer:
    """Fit per-column binners on a :class:`FeatureMatrix` and transform it."""

    def __init__(self, config: DiscretizerConfig | None = None):
        self.config = config or DiscretizerConfig()
        if self.config.num_bins < 2:
            raise FeatureError("num_bins must be at least 2")
        self._binners: Optional[List[Optional[_BaseBinner]]] = None
        self._feature_names: Optional[List[str]] = None

    # ------------------------------------------------------------------
    def fit(self, matrix: FeatureMatrix) -> "Discretizer":
        binners: List[Optional[_BaseBinner]] = []
        for column_index in range(matrix.num_features):
            column = matrix.values[:, column_index]
            if np.unique(column).size <= self.config.passthrough_max_unique:
                binners.append(None)
                continue
            binner: _BaseBinner
            if self.config.kind == "quantile":
                binner = QuantileBinner(self.config.num_bins)
            elif self.config.kind == "equal_width":
                binner = EqualWidthBinner(self.config.num_bins)
            else:
                raise FeatureError(f"unknown binner kind {self.config.kind!r}")
            binners.append(binner.fit(column))
        self._binners = binners
        self._feature_names = list(matrix.feature_names)
        return self

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        if self._binners is None or self._feature_names is None:
            raise NotFittedError("Discretizer must be fitted before transform")
        if matrix.num_features != len(self._binners):
            raise FeatureError(
                f"matrix has {matrix.num_features} features, discretizer was fitted on "
                f"{len(self._binners)}"
            )
        if self.config.one_hot:
            return self._transform_one_hot(matrix)
        transformed = matrix.values.copy()
        for column_index, binner in enumerate(self._binners):
            if binner is not None:
                transformed[:, column_index] = binner.transform(matrix.values[:, column_index])
        return FeatureMatrix(
            feature_names=list(matrix.feature_names),
            values=transformed,
            row_ids=matrix.row_ids,
            labels=matrix.labels,
            metadata={**matrix.metadata, "discretized": True},
        )

    def fit_transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        return self.fit(matrix).transform(matrix)

    # ------------------------------------------------------------------
    def _transform_one_hot(self, matrix: FeatureMatrix) -> FeatureMatrix:
        assert self._binners is not None
        columns: List[np.ndarray] = []
        names: List[str] = []
        for column_index, binner in enumerate(self._binners):
            name = matrix.feature_names[column_index]
            column = matrix.values[:, column_index]
            if binner is None:
                columns.append(column[:, None])
                names.append(name)
                continue
            bins = binner.transform(column)
            width = binner.actual_num_bins
            encoded = np.zeros((matrix.num_rows, width))
            encoded[np.arange(matrix.num_rows), bins.astype(int)] = 1.0
            columns.append(encoded)
            names.extend(f"{name}__bin{i}" for i in range(width))
        return FeatureMatrix(
            feature_names=names,
            values=np.hstack(columns) if columns else np.zeros((matrix.num_rows, 0)),
            row_ids=matrix.row_ids,
            labels=matrix.labels,
            metadata={**matrix.metadata, "discretized": True, "one_hot": True},
        )


def discretize_array(
    values: np.ndarray, *, num_bins: int = 10, kind: BinnerKind = "quantile"
) -> np.ndarray:
    """Discretise a raw 2-D array column by column (no FeatureMatrix needed)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise FeatureError("discretize_array expects a 2-D array")
    result = values.copy()
    for column_index in range(values.shape[1]):
        column = values[:, column_index]
        if np.unique(column).size <= 2:
            continue
        binner: _BaseBinner
        binner = (
            QuantileBinner(num_bins) if kind == "quantile" else EqualWidthBinner(num_bins)
        )
        result[:, column_index] = binner.fit_transform(column)
    return result
