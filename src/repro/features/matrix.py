"""Design-matrix container shared by the feature layer and the models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import FeatureError


@dataclass
class FeatureMatrix:
    """A named design matrix with optional row identifiers and labels.

    ``values`` has shape (num_rows, num_features) and ``feature_names`` names
    each column.  ``row_ids`` carries transaction ids through the pipeline so
    that online predictions can be joined back to alerts, and ``labels`` holds
    the (possibly delayed) fraud labels when available.
    """

    feature_names: List[str]
    values: np.ndarray
    row_ids: Optional[List[str]] = None
    labels: Optional[np.ndarray] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise FeatureError("values must be a 2-dimensional array")
        if self.values.shape[1] != len(self.feature_names):
            raise FeatureError(
                f"{len(self.feature_names)} feature names do not match "
                f"{self.values.shape[1]} columns"
            )
        if self.row_ids is not None and len(self.row_ids) != self.values.shape[0]:
            raise FeatureError("row_ids length does not match the number of rows")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.float64)
            if self.labels.shape[0] != self.values.shape[0]:
                raise FeatureError("labels length does not match the number of rows")

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.values.shape[1])

    def column(self, name: str) -> np.ndarray:
        """Return one feature column by name."""
        try:
            index = self.feature_names.index(name)
        except ValueError as exc:
            raise FeatureError(f"unknown feature {name!r}") from exc
        return self.values[:, index]

    def hstack(self, other: "FeatureMatrix") -> "FeatureMatrix":
        """Concatenate feature columns of two matrices with identical rows."""
        if other.num_rows != self.num_rows:
            raise FeatureError(
                f"cannot hstack matrices with {self.num_rows} and {other.num_rows} rows"
            )
        overlap = set(self.feature_names) & set(other.feature_names)
        if overlap:
            raise FeatureError(f"duplicate feature names: {sorted(overlap)[:5]}")
        return FeatureMatrix(
            feature_names=self.feature_names + other.feature_names,
            values=np.hstack([self.values, other.values]),
            row_ids=self.row_ids if self.row_ids is not None else other.row_ids,
            labels=self.labels if self.labels is not None else other.labels,
            metadata={**other.metadata, **self.metadata},
        )

    def take(self, indices: Sequence[int]) -> "FeatureMatrix":
        """Row subset by integer indices."""
        indices = list(indices)
        return FeatureMatrix(
            feature_names=list(self.feature_names),
            values=self.values[indices],
            row_ids=[self.row_ids[i] for i in indices] if self.row_ids is not None else None,
            labels=self.labels[indices] if self.labels is not None else None,
            metadata=dict(self.metadata),
        )

    def with_labels(self, labels: Sequence[float]) -> "FeatureMatrix":
        """Return a copy with ``labels`` attached."""
        return FeatureMatrix(
            feature_names=list(self.feature_names),
            values=self.values,
            row_ids=self.row_ids,
            labels=np.asarray(labels, dtype=np.float64),
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FeatureMatrix(rows={self.num_rows}, features={self.num_features})"
