"""Versioned model registry.

The offline trainer produces a new model file every day ("T+1"); the Model
Server periodically picks up the latest version.  The registry stores trained
model bundles keyed by a version string (the training day), exposes the latest
version, and keeps enough metadata for rollback and audit — the minimum a
production model-management loop needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import ModelError, ServingError
from repro.features.plan import FeaturePlan
from repro.models.base import BaseDetector


@dataclass
class ModelVersion:
    """Metadata of one registered model.

    ``plan`` is the feature spec the trainer exported with the model; loading
    a version into a Model Server means installing both together (``None``
    is the basic-features-only plan).
    """

    version: str
    model: BaseDetector
    threshold: float
    feature_names: List[str]
    plan: Optional[FeaturePlan] = None
    training_day: Optional[int] = None
    metrics: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line human-readable summary of the version."""
        return (
            f"model {self.version} ({self.model.name}), threshold {self.threshold:.3f}, "
            f"{len(self.feature_names)} features"
        )


class ModelRegistry:
    """Registry of model versions ordered by registration *sequence*.

    Every successful :meth:`register` call — including an ``overwrite=True``
    re-registration of an existing version string — is stamped with the next
    value of a monotonic sequence counter, and :meth:`latest`,
    :meth:`versions`, :meth:`rollback` and :meth:`history` are all defined in
    terms of that counter.  Ordering therefore never depends on dict
    iteration order, and a version re-registered after a retrain *supersedes*
    everything registered before it — under the old insertion-order list, an
    overwritten version kept its original position and ``latest()`` silently
    skipped the retrained model (regression-tested in
    ``tests/test_serving_runtime.py``).
    """

    def __init__(self) -> None:
        self._versions: Dict[str, ModelVersion] = {}
        self._sequence: Dict[str, int] = {}
        self._next_sequence = 0

    # ------------------------------------------------------------------
    def register(self, version: ModelVersion, *, overwrite: bool = False) -> None:
        """Register a fitted model bundle as the newest version.

        Re-registering an existing version string requires ``overwrite=True``
        and moves that version to the head of the sequence order (the
        retrained model is now the one ``latest()`` serves).
        """
        if not version.model.is_fitted:
            raise ModelError("only fitted models can be registered")
        if version.version in self._versions and not overwrite:
            raise ServingError(f"model version {version.version!r} already registered")
        self._versions[version.version] = version
        self._sequence[version.version] = self._next_sequence
        self._next_sequence += 1

    def get(self, version: str) -> ModelVersion:
        """Look up one version by its version string."""
        try:
            return self._versions[version]
        except KeyError as exc:
            raise ServingError(f"unknown model version {version!r}") from exc

    def latest(self) -> ModelVersion:
        """The most recently registered version (by registration sequence)."""
        if not self._versions:
            raise ServingError("the registry is empty")
        return self._versions[self._ordered()[-1]]

    def _ordered(self) -> List[str]:
        return sorted(self._sequence, key=self._sequence.__getitem__)

    def __contains__(self, version: str) -> bool:
        return version in self._versions

    # ------------------------------------------------------------------
    def rollback(self, *, steps: int = 1) -> ModelVersion:
        """Return the version ``steps`` registrations before the latest."""
        if steps < 1:
            raise ServingError("steps must be at least 1")
        order = self._ordered()
        if len(order) <= steps:
            raise ServingError(
                f"cannot roll back {steps} step(s) with only {len(order)} version(s)"
            )
        return self._versions[order[-(steps + 1)]]

    def history(self) -> List[Dict[str, object]]:
        """Chronological audit trail of the registered versions."""
        return [
            {
                "version": version,
                "sequence": self._sequence[version],
                "model": self._versions[version].model.name,
                "threshold": self._versions[version].threshold,
                "training_day": self._versions[version].training_day,
                "metrics": dict(self._versions[version].metrics),
            }
            for version in self._ordered()
        ]
