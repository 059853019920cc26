"""Evaluation metrics.

The paper reports two metrics:

* **F1 score** (Table 1, Figures 11/12, Table 2) — harmonic mean of precision
  and recall of the fraud class,
* **rec@top k%** (Figure 9) — recall restricted to the k % most suspicious
  transactions, "the ability of the classifier to find the most suspicious
  fraud".

Labels arrive with a delay in production, so the decision threshold cannot be
tuned on the test day; :func:`select_threshold` picks it on the training
window, mirroring how the deployed system calibrates alert volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError


@dataclass
class EvaluationMetrics:
    """All per-day metrics produced by the experiment harness."""

    f1: float
    precision: float
    recall: float
    recall_at_top_1pct: float
    threshold: float
    num_transactions: int
    num_frauds: int
    extras: Dict[str, float] | None = None

    def as_dict(self) -> Dict[str, float]:
        result = {
            "f1": self.f1,
            "precision": self.precision,
            "recall": self.recall,
            "recall_at_top_1pct": self.recall_at_top_1pct,
            "threshold": self.threshold,
            "num_transactions": float(self.num_transactions),
            "num_frauds": float(self.num_frauds),
        }
        if self.extras:
            result.update(self.extras)
        return result


def _validate(labels: np.ndarray, scores: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.float64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if labels.shape[0] != scores.shape[0]:
        raise ModelError(
            f"{labels.shape[0]} labels do not match {scores.shape[0]} scores"
        )
    if labels.shape[0] == 0:
        raise ModelError("cannot evaluate on an empty set")
    return labels, scores


def confusion_counts(
    labels: np.ndarray, predictions: np.ndarray
) -> Tuple[int, int, int, int]:
    """Return (true positives, false positives, false negatives, true negatives)."""
    labels, predictions = _validate(labels, predictions)
    positives = predictions >= 0.5
    actual = labels >= 0.5
    tp = int(np.sum(positives & actual))
    fp = int(np.sum(positives & ~actual))
    fn = int(np.sum(~positives & actual))
    tn = int(np.sum(~positives & ~actual))
    return tp, fp, fn, tn


def precision_recall(labels: np.ndarray, predictions: np.ndarray) -> Tuple[float, float]:
    """Precision and recall of the fraud (positive) class."""
    tp, fp, fn, _ = confusion_counts(labels, predictions)
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    return precision, recall


def f1_score(labels: np.ndarray, scores: np.ndarray, *, threshold: float = 0.5) -> float:
    """F1 of the fraud class at ``threshold``."""
    labels, scores = _validate(labels, scores)
    predictions = (scores >= threshold).astype(np.float64)
    precision, recall = precision_recall(labels, predictions)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def recall_at_top_percent(
    labels: np.ndarray, scores: np.ndarray, *, percent: float = 1.0
) -> float:
    """Recall restricted to the top ``percent`` % most suspicious transactions.

    This is the paper's rec@top 1 % (Figure 9): sort by descending score, keep
    the top percent, and compute which fraction of all frauds falls inside.
    """
    labels, scores = _validate(labels, scores)
    if not 0.0 < percent <= 100.0:
        raise ModelError("percent must be in (0, 100]")
    total_frauds = float(labels.sum())
    if total_frauds == 0.0:
        return 0.0
    count = max(1, int(round(labels.shape[0] * percent / 100.0)))
    top_indices = np.argsort(-scores, kind="stable")[:count]
    return float(labels[top_indices].sum() / total_frauds)


def select_threshold(labels: np.ndarray, scores: np.ndarray) -> float:
    """Pick the score threshold maximising F1 on (training) data.

    Every distinct score is a candidate, and a row is flagged when its score
    is at least the threshold, so a group of tied scores is flagged whole.
    One stable sort by descending score and one cumulative sum give each
    candidate's true positives and flagged count, and
    ``F1 = 2·TP / (flagged + positives)``; of thresholds with equal F1 the
    highest (the fewest alerts) wins.
    """
    labels, scores = _validate(labels, scores)
    positives = labels >= 0.5
    if not positives.any():
        return 0.5
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    true_positives = np.cumsum(positives[order])
    last_of_tie = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    f1 = 2.0 * true_positives[last_of_tie] / (last_of_tie + 1 + np.count_nonzero(positives))
    return float(ranked[last_of_tie[np.argmax(f1)]])


def evaluate_scores(
    labels: np.ndarray,
    scores: np.ndarray,
    *,
    threshold: Optional[float] = None,
) -> EvaluationMetrics:
    """Compute the full metric bundle for pre-computed scores."""
    labels, scores = _validate(labels, scores)
    if threshold is None:
        threshold = select_threshold(labels, scores)
    predictions = (scores >= threshold).astype(np.float64)
    precision, recall = precision_recall(labels, predictions)
    return EvaluationMetrics(
        f1=f1_score(labels, scores, threshold=threshold),
        precision=precision,
        recall=recall,
        recall_at_top_1pct=recall_at_top_percent(labels, scores, percent=1.0),
        threshold=threshold,
        num_transactions=int(labels.shape[0]),
        num_frauds=int(labels.sum()),
    )


@dataclass
class SliceRecall:
    """Recall of one labelled evaluation slice at a fixed threshold.

    ``recall`` is the fraction of the slice's frauds the detector alerted on
    at the shared threshold — per-slice recall against a global operating
    point, not a per-slice re-calibration.
    """

    slice_name: str
    num_frauds: int
    num_detected: int

    @property
    def recall(self) -> float:
        """Detected fraction of this slice's frauds (0.0 for an empty slice)."""
        return self.num_detected / self.num_frauds if self.num_frauds else 0.0


def recall_by_slice(
    labels: np.ndarray,
    scores: np.ndarray,
    slices: Sequence[str],
    *,
    threshold: float,
) -> Dict[str, SliceRecall]:
    """Per-slice recall at one shared decision threshold.

    ``slices`` assigns each row a slice name (rows with an empty name are
    ignored); only fraud rows contribute.  The same threshold is applied to
    every slice — the question answered is "at the operating point we deploy,
    which fraud scenarios do we catch?", which a single pooled recall hides
    (a detector can post high overall recall while missing an entire
    low-volume typology).
    """
    labels, scores = _validate(labels, scores)
    if len(slices) != labels.shape[0]:
        raise ModelError(
            f"{len(slices)} slice names do not match {labels.shape[0]} rows"
        )
    detected = scores >= threshold
    results: Dict[str, SliceRecall] = {}
    for row, name in enumerate(slices):
        if not name or labels[row] < 0.5:
            continue
        entry = results.setdefault(name, SliceRecall(name, 0, 0))
        entry.num_frauds += 1
        if detected[row]:
            entry.num_detected += 1
    return results


def typology_recall_report(
    transactions: Sequence,
    scores: np.ndarray,
    *,
    threshold: float,
) -> Dict[str, SliceRecall]:
    """Per-fraud-typology recall for a scored transaction slice.

    Slices come from each transaction's ``fraud_typology`` tag (set by the
    labelled typology suite in :mod:`repro.datagen.fraud`); untagged rows —
    normal transfers and background fraud — are excluded.  Returns a dict
    keyed by typology name, sorted by name for stable reporting.
    """
    labels = np.array([1.0 if txn.is_fraud else 0.0 for txn in transactions])
    slices = [txn.fraud_typology for txn in transactions]
    results = recall_by_slice(labels, scores, slices, threshold=threshold)
    return {name: results[name] for name in sorted(results)}
