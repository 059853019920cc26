"""Figure 10, Figure 11, Figure 12 and Table 2: sweeps run against the system.

The GBDT sweeps train and score through an :class:`ExperimentRunner`, which
prepares each slice and owns how a test day is scored; Figure 10's series
comes from the KunPeng cost model.  :func:`roc_auc` is the threshold-free
score Figure 12's exact-vs-histogram A/B compares.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from benchmarks.paper.cost_model import estimate_deepwalk_time, estimate_gbdt_time
from benchmarks.paper.table1 import preparation_for, score_test_day
from repro.core import ExperimentRunner
from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
from repro.core.evaluation import _validate, evaluate_scores, select_threshold
from repro.core.pipeline import build_detector
from repro.exceptions import ConfigurationError


def dimension_sweep(
    runner: ExperimentRunner,
    dimensions: Sequence[int] = (8, 16, 32, 64),
    *,
    feature_sets: Sequence[FeatureSetName] = (
        FeatureSetName.BASIC_S2V,
        FeatureSetName.BASIC_DW,
        FeatureSetName.BASIC_DW_S2V,
    ),
) -> Dict[str, Dict[int, float]]:
    """Figure 11: F1 of GBDT versus the embedding dimension, on Dataset 1."""
    dataset = runner.datasets()[0]
    results: Dict[str, Dict[int, float]] = {fs.value: {} for fs in feature_sets}
    for dimension in dimensions:
        preparation = runner.pipeline.prepare(
            dataset,
            need_deepwalk=any(fs.uses_deepwalk for fs in feature_sets),
            need_structure2vec=any(fs.uses_structure2vec for fs in feature_sets),
            embedding_dimension=int(dimension),
        )
        for feature_set in feature_sets:
            configuration = Table1Configuration(0, DetectorName.GBDT, feature_set)
            bundle = runner.pipeline.train(preparation, configuration)
            metrics = score_test_day(runner, preparation, bundle)
            results[feature_set.value][int(dimension)] = metrics.f1
    return results


def tree_sweep(
    runner: ExperimentRunner,
    tree_counts: Sequence[int] = (100, 200, 400, 800),
    *,
    feature_sets: Sequence[FeatureSetName] = (
        FeatureSetName.BASIC,
        FeatureSetName.BASIC_S2V,
        FeatureSetName.BASIC_DW,
        FeatureSetName.BASIC_DW_S2V,
    ),
) -> Dict[str, Dict[int, float]]:
    """Figure 12: F1 versus the number of GBDT trees.

    A single model with ``max(tree_counts)`` trees is fitted per feature
    set; the smaller tree counts are evaluated from its staged predictions
    (identical to fitting separately, far cheaper).  Each count's threshold
    is the F1-best one on the training window's first day, scored by an
    auxiliary fit of the same size on the window's other days, so the
    threshold never sees scores of rows its model was fitted on: in-sample,
    a many-tree fit ranks its own training frauds near-perfectly, and the
    threshold that is best there transfers poorly to the test day.  The
    first day is held out because its fraud reports are the most complete
    at the training cut-off (the last day's have mostly not arrived).
    """
    tree_counts = sorted(int(t) for t in tree_counts)
    if not tree_counts:
        raise ConfigurationError("tree_counts must not be empty")
    dataset = runner.datasets()[0]
    preparation = preparation_for(runner, dataset)
    hyperparameters = runner.config.hyperparameters.with_overrides(
        gbdt_num_trees=tree_counts[-1]
    )
    days = np.array([txn.day for txn in dataset.train_transactions])
    held_out = days == days.min()
    results: Dict[str, Dict[int, float]] = {}
    for feature_set in feature_sets:
        assembler = runner.pipeline.assembler_for(preparation, feature_set)
        train_matrix = assembler.assemble(dataset.train_transactions)
        test_matrix = assembler.assemble(dataset.test_transactions)
        model = build_detector(DetectorName.GBDT, hyperparameters)
        model.fit(train_matrix.values, train_matrix.labels)
        auxiliary = build_detector(DetectorName.GBDT, hyperparameters)
        auxiliary.fit(train_matrix.values[~held_out], train_matrix.labels[~held_out])
        thresholds = {
            count: select_threshold(train_matrix.labels[held_out], scores)
            for count, scores in auxiliary.staged_predict_proba(
                train_matrix.values[held_out], every=1
            )
            if count in tree_counts
        }
        results[feature_set.value] = {
            count: evaluate_scores(test_matrix.labels, scores, threshold=thresholds[count]).f1
            for count, scores in model.staged_predict_proba(test_matrix.values, every=1)
            if count in tree_counts
        }
    return results


def node_sampling_sweep(
    runner: ExperimentRunner, sampling_counts: Sequence[int] = (25, 50, 100, 200)
) -> Dict[int, float]:
    """Table 2: F1 of Basic+DW+GBDT versus the number of walks per node (Dataset 1)."""
    dataset = runner.datasets()[0]
    results: Dict[int, float] = {}
    for count in sampling_counts:
        preparation = runner.pipeline.prepare(
            dataset,
            need_deepwalk=True,
            need_structure2vec=False,
            deepwalk_num_walks=int(count),
        )
        configuration = Table1Configuration(0, DetectorName.GBDT, FeatureSetName.BASIC_DW)
        bundle = runner.pipeline.train(preparation, configuration)
        metrics = score_test_day(runner, preparation, bundle)
        results[int(count)] = metrics.f1
    return results


def scalability_curve(
    machine_counts: Sequence[int] = (4, 10, 20, 40),
) -> List[Dict[str, float]]:
    """Figure 10: DW minutes and GBDT seconds per machine count."""
    rows: List[Dict[str, float]] = []
    for machines in machine_counts:
        deepwalk = estimate_deepwalk_time(machines)
        gbdt = estimate_gbdt_time(machines)
        rows.append(
            {
                "num_machines": float(machines),
                "deepwalk_minutes": deepwalk.total_seconds / 60.0,
                "gbdt_seconds": gbdt.total_seconds,
            }
        )
    return rows


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve (rank statistic, ties averaged).

    Threshold-free companion to the paper's F1/rec@top-k metrics, used by the
    exact-vs-histogram GBDT A/B to assert score-quality parity without
    depending on the calibrated decision threshold.  Returns 0.5 when only
    one class is present.
    """
    labels, scores = _validate(labels, scores)
    num_rows = labels.shape[0]
    positives = labels.sum()
    negatives = num_rows - positives
    if positives == 0 or negatives == 0:
        return 0.5
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    boundaries = np.nonzero(np.diff(sorted_scores))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [num_rows]])
    # 1-based ranks; a tie group spanning [start, end) gets the average rank.
    average_ranks = (starts + ends + 1) / 2.0
    ranks = np.empty(num_rows)
    ranks[order] = np.repeat(average_ranks, ends - starts)
    positive_rank_sum = ranks[labels > 0.5].sum()
    return float(
        (positive_rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)
    )
