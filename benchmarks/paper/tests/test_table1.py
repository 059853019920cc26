"""The Table 1 and Figure 9 drivers on the tier-1 session world."""

from __future__ import annotations

import pytest

from benchmarks.paper.table1 import (
    format_table1,
    preparation_for,
    run_recall_at_top,
    run_table1,
    score_test_day,
)
from repro.core import ExperimentConfig, ExperimentRunner, ModelHyperparameters
from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
from repro.core.evaluation import evaluate_scores

import tests.conftest as conftest_module


@pytest.fixture(scope="module")
def experiment_runner(world):
    config = ExperimentConfig(
        num_datasets=1,
        network_days=conftest_module.TEST_NETWORK_DAYS,
        train_days=conftest_module.TEST_TRAIN_DAYS,
        hyperparameters=ModelHyperparameters.fast_test_scale(),
    )
    return ExperimentRunner(world, config)


def test_run_table1_subset(experiment_runner):
    subset = [
        Table1Configuration(1, DetectorName.ISOLATION_FOREST, FeatureSetName.BASIC),
        Table1Configuration(5, DetectorName.GBDT, FeatureSetName.BASIC),
        Table1Configuration(9, DetectorName.GBDT, FeatureSetName.BASIC_DW),
    ]
    results = run_table1(experiment_runner, configurations=subset)
    assert len(results) == 3
    assert all(len(r.daily) == 1 for r in results)
    assert all(0.0 <= r.mean_f1 <= 1.0 for r in results)
    rendered = format_table1(results)
    assert "Basic Features+GBDT" in rendered


def test_recall_at_top_runs_for_all_detectors(experiment_runner):
    results = run_recall_at_top(experiment_runner)
    assert set(results) == {"if", "id3", "c50", "lr", "gbdt"}
    assert all(0.0 <= value <= 1.0 for value in results.values())


def test_preparation_for_prepares_a_slice_once_per_runner(experiment_runner):
    dataset = experiment_runner.datasets()[0]
    first = preparation_for(experiment_runner, dataset)
    assert preparation_for(experiment_runner, dataset) is first
    # The default configurations use both embedding models.
    assert {"dw", "s2v"} <= set(first.embeddings)


def test_preparation_for_trains_only_the_embeddings_the_configurations_use(world):
    config = ExperimentConfig(
        num_datasets=1,
        network_days=conftest_module.TEST_NETWORK_DAYS,
        train_days=conftest_module.TEST_TRAIN_DAYS,
        hyperparameters=ModelHyperparameters.fast_test_scale(),
        configurations=[Table1Configuration(5, DetectorName.GBDT, FeatureSetName.BASIC)],
    )
    runner = ExperimentRunner(world, config)
    preparation = preparation_for(runner, runner.datasets()[0])
    assert not preparation.embeddings
    assert preparation.network.num_nodes > 0


def test_score_test_day_reports_the_best_f1_over_thresholds(experiment_runner):
    preparation = preparation_for(experiment_runner, experiment_runner.datasets()[0])
    configuration = Table1Configuration(5, DetectorName.GBDT, FeatureSetName.BASIC)
    bundle = experiment_runner.pipeline.train(preparation, configuration)
    best = score_test_day(experiment_runner, preparation, bundle)
    test_matrix = experiment_runner.pipeline.evaluate(preparation, bundle)
    scores = bundle.detector.predict_proba(test_matrix.values)
    deployed = evaluate_scores(test_matrix.labels, scores, threshold=bundle.threshold)
    assert best.f1 >= deployed.f1
    assert best.num_transactions == deployed.num_transactions
