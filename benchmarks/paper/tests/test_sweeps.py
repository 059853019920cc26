"""The Figure 10 / 11 / 12 and Table 2 sweeps and the serving stack the latency
benchmarks deploy, on the small unit-test world."""

from __future__ import annotations

import pytest

from benchmarks.paper.serving_stack import build_serving_stack
from benchmarks.paper.sweeps import node_sampling_sweep, scalability_curve, tree_sweep
from benchmarks.paper.table1 import preparation_for
from repro.core import ExperimentConfig, ExperimentRunner, ModelHyperparameters
from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
from repro.features.aggregation import AggregationConfig

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


def test_node_sampling_sweep(experiment_runner):
    results = node_sampling_sweep(experiment_runner, sampling_counts=(2, 4))
    assert set(results) == {2, 4}


def test_tree_sweep_uses_the_staged_gbdt(experiment_runner):
    results = tree_sweep(experiment_runner, tree_counts=(4, 2), feature_sets=(FeatureSetName.BASIC,))
    assert list(results) == ["basic"] and sorted(results["basic"]) == [2, 4]
    assert all(0.0 <= f1 <= 1.0 for f1 in results["basic"].values())


def test_scalability_curve_columns():
    rows = scalability_curve()
    assert {"num_machines", "deepwalk_minutes", "gbdt_seconds"} <= set(rows[0])
    assert [r["num_machines"] for r in rows] == [4.0, 10.0, 20.0, 40.0]


def test_experiment_serving_stack_attaches_updater(world):
    configuration = Table1Configuration(1, DetectorName.GBDT, FeatureSetName.BASIC)
    runner = ExperimentRunner(
        world,
        ExperimentConfig(
            num_datasets=1,
            network_days=18,
            train_days=6,
            hyperparameters=ModelHyperparameters.laptop_scale(),
            configurations=[configuration],
            aggregation=AggregationConfig(window_days=14),
        ),
    )
    dataset = runner.datasets()[0]
    preparation = preparation_for(runner, dataset)
    _, _, _, alipay = build_serving_stack(runner, preparation, configuration)
    assert alipay.feature_updater is not None
    alipay.replay_transactions(dataset.test_transactions[:20])
    assert alipay.feature_updater.events_observed == 20
