"""Tests of the core layer: metrics, configuration, pipeline, experiment, registry."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExperimentConfig,
    ExperimentRunner,
    ModelHyperparameters,
    ModelRegistry,
    ModelVersion,
    TABLE1_CONFIGURATIONS,
    f1_score,
    recall_at_top_percent,
    select_threshold,
)
from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
from repro.core.evaluation import confusion_counts, evaluate_scores, precision_recall
from repro.core.pipeline import OfflineTrainingPipeline
from repro.exceptions import ConfigurationError, ModelError, ServingError
from repro.hbase import HBaseClient
from repro.models.gbdt import GradientBoostingClassifier
from repro.serving import AlipayServer, ModelServer, ModelServerConfig
from repro.serving.model_server import TransactionRequest

import tests.conftest as conftest_module


class TestEvaluationMetrics:
    def test_confusion_and_f1(self):
        labels = np.array([1, 1, 0, 0, 1, 0])
        predictions = np.array([1, 0, 0, 1, 1, 0])
        tp, fp, fn, tn = confusion_counts(labels, predictions)
        assert (tp, fp, fn, tn) == (2, 1, 1, 2)
        precision, recall = precision_recall(labels, predictions)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)
        assert f1_score(labels, predictions.astype(float)) == pytest.approx(2 / 3)

    def test_perfect_and_zero_f1(self):
        labels = np.array([1, 0, 1, 0])
        assert f1_score(labels, labels.astype(float)) == pytest.approx(1.0)
        assert f1_score(labels, 1.0 - labels) == pytest.approx(0.0)

    def test_recall_at_top_percent(self):
        labels = np.zeros(200)
        labels[:4] = 1.0
        scores = np.linspace(1.0, 0.0, 200)  # the 4 frauds carry the top scores
        assert recall_at_top_percent(labels, scores, percent=1.0) == pytest.approx(0.5)
        assert recall_at_top_percent(labels, scores, percent=2.0) == pytest.approx(1.0)

    def test_recall_at_top_with_no_frauds(self):
        assert recall_at_top_percent(np.zeros(50), np.random.default_rng(0).random(50)) == 0.0

    def test_select_threshold_maximises_f1(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(500) < 0.1).astype(float)
        scores = np.where(labels == 1, rng.normal(0.8, 0.1, 500), rng.normal(0.3, 0.1, 500))
        threshold = select_threshold(labels, scores)
        best = max(f1_score(labels, scores, threshold=t) for t in np.linspace(0.01, 0.99, 50))
        assert f1_score(labels, scores, threshold=threshold) >= best - 0.02

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.1, 0.5, 0.7, 0.9, 1.0]), st.booleans()),
            min_size=1,
            max_size=60,
        ),
        st.integers(0, 400),
    )
    def test_select_threshold_is_the_exact_f1_argmax_property(self, rows, mass):
        # Few distinct values force ties; ``mass`` extra negatives at one
        # score put over 99 % of the rows on a single value when it is large.
        rows = rows + [(0.1, False)] * mass
        scores = np.array([score for score, _ in rows])
        labels = np.array([1.0 if fraud else 0.0 for _, fraud in rows])
        threshold = select_threshold(labels, scores)
        if labels.sum() == 0:
            assert threshold == 0.5
            return
        positives = int(labels.sum())

        def exact_f1(t):  # brute force over the rule "flag score >= t"
            flagged = scores >= t
            return Fraction(2 * int(labels[flagged].sum()), int(flagged.sum()) + positives)

        candidates = sorted(set(scores.tolist()))
        best = max(exact_f1(t) for t in candidates)
        assert threshold in candidates
        assert exact_f1(threshold) == best
        assert threshold == max(t for t in candidates if exact_f1(t) == best)
        assert f1_score(labels, scores, threshold=threshold) == pytest.approx(float(best))

    def test_select_threshold_separates_a_tie_mass_above_the_99th_percentile(self):
        # Test day 33 of the Table 1 world: a pruned C5.0 tree put 941 of 948
        # scores on one leaf value, so every 1-99 % quantile was that value
        # and the chosen threshold flagged every row (F1 0.027).
        labels = np.array([1.0] * 5 + [0.0] * 936 + [1.0] * 6 + [0.0])
        scores = np.array([0.05] * 941 + [0.9] * 7)
        threshold = select_threshold(labels, scores)
        assert threshold == 0.9
        assert f1_score(labels, scores, threshold=threshold) == pytest.approx(12 / 18)

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ModelError):
            f1_score(np.array([1, 0]), np.array([0.5]))

    def test_evaluate_scores_bundle(self):
        labels = np.array([1, 0, 1, 0, 0, 0, 0, 0, 0, 1])
        scores = np.array([0.9, 0.1, 0.8, 0.2, 0.1, 0.3, 0.2, 0.1, 0.4, 0.7])
        metrics = evaluate_scores(labels, scores)
        assert metrics.f1 == pytest.approx(1.0)
        assert metrics.num_frauds == 3
        assert metrics.as_dict()["recall"] == pytest.approx(1.0)


class TestConfiguration:
    def test_table1_has_eleven_rows(self):
        assert len(TABLE1_CONFIGURATIONS) == 11
        assert [c.number for c in TABLE1_CONFIGURATIONS] == list(range(1, 12))
        assert TABLE1_CONFIGURATIONS[8].label == "Basic Features+DW+GBDT"

    def test_feature_set_flags(self):
        assert FeatureSetName.BASIC_DW.uses_deepwalk
        assert not FeatureSetName.BASIC_DW.uses_structure2vec
        assert FeatureSetName.BASIC_DW_S2V.uses_structure2vec

    def test_hyperparameters_validation(self):
        ModelHyperparameters()
        with pytest.raises(ConfigurationError):
            ModelHyperparameters(embedding_dimension=0)
        with pytest.raises(ConfigurationError):
            ModelHyperparameters(gbdt_subsample=0.0)

    def test_experiment_config_validation(self):
        ExperimentConfig.laptop_scale()
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_datasets=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(embedding_side="middle")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("lr_l1", float("nan")),
            ("lr_l1", float("inf")),
            ("lr_l1", -0.1),
            ("lr_discretize_bins", -1),
            ("deepwalk_window", 0),
            ("s2v_propagation_rounds", 0),
        ],
    )
    def test_hyperparameters_reject_what_the_models_cannot_train_on(self, name, value):
        """A NaN L1 weight would make LR answer NaN for every row (never an
        alert); the window and the propagation rounds need one step each."""
        with pytest.raises(ConfigurationError):
            ModelHyperparameters.laptop_scale().with_overrides(**{name: value})


class TestRegistry:
    def _version(self, feature_matrices, name="v1"):
        train, _ = feature_matrices
        model = GradientBoostingClassifier(num_trees=5, seed=0).fit(train.values, train.labels)
        return ModelVersion(
            version=name, model=model, threshold=0.5, feature_names=train.feature_names
        )

    def test_register_and_latest(self, feature_matrices):
        registry = ModelRegistry()
        registry.register(self._version(feature_matrices, "v1"))
        registry.register(self._version(feature_matrices, "v2"))
        assert registry.latest().version == "v2"
        assert registry.rollback().version == "v1"

    def test_duplicate_rejected_and_unfitted_rejected(self, feature_matrices):
        registry = ModelRegistry()
        registry.register(self._version(feature_matrices, "v1"))
        with pytest.raises(ServingError):
            registry.register(self._version(feature_matrices, "v1"))
        bad = ModelVersion(
            version="bad", model=GradientBoostingClassifier(), threshold=0.5, feature_names=[]
        )
        with pytest.raises(ModelError):
            registry.register(bad)

    def test_history_records_metadata(self, feature_matrices):
        registry = ModelRegistry()
        version = self._version(feature_matrices, "v1")
        version.metrics["f1"] = 0.61
        registry.register(version)
        assert registry.history()[0]["metrics"]["f1"] == 0.61


@pytest.fixture(scope="module")
def experiment_runner(world):
    config = ExperimentConfig(
        num_datasets=1,
        network_days=conftest_module.TEST_NETWORK_DAYS,
        train_days=conftest_module.TEST_TRAIN_DAYS,
        hyperparameters=ModelHyperparameters.fast_test_scale(),
    )
    return ExperimentRunner(world, config)


@pytest.fixture(scope="module")
def preparation(experiment_runner):
    """Dataset 1 with the DeepWalk embeddings the tests' configurations use."""
    return experiment_runner.pipeline.prepare(
        experiment_runner.datasets()[0], need_deepwalk=True, need_structure2vec=False
    )


class TestPipelineAndExperiment:
    def test_prepare_trains_requested_embeddings(self, experiment_runner):
        dataset = experiment_runner.datasets()[0]
        preparation = experiment_runner.pipeline.prepare(
            dataset, need_deepwalk=True, need_structure2vec=False
        )
        assert "dw" in preparation.embeddings and "s2v" not in preparation.embeddings
        assert preparation.network.num_nodes > 0

    def test_train_and_evaluate_one_configuration(self, experiment_runner, preparation):
        configuration = Table1Configuration(9, DetectorName.GBDT, FeatureSetName.BASIC_DW)
        bundle = experiment_runner.pipeline.train(preparation, configuration)
        assert bundle.detector.is_fitted
        assert 0.0 <= bundle.threshold <= 1.0
        test_matrix = experiment_runner.pipeline.evaluate(preparation, bundle)
        assert test_matrix.num_features == len(bundle.feature_names)

    def test_maxcompute_backed_network_matches_direct(self, world, dataset):
        direct = OfflineTrainingPipeline(
            world.profiles_by_id, ModelHyperparameters.fast_test_scale()
        )._build_network(dataset)
        via_maxcompute = OfflineTrainingPipeline(
            world.profiles_by_id,
            ModelHyperparameters.fast_test_scale(),
            use_maxcompute=True,
        )._build_network(dataset)
        assert direct.num_nodes == via_maxcompute.num_nodes
        assert direct.num_edges == via_maxcompute.num_edges

    def test_end_to_end_offline_to_online(self, world, experiment_runner, preparation):
        """Offline training → HBase publication → Model Server → Alipay replay."""
        dataset = experiment_runner.datasets()[0]
        configuration = Table1Configuration(9, DetectorName.GBDT, FeatureSetName.BASIC_DW)
        bundle = experiment_runner.pipeline.train(preparation, configuration)

        hbase = HBaseClient()
        server = ModelServer(hbase, ModelServerConfig())
        experiment_runner.pipeline.deploy_fleet(bundle, preparation, hbase, [server])
        assert server.active_model is not None

        # Online scoring equals offline scoring on the same transaction.
        txn = dataset.test_transactions[0]
        offline_matrix = experiment_runner.pipeline.evaluate(preparation, bundle)
        offline_score = bundle.detector.predict_proba(offline_matrix.values[:1])[0]
        online = server.predict_batch([TransactionRequest.from_transaction(txn)])[0]
        assert online.fraud_probability == pytest.approx(offline_score, abs=1e-9)

        alipay = AlipayServer(server)
        report = alipay.replay_transactions(dataset.test_transactions[:50])
        assert report.total == 50

    def test_deploy_fleet_registry_supersedes_retrained_bundle(
        self, experiment_runner, preparation
    ):
        """Regression: redeploying a retrained bundle whose version string
        already exists in the registry must serve the *new* detector, not the
        stale registration."""
        configuration = Table1Configuration(5, DetectorName.GBDT, FeatureSetName.BASIC)
        pipeline = experiment_runner.pipeline

        registry = ModelRegistry()
        hbase = HBaseClient()
        server = ModelServer(hbase, ModelServerConfig())
        first = pipeline.train(preparation, configuration)
        pipeline.deploy_fleet(first, preparation, hbase, [server], registry=registry)
        assert server.active_model.model is first.detector

        retrained = pipeline.train(preparation, configuration)
        assert retrained.version == first.version
        assert retrained.detector is not first.detector
        pipeline.deploy_fleet(retrained, preparation, hbase, [server], registry=registry)
        assert registry.get(retrained.version).model is retrained.detector
        assert server.active_model.model is retrained.detector

    def test_deploy_fleet_without_a_registry_still_deploys_through_one(
        self, experiment_runner, preparation
    ):
        """``deploy_fleet`` has one install path: with no caller registry the
        bundle is registered in a private one, so an unfitted detector is
        turned away by ``ModelRegistry.register`` (``ModelError``), not by the
        first server's ``load_model`` (``ServingError``)."""
        configuration = Table1Configuration(5, DetectorName.GBDT, FeatureSetName.BASIC)
        bundle = experiment_runner.pipeline.train(preparation, configuration)
        hbase = HBaseClient()
        server = ModelServer(hbase, ModelServerConfig())
        unfitted = dataclasses.replace(bundle, detector=GradientBoostingClassifier())
        with pytest.raises(ModelError):
            experiment_runner.pipeline.deploy_fleet(unfitted, preparation, hbase, [server])
        assert server.active_model is None
        experiment_runner.pipeline.deploy_fleet(bundle, preparation, hbase, [server])
        assert server.active_model.model is bundle.detector
        assert server.model_version == bundle.version


@settings(max_examples=25, deadline=None)
@given(
    scores=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=5, max_size=60),
    data=st.data(),
)
def test_f1_threshold_monotone_count_property(scores, data):
    """Raising the threshold never increases the number of positive predictions."""
    scores_array = np.array(scores)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))), dtype=float)
    low, high = 0.2, 0.8
    low_positives = (scores_array >= low).sum()
    high_positives = (scores_array >= high).sum()
    assert high_positives <= low_positives
    # F1 stays within [0, 1] for any threshold.
    for threshold in (low, high):
        assert 0.0 <= f1_score(labels, scores_array, threshold=threshold) <= 1.0
