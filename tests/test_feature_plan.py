"""Offline/online parity via the shared FeaturePlan.

The core contract of the refactor: the offline :class:`FeatureAssembler` and
the online HBase-backed :class:`ModelServer` execute the *same* serialisable
:class:`FeaturePlan` through the same :class:`FeaturePlanExecutor`, so the
vector a transaction is scored with online is element-wise identical to the
one it would have been trained on offline.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.pipeline import OfflineTrainingPipeline, SlicePreparation
from repro.exceptions import FeatureError
from repro.features.assembler import EmbeddingSide, FeatureAssembler
from repro.features.basic import BASIC_FEATURE_NAMES, profile_cells
from repro.features.plan import (
    EmbeddingBlockSpec,
    FeaturePlan,
    FeaturePlanExecutor,
    InMemoryFeatureSource,
)
from repro.hbase.client import BASIC_FEATURES_FAMILY, HBaseClient
from repro.models.gbdt import GradientBoostingClassifier
from repro.nrl.embeddings import EmbeddingSet
from repro.serving import ModelServer, ModelServerConfig, TransactionRequest
from repro.serving.feature_source import profile_from_row, profile_row
from scalar_basic import ScalarBasicExtractor


@pytest.fixture(scope="module")
def embedding_sets(world):
    """Deterministic stand-in embeddings covering every user."""
    rng = np.random.default_rng(23)
    user_ids = sorted(world.profiles_by_id)
    dw = EmbeddingSet(user_ids, rng.normal(size=(len(user_ids), 8)), name="dw")
    s2v = EmbeddingSet(user_ids, rng.normal(size=(len(user_ids), 4)), name="s2v")
    return {"dw": dw, "s2v": s2v}


class TestFeaturePlan:
    def test_json_round_trip(self):
        plan = FeaturePlan(
            embedding_blocks=(
                EmbeddingBlockSpec("dw", 8),
                EmbeddingBlockSpec("s2v", 4),
            ),
            embedding_side="both",
        )
        restored = FeaturePlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.feature_names == plan.feature_names
        assert restored.num_features == 52 + 2 * (8 + 4)

    def test_rejects_bad_specs(self):
        with pytest.raises(FeatureError):
            FeaturePlan(embedding_side="neither")
        with pytest.raises(FeatureError):
            FeaturePlan(
                embedding_blocks=(
                    EmbeddingBlockSpec("dw", 8),
                    EmbeddingBlockSpec("dw", 4),
                )
            )
        with pytest.raises(FeatureError):
            EmbeddingBlockSpec("dw", 0)

    def test_rejects_foreign_basic_feature_names(self):
        # The basic block is always computed in BASIC_FEATURE_NAMES order; a
        # plan that names it differently used to be accepted and to label
        # canonical-order values with its own names (silent column skew).
        with pytest.raises(FeatureError):
            FeaturePlan(basic_feature_names=tuple(reversed(BASIC_FEATURE_NAMES)))
        with pytest.raises(FeatureError):
            FeaturePlan(basic_feature_names=tuple(BASIC_FEATURE_NAMES[:-1]))
        payload = json.loads(FeaturePlan().to_json())
        payload["basic_feature_names"][0], payload["basic_feature_names"][1] = (
            payload["basic_feature_names"][1],
            payload["basic_feature_names"][0],
        )
        with pytest.raises(FeatureError):
            FeaturePlan.from_json(json.dumps(payload))
        payload["basic_feature_names"] = list(BASIC_FEATURE_NAMES) + ["from_the_future"]
        with pytest.raises(FeatureError):
            FeaturePlan.from_json(json.dumps(payload))
        # The canonical list, as a list (what JSON carries), still loads.
        assert FeaturePlan(basic_feature_names=list(BASIC_FEATURE_NAMES)) == FeaturePlan()

    def test_feature_names_match_legacy_assembler_layout(self, world, embedding_sets):
        assembler = FeatureAssembler(
            world.profiles_by_id, embedding_sets, embedding_side=EmbeddingSide.BOTH
        )
        names = assembler.plan.feature_names
        assert names[:52] == BASIC_FEATURE_NAMES
        assert names[52] == "dw_payer_0"
        assert names[52 + 8] == "dw_payee_0"
        assert names[52 + 16] == "s2v_payer_0"
        assert len(names) == 52 + 2 * 12

    def test_plan_mismatch_with_sources_raises(self, world, dataset):
        plan = FeaturePlan(embedding_blocks=(EmbeddingBlockSpec("dw", 8),))
        executor = FeaturePlanExecutor(
            plan, InMemoryFeatureSource(world.profiles_by_id, {})
        )
        with pytest.raises(FeatureError):
            executor.assemble_single(dataset.test_transactions[0])


class TestVectorisedBasicExtraction:
    def test_batch_matches_scalar_reference(self, world, dataset):
        extractor = ScalarBasicExtractor(world.profiles_by_id)
        transactions = dataset.test_transactions[:250]
        batch = extractor.extract(transactions, with_labels=True)
        reference = np.vstack([extractor.extract_one(t) for t in transactions])
        np.testing.assert_array_equal(batch.values, reference)
        assert batch.values.shape == (250, 52)

    def test_unknown_users_fall_back_to_default(self, dataset):
        extractor = ScalarBasicExtractor({})
        transactions = dataset.test_transactions[:5]
        batch = extractor.extract(transactions, with_labels=False)
        reference = np.vstack([extractor.extract_one(t) for t in transactions])
        np.testing.assert_array_equal(batch.values, reference)


class TestOfflineOnlineParity:
    @pytest.fixture()
    def deployed(self, world, dataset, network, embedding_sets):
        """Offline assembler + a Model Server fed from published HBase rows."""
        pipeline = OfflineTrainingPipeline(world.profiles_by_id)
        preparation = SlicePreparation(
            dataset=dataset, network=network, embeddings=dict(embedding_sets)
        )
        hbase = HBaseClient()
        pipeline.publish_features(preparation, hbase)

        assembler = FeatureAssembler(
            world.profiles_by_id, embedding_sets, embedding_side=EmbeddingSide.BOTH
        )
        train = assembler.assemble(dataset.train_transactions[:300])
        model = GradientBoostingClassifier(num_trees=10, seed=0).fit(
            train.values, train.labels
        )
        server = ModelServer(hbase, ModelServerConfig())
        server.load_model(model, version="parity_v1", threshold=0.5, plan=assembler.plan)
        return assembler, server, model

    def test_online_vector_identical_to_offline(self, deployed, dataset):
        assembler, server, _ = deployed
        for txn in dataset.test_transactions[:25]:
            offline = assembler.assemble_single(txn)
            online = server.plan_executor.assemble_single(
                TransactionRequest.from_transaction(txn).to_transaction()
            )
            np.testing.assert_array_equal(offline, online)

    def test_online_batch_identical_to_offline_matrix(self, deployed, dataset):
        assembler, server, _ = deployed
        transactions = dataset.test_transactions[:100]
        offline = assembler.assemble(transactions, with_labels=False)
        online = server.plan_executor.assemble(transactions, with_labels=False)
        assert offline.feature_names == online.feature_names
        np.testing.assert_array_equal(offline.values, online.values)

    def test_served_probability_matches_offline_scoring(self, deployed, dataset):
        assembler, server, model = deployed
        txn = dataset.test_transactions[0]
        response = server.predict(TransactionRequest.from_transaction(txn))
        offline_probability = float(
            model.predict_proba(assembler.assemble_single(txn).reshape(1, -1))[0]
        )
        assert response.fraud_probability == pytest.approx(offline_probability)

    def test_plan_survives_registry_round_trip(self, deployed):
        assembler, _, _ = deployed
        payload = assembler.plan.to_json()
        assert FeaturePlan.from_json(payload) == assembler.plan


class _RecordingRow(dict):
    """A row that records which qualifiers its decoders ask for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestPublishedProfileRow:
    """A published profile row holds the cells its readers decode, no more."""

    def test_row_round_trips_the_published_attributes(self, world):
        for profile in world.profiles:
            row = profile_row(profile)
            restored = profile_from_row(profile.user_id, row)
            assert {name: getattr(restored, name) for name in row} == {
                name: getattr(profile, name) for name in row
            }, profile.user_id

    def test_published_keys_are_exactly_what_the_readers_decode(self, world, dataset):
        pipeline = OfflineTrainingPipeline(world.profiles_by_id)
        hbase = HBaseClient()
        pipeline.publish_features(
            SlicePreparation(dataset=dataset, network=None, embeddings={}), hbase
        )
        user_id = world.profiles[0].user_id
        stored = _RecordingRow(hbase.get("titant_features", user_id, BASIC_FEATURES_FAMILY))
        profile_cells(stored)
        profile_from_row(user_id, stored)
        assert set(stored) == stored.read
        assert dict(stored) == profile_row(world.profiles_by_id[user_id])


class TestAggregationBlockParity:
    """The aggregation block assembles identically from both feature sources."""

    @pytest.fixture()
    def deployed_with_aggregates(self, world, dataset, embedding_sets):
        from repro.features.aggregation import AggregationConfig, TransactionAggregator
        from repro.hbase.client import AGGREGATES_FAMILY

        aggregator = TransactionAggregator(AggregationConfig(window_days=14)).fit(
            dataset.train_transactions, as_of_day=dataset.spec.test_day
        )
        assembler = FeatureAssembler(
            world.profiles_by_id, embedding_sets, aggregator=aggregator
        )
        hbase = HBaseClient()
        pipeline = OfflineTrainingPipeline(world.profiles_by_id)
        preparation = SlicePreparation(
            dataset=dataset, network=None, embeddings=dict(embedding_sets)
        )
        pipeline.publish_features(preparation, hbase)
        hbase.bulk_load(
            "titant_features",
            AGGREGATES_FAMILY,
            aggregator.snapshot_rows(),
            version=dataset.spec.test_day,
        )
        train = assembler.assemble(dataset.train_transactions[:200])
        model = GradientBoostingClassifier(num_trees=5, seed=1).fit(
            train.values, train.labels
        )
        server = ModelServer(hbase, ModelServerConfig())
        server.load_model(model, version="agg_v1", threshold=0.5, plan=assembler.plan)
        return assembler, server

    def test_layout_has_aggregation_block(self, deployed_with_aggregates):
        assembler, _ = deployed_with_aggregates
        from repro.features.aggregation import AGGREGATION_FEATURE_NAMES

        names = assembler.plan.feature_names
        assert names[52:64] == AGGREGATION_FEATURE_NAMES
        assert names[64] == "dw_payer_0"
        assert assembler.plan.num_features == 52 + 12 + 2 * 12

    def test_online_matrix_identical_to_offline(self, deployed_with_aggregates, dataset):
        assembler, server = deployed_with_aggregates
        transactions = dataset.test_transactions[:60]
        offline = assembler.assemble(transactions, with_labels=False)
        online = server.plan_executor.assemble(transactions, with_labels=False)
        assert offline.feature_names == online.feature_names
        np.testing.assert_array_equal(offline.values, online.values)

    def test_missing_aggregate_rows_score_as_cold_accounts(self, world, dataset):
        from repro.features.aggregation import AggregationWindowSpec

        plan = FeaturePlan(aggregation=AggregationWindowSpec())
        executor = FeaturePlanExecutor(
            plan, InMemoryFeatureSource(world.profiles_by_id)
        )
        matrix = executor.assemble(dataset.test_transactions[:5], with_labels=False)
        block = matrix.values[:, 52:64]
        np.testing.assert_array_equal(block[:, :-1], np.zeros((5, 11)))
        np.testing.assert_array_equal(block[:, -1], np.ones(5))  # new payers
