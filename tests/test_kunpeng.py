"""Tests of the KunPeng parameter-server substrate and distributed training."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ModelError,
    ParameterServerError,
    WorkerFailureError,
)
from repro.graph.random_walk import RandomWalkConfig, RandomWalker
from repro.kunpeng import (
    ClusterConfig,
    FailureInjector,
    KunPengCluster,
    ParameterServerNode,
    WorkerNode,
    estimate_deepwalk_time,
    estimate_gbdt_time,
)
from repro.kunpeng.cost_model import (
    ClusterCostModel,
    deepwalk_round_volume,
    gbdt_round_volume,
    scalability_curve,
)
from repro.models.distributed import DistributedGBDT, DistributedLogisticRegression
from repro.models.gbdt import GradientBoostingClassifier
from repro.nrl.distributed import DistributedDeepWalk, DistributedDeepWalkConfig
from repro.nrl.word2vec import SkipGramConfig, SkipGramTrainer


class TestServerNode:
    def test_pull_push_round_trip(self):
        server = ParameterServerNode(0)
        server.host_shard("w", 0, 4, np.zeros((4, 2)))
        server.push_block("w", np.array([1]), np.array([[1.0, 2.0]]), learning_rate=0.5)
        pulled = server.pull_block("w", np.array([1]))
        assert pulled[0].tolist() == [-0.5, -1.0]

    def test_out_of_range_row_rejected(self):
        server = ParameterServerNode(0)
        server.host_shard("w", 0, 4, np.zeros((4, 2)))
        with pytest.raises(ParameterServerError):
            server.pull_block("w", np.array([10]))

    def test_model_average(self):
        server = ParameterServerNode(0)
        server.host_shard("w", 0, 2, np.zeros((2, 2)))
        server.push_average("w", [np.ones((2, 2)), 3 * np.ones((2, 2))])
        assert np.allclose(server.pull_all("w"), 2.0)


class TestWorkerNode:
    def test_failure_and_restart(self):
        worker = WorkerNode(0)
        worker.assign_partition([1, 2, 3])
        worker.fail()
        with pytest.raises(WorkerFailureError):
            worker.run(lambda w: None)
        worker.restart()
        assert worker.run(lambda w: len(w.partition)) == 3
        assert worker.stats.failures == 1 and worker.stats.restarts == 1

    def test_compute_units_accumulate(self):
        worker = WorkerNode(1)
        worker.assign_partition(list(range(5)))
        worker.run(lambda w: None)
        worker.run(lambda w: None, compute_units=10.0)
        assert worker.stats.compute_units == pytest.approx(15.0)


class TestCluster:
    def test_half_servers_half_workers(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=10))
        assert len(cluster.servers) == 5
        assert len(cluster.workers) == 5

    def test_a_high_server_fraction_leaves_one_worker_and_no_extra_node(self):
        """Regression: ``(2, 0.9)`` used to give 2 servers and 1 worker, a
        three-node cluster on two machines."""
        config = ClusterConfig(num_machines=2, server_fraction=0.9)
        assert (config.num_servers, config.num_workers) == (1, 1)
        cluster = KunPengCluster(config)
        assert (len(cluster.servers), len(cluster.workers)) == (1, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        num_machines=st.integers(min_value=2, max_value=500),
        server_fraction=st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
        ),
    )
    def test_every_machine_is_one_node(self, num_machines, server_fraction):
        config = ClusterConfig(num_machines=num_machines, server_fraction=server_fraction)
        assert config.num_servers >= 1 and config.num_workers >= 1
        assert config.num_servers + config.num_workers == num_machines

    def test_parameter_partitioning_and_reassembly(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=6))
        matrix = np.arange(20.0).reshape(10, 2)
        cluster.create_parameter("emb", matrix)
        assert np.allclose(cluster.pull_matrix("emb"), matrix)

    def test_push_routes_to_owning_server(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=4))
        cluster.create_parameter("emb", np.zeros((8, 2)))
        cluster.push_row_block("emb", np.array([0, 7]), np.array([[1.0, 1.0], [2.0, 2.0]]))
        updated = cluster.pull_matrix("emb")
        assert updated[0].tolist() == [-1.0, -1.0]
        assert updated[7].tolist() == [-2.0, -2.0]

    def test_scatter_data_round_robin(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=6))
        cluster.scatter_data(list(range(10)))
        sizes = [len(w.partition) for w in cluster.workers]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_duplicate_parameter_rejected(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=4))
        cluster.create_parameter("w", np.zeros((4, 2)))
        with pytest.raises(ParameterServerError):
            cluster.create_parameter("w", np.zeros((4, 2)))

    def test_pull_row_block_routes_across_shards(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=6))  # 3 servers
        matrix = np.arange(24.0).reshape(12, 2)
        cluster.create_parameter("emb", matrix)
        rows = np.array([11, 0, 5, 0])  # out of order, duplicated, all shards
        block = cluster.pull_row_block("emb", rows)
        assert np.allclose(block, matrix[rows])

    def test_push_row_block_applies_row_sparse_update(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=6))
        cluster.create_parameter("emb", np.zeros((12, 2)))
        rows = np.array([0, 6, 11])
        grads = np.ones((3, 2))
        cluster.push_row_block("emb", rows, grads, learning_rate=0.5)
        updated = cluster.pull_matrix("emb")
        assert np.allclose(updated[rows], -0.5)
        untouched = np.setdiff1d(np.arange(12), rows)
        assert np.allclose(updated[untouched], 0.0)

    def test_unknown_rows_rejected_by_block_apis(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=4))
        cluster.create_parameter("emb", np.zeros((8, 2)))
        with pytest.raises(ParameterServerError):
            cluster.pull_row_block("emb", np.array([99]))
        with pytest.raises(ParameterServerError):
            cluster.push_row_block("emb", np.array([99]), np.ones((1, 2)))

    def test_per_round_accounting_excludes_out_of_round_traffic(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=4))
        cluster.create_parameter("emb", np.zeros((8, 2)))
        cluster.begin_round()
        cluster.pull_row_block("emb", np.array([0, 1, 2]))
        cluster.push_row_block("emb", np.array([0, 1, 2]), np.ones((3, 2)))
        cluster.end_round()
        cluster.pull_matrix("emb")  # checkpoint download, outside any round
        assert cluster.values_per_round() == [6]
        summary = cluster.workload_summary()
        assert summary["rounds_recorded"] == 1.0
        assert summary["values_per_round"] == 6.0
        assert summary["values_transferred"] == 14.0


class TestFailover:
    def test_injector_respects_probability_zero(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=6))
        injector = FailureInjector(cluster, failure_probability=0.0, rng=0)
        assert injector.maybe_fail(0) == []

    def test_heal_restarts_all_workers(self):
        cluster = KunPengCluster(ClusterConfig(num_machines=6))
        injector = FailureInjector(cluster, failure_probability=1.0, rng=0)
        crashed = injector.maybe_fail(0)
        assert crashed, "expected at least one crash at probability 1"
        assert len(cluster.alive_workers()) >= 1  # never kills the last worker
        injector.heal()
        assert len(cluster.alive_workers()) == len(cluster.workers)


class TestCostModel:
    def test_deepwalk_time_decreases_with_machines(self):
        times = [estimate_deepwalk_time(m).total_minutes for m in (4, 10, 20, 40)]
        assert times == sorted(times, reverse=True)

    def test_gbdt_time_flattens_beyond_20_machines(self):
        t4 = estimate_gbdt_time(4).total_seconds
        t20 = estimate_gbdt_time(20).total_seconds
        t40 = estimate_gbdt_time(40).total_seconds
        assert t20 < t4
        # From 20 to 40 machines the improvement (if any) is marginal.
        assert t40 > 0.8 * t20

    def test_scalability_curve_columns(self):
        rows = scalability_curve()
        assert {"num_machines", "deepwalk_minutes", "gbdt_seconds"} <= set(rows[0])
        assert [r["num_machines"] for r in rows] == [4.0, 10.0, 20.0, 40.0]

    def test_invalid_cost_model_rejected(self):
        with pytest.raises(Exception):
            ClusterCostModel(compute_seconds_per_unit=-1.0)

    def test_round_volume_dense_vs_sparse(self):
        dense = deepwalk_round_volume(10_000, 4, mode="dense")
        sparse = deepwalk_round_volume(10_000, 4, mode="sparse", batch_pairs=256, negatives=5)
        assert dense == 4.0 * 10_000 * 4
        assert sparse == 2.0 * (256 + 256 * 6) * 4
        assert sparse < dense
        with pytest.raises(Exception):
            deepwalk_round_volume(10, 2, mode="bogus")

    def test_sparse_mode_estimate_cuts_communication(self):
        dense = estimate_deepwalk_time(20)
        sparse = estimate_deepwalk_time(20, mode="sparse")
        assert sparse.communication_seconds < dense.communication_seconds
        assert sparse.compute_seconds == pytest.approx(dense.compute_seconds)
        assert sparse.total_seconds < dense.total_seconds


class TestDistributedTraining:
    def test_distributed_deepwalk_produces_embeddings(self, network):
        config = DistributedDeepWalkConfig(
            cluster=ClusterConfig(num_machines=4),
            walk=RandomWalkConfig(walk_length=10, num_walks_per_node=2),
            skipgram=SkipGramConfig(dimension=8, window=3, epochs=1, batch_size=512),
            rounds_per_epoch=2,
            seed=0,
        )
        model = DistributedDeepWalk(config).fit(network)
        embeddings = model.embeddings()
        assert len(embeddings) == network.num_nodes
        summary = model.workload_summary()
        assert summary["worker_compute_units"] > 0
        assert summary["values_transferred"] > 0
        assert model.estimate_time().total_seconds > 0

    def test_distributed_deepwalk_survives_worker_failures(self, network):
        config = DistributedDeepWalkConfig(
            cluster=ClusterConfig(num_machines=6),
            walk=RandomWalkConfig(walk_length=8, num_walks_per_node=2),
            skipgram=SkipGramConfig(dimension=4, window=2, epochs=1, batch_size=256),
            rounds_per_epoch=3,
            failure_probability=0.5,
            seed=1,
        )
        model = DistributedDeepWalk(config).fit(network)
        assert model.failure_injector.total_failures > 0
        assert len(model.embeddings()) == network.num_nodes

    def test_estimate_time_reflects_recorded_round_traffic(self, network):
        config = DistributedDeepWalkConfig(
            cluster=ClusterConfig(num_machines=4),
            walk=RandomWalkConfig(walk_length=8, num_walks_per_node=2),
            skipgram=SkipGramConfig(dimension=8, window=3, epochs=1, batch_size=64),
            rounds_per_epoch=2,
            seed=3,
        )
        model = DistributedDeepWalk(config).fit(network)
        summary = model.workload_summary()
        cost_model = ClusterCostModel()
        estimate = model.estimate_time(cost_model)
        expected = cost_model.estimate(
            total_compute_units=summary["worker_compute_units"],
            comm_values_per_round=summary["values_per_round"],
            num_rounds=model.rounds_completed,
            cluster=config.cluster,
        )
        assert estimate.communication_seconds == pytest.approx(expected.communication_seconds)
        # the naive total/rounds quotient would include the checkpoint download
        naive = summary["values_transferred"] / model.rounds_completed
        assert summary["values_per_round"] < naive

    def test_distributed_vocabulary_honors_min_count(self, network):
        """Regression: the distributed path must prune exactly like the trainer."""
        skipgram = SkipGramConfig(
            dimension=8, window=3, epochs=1, batch_size=128, min_count=3
        )
        config = DistributedDeepWalkConfig(
            cluster=ClusterConfig(num_machines=4),
            walk=RandomWalkConfig(walk_length=8, num_walks_per_node=2),
            skipgram=skipgram,
            rounds_per_epoch=1,
            seed=5,
        )
        model = DistributedDeepWalk(config).fit(network)
        # replay the identical walk stream and push it through the
        # single-machine path
        walker = RandomWalker(network, config.walk, rng=np.random.default_rng(model.walk_seed))
        corpus = walker.generate()
        trainer = SkipGramTrainer(skipgram)
        trainer.fit(corpus)
        assert trainer.vocabulary is not None
        distributed_counts = dict(
            zip(model.vocabulary_.tokens(), model.vocabulary_.counts().tolist())
        )
        trainer_counts = dict(
            zip(trainer.vocabulary.tokens(), trainer.vocabulary.counts().tolist())
        )
        assert distributed_counts == trainer_counts
        # min_count must actually have pruned something for this to be a test
        assert len(model.vocabulary_) < network.num_nodes

    def test_distributed_lr_matches_single_machine_quality(self, small_classification_data):
        features, labels = small_classification_data
        model = DistributedLogisticRegression(
            cluster=ClusterConfig(num_machines=4), iterations=80, seed=0
        ).fit(features, labels)
        accuracy = (model.predict(features) == labels).mean()
        assert accuracy > 0.8
        assert model.stats.rounds == 80

    @pytest.mark.parametrize(
        "settings_",
        [
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"l2": float("nan")},
            {"l2": float("inf")},
            {"l2": -1.0},
        ],
        ids=["lr-nan", "lr-inf", "l2-nan", "l2-inf", "l2-negative"],
    )
    def test_distributed_lr_rejects_non_finite_settings(self, settings_):
        """``learning_rate <= 0`` let NaN and inf through (every probability
        came out NaN), and ``l2`` was not checked at all."""
        with pytest.raises(ModelError):
            DistributedLogisticRegression(**settings_)

    def test_distributed_gbdt_learns(self, small_classification_data):
        features, labels = small_classification_data
        model = DistributedGBDT(
            cluster=ClusterConfig(num_machines=4), num_trees=20, seed=0
        ).fit(features, labels)
        accuracy = (model.predict(features) == labels).mean()
        assert accuracy > 0.8
        assert model.estimate_time().total_seconds > 0

    def test_lr_estimate_time_uses_round_traffic(self, small_classification_data):
        features, labels = small_classification_data
        model = DistributedLogisticRegression(
            cluster=ClusterConfig(num_machines=4), iterations=25, seed=0
        ).fit(features, labels)
        summary = model.cluster.workload_summary()
        assert summary["rounds_recorded"] == model.stats.rounds
        cost_model = ClusterCostModel()
        estimate = model.estimate_time(cost_model)
        expected = cost_model.estimate(
            total_compute_units=summary["worker_compute_units"],
            comm_values_per_round=summary["values_per_round"],
            num_rounds=model.stats.rounds,
            cluster=model.cluster_config,
        )
        assert estimate.communication_seconds == pytest.approx(expected.communication_seconds)
        # The final weight download happens outside any round window, so the
        # old lifetime-total / rounds quotient overstates the per-round volume.
        naive = summary["values_transferred"] / model.stats.rounds
        assert summary["values_per_round"] < naive


class TestDistributedGBDTHistogram:
    """The PR 3 tentpole: PS-side histogram aggregation and its guarantees."""

    def test_hist_mode_matches_single_machine_quality(self, small_classification_data):
        features, labels = small_classification_data
        distributed = DistributedGBDT(
            cluster=ClusterConfig(num_machines=4), num_trees=20, seed=0
        ).fit(features, labels)
        single = GradientBoostingClassifier(num_trees=20, seed=0).fit(features, labels)
        assert np.allclose(
            distributed.predict_proba(features), single.predict_proba(features), atol=1e-8
        )

    def test_same_seed_knobs_match_single_machine(self, small_classification_data):
        """Regression for the hyperparameter-parity fix: with the same seed
        and hyperparameters, the distributed driver must grow the same trees
        as the single-machine trainer (it used to hardcode
        ``min_samples_leaf=5`` and drop ``reg_lambda``)."""
        features, labels = small_classification_data
        kwargs = dict(num_trees=12, min_samples_leaf=9, reg_lambda=2.5, seed=4)
        distributed = DistributedGBDT(
            cluster=ClusterConfig(num_machines=4), **kwargs
        ).fit(features, labels)
        single = GradientBoostingClassifier(**kwargs).fit(features, labels)
        assert np.allclose(
            distributed.predict_proba(features), single.predict_proba(features)
        )
        # and the knobs actually reach the grown trees: the defaults grow others
        defaults = DistributedGBDT(
            cluster=ClusterConfig(num_machines=4), num_trees=12, seed=4
        ).fit(features, labels)
        assert not np.allclose(
            distributed.predict_proba(features), defaults.predict_proba(features)
        )

    def test_constructor_knobs_match_single_machine(self):
        distributed = DistributedGBDT(
            num_trees=5, min_samples_leaf=7, reg_lambda=3.0, objective="squared",
            class_weight=None, num_bins=32,
        )
        single = GradientBoostingClassifier(
            num_trees=5, min_samples_leaf=7, reg_lambda=3.0, objective="squared",
            class_weight=None, num_bins=32,
        )
        shared = (
            "num_trees", "max_depth", "learning_rate", "subsample_rows",
            "subsample_features", "min_samples_leaf", "reg_lambda", "objective",
            "class_weight", "num_bins",
        )
        single_params = single.get_params()
        distributed_params = distributed.get_params()
        for key in shared:
            assert distributed_params[key] == single_params[key]

    def test_hist_round_volume_independent_of_row_count(self):
        """The tentpole claim: per-round traffic scales with bins x features,
        not with rows.  Tripling the dataset leaves the histogram volume
        (essentially) unchanged."""
        rng = np.random.default_rng(5)
        volumes = {}
        for num_rows in (1500, 4500):
            features = rng.normal(size=(num_rows, 10))
            labels = (features[:, 0] + features[:, 1] > 0).astype(float)
            model = DistributedGBDT(
                cluster=ClusterConfig(num_machines=4),
                num_trees=5,
                num_bins=16,
                seed=5,
            ).fit(features, labels)
            volumes[num_rows] = model.cluster.workload_summary()["values_per_round"]
        assert volumes[4500] < 1.3 * volumes[1500]
        # and the measured volume stays within the analytic bins x features bound
        features_per_tree = max(1, int(round(0.4 * 10)))
        bound = gbdt_round_volume(
            4500, features_per_tree, ClusterConfig(num_machines=4).num_workers,
            mode="hist", num_bins=16, max_depth=3,
        )
        assert volumes[4500] <= bound

    def test_hist_round_volume_scales_with_bins(self):
        rng = np.random.default_rng(6)
        features = rng.normal(size=(3000, 8))
        labels = (features[:, 0] > 0).astype(float)
        volumes = {}
        for num_bins in (8, 32):
            model = DistributedGBDT(
                cluster=ClusterConfig(num_machines=4),
                num_trees=4,
                num_bins=num_bins,
                seed=6,
            ).fit(features, labels)
            volumes[num_bins] = model.cluster.workload_summary()["values_per_round"]
        assert volumes[32] > 2.0 * volumes[8]

    def test_failure_recovery_is_exact(self, small_classification_data):
        """Regression for the fabricated-statistics bug: rows owned by a dead
        worker used to keep gradient 0 / hessian 1 for the round.  The driver
        now recomputes them, so a run under heavy failure injection grows the
        trees of a failure-free run: its scores differ only by the summation
        order of the merged histograms (the fabricated statistics moved them
        by 0.17)."""
        features, labels = small_classification_data
        kwargs = dict(cluster=ClusterConfig(num_machines=6), num_trees=12)
        clean = DistributedGBDT(seed=2, **kwargs).fit(features, labels)
        faulty = DistributedGBDT(seed=2, failure_probability=0.4, **kwargs).fit(
            features, labels
        )
        assert faulty.stats.worker_failures > 0
        assert faulty.stats.dead_partition_recoveries > 0
        assert faulty.stats.driver_recovered_rows > 0
        assert np.allclose(
            clean.predict_proba(features), faulty.predict_proba(features), rtol=0.0, atol=1e-12
        )

    def test_hist_mode_survives_failures(self, small_classification_data):
        features, labels = small_classification_data
        model = DistributedGBDT(
            cluster=ClusterConfig(num_machines=6),
            num_trees=15,
            failure_probability=0.3,
            seed=3,
        ).fit(features, labels)
        assert model.stats.worker_failures > 0
        assert model.stats.dead_partition_recoveries > 0
        assert (model.predict(features) == labels).mean() > 0.8
        stats = model.stats.as_dict()
        assert stats["driver_recovered_rows"] > 0

    def test_gbdt_round_volume_model(self):
        assert gbdt_round_volume(10_000, 20, 4, mode="exact") == 20_000.0
        hist_small = gbdt_round_volume(10_000, 20, 4, mode="hist", num_bins=32)
        hist_same = gbdt_round_volume(10_000_000, 20, 4, mode="hist", num_bins=32)
        assert hist_small == hist_same  # row-count independent
        assert gbdt_round_volume(1, 40, 4, mode="hist") == 2 * gbdt_round_volume(
            1, 20, 4, mode="hist"
        )
        with pytest.raises(Exception):
            gbdt_round_volume(10, 2, 2, mode="bogus")
        exact = estimate_gbdt_time(20)
        hist = estimate_gbdt_time(20, mode="hist")
        assert hist.communication_seconds < exact.communication_seconds
        assert hist.compute_seconds == pytest.approx(exact.compute_seconds)
