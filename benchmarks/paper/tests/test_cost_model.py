"""Tests of Figure 10's cluster cost model (``benchmarks/paper/cost_model.py``).

The analytic round volumes and time estimates per machine count, the estimate
of a recorded training run, and the calibration ``bench_parallel_ps.py``
asserts against.  The trainers themselves are tested in ``tests/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper.cost_model import (
    ClusterCostModel,
    MeasuredRound,
    deepwalk_round_volume,
    estimate_deepwalk_time,
    estimate_gbdt_time,
    gbdt_round_volume,
)
from repro.exceptions import ConfigurationError
from repro.graph.random_walk import RandomWalkConfig
from repro.kunpeng import ClusterConfig
from repro.models.distributed import DistributedGBDT
from repro.nrl.distributed import DistributedDeepWalk, DistributedDeepWalkConfig
from repro.nrl.word2vec import SkipGramConfig


class TestCostModel:
    def test_deepwalk_time_decreases_with_machines(self):
        times = [estimate_deepwalk_time(m).total_seconds / 60.0 for m in (4, 10, 20, 40)]
        assert times == sorted(times, reverse=True)

    def test_gbdt_time_flattens_beyond_20_machines(self):
        t4 = estimate_gbdt_time(4).total_seconds
        t20 = estimate_gbdt_time(20).total_seconds
        t40 = estimate_gbdt_time(40).total_seconds
        assert t20 < t4
        # From 20 to 40 machines the improvement (if any) is marginal.
        assert t40 > 0.8 * t20

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

    def test_gbdt_hist_volume_stays_within_the_analytic_bound(self):
        """A measured histogram round moves no more than the bins x features bound."""
        features = np.random.default_rng(5).normal(size=(4500, 10))
        labels = (features[:, 0] + features[:, 1] > 0).astype(float)
        model = DistributedGBDT(
            cluster=ClusterConfig(num_machines=4), num_trees=5, num_bins=16, seed=5
        ).fit(features, labels)
        features_per_tree = max(1, int(round(0.4 * 10)))
        bound = gbdt_round_volume(
            4500, features_per_tree, ClusterConfig(num_machines=4).num_workers,
            mode="hist", num_bins=16, max_depth=3,
        )
        assert model.cluster.workload_summary()["values_per_round"] <= bound


class TestRecordedEstimate:
    def test_recorded_estimate_reflects_round_traffic(self, network):
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
        estimate = cost_model.estimate_recorded(model.cluster, model.rounds_completed)
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

    def test_a_recorded_gbdt_run_has_a_positive_estimate(self, small_classification_data):
        features, labels = small_classification_data
        model = DistributedGBDT(
            cluster=ClusterConfig(num_machines=4), num_trees=20, seed=0
        ).fit(features, labels)
        estimate = ClusterCostModel().estimate_recorded(model.cluster, model.stats.rounds)
        assert estimate.total_seconds > 0


class TestCostModelCalibration:
    def _measurements(self, model: ClusterCostModel):
        measurements = []
        for machines in (4, 8, 16):
            cluster = ClusterConfig(num_machines=machines)
            estimate = model.estimate(
                total_compute_units=9_000.0,
                comm_values_per_round=250_000.0,
                num_rounds=30,
                cluster=cluster,
            )
            measurements.append(
                MeasuredRound(
                    cluster=cluster,
                    total_compute_units=9_000.0,
                    comm_values_per_round=250_000.0,
                    num_rounds=30,
                    measured_seconds=estimate.total_seconds,
                )
            )
        return measurements

    def test_calibrate_recovers_consistent_measurements(self):
        truth = ClusterCostModel(
            compute_seconds_per_unit=2.0,
            comm_seconds_per_value=3e-6,
            sync_seconds_per_round=0.4,
            per_machine_overhead_seconds=1.5,
        )
        measurements = self._measurements(truth)
        fitted = ClusterCostModel().calibrate(measurements)
        assert max(fitted.relative_errors(measurements)) < 1e-6
        # the original model is untouched (calibrate returns a new instance)
        assert ClusterCostModel().compute_seconds_per_unit == 1.0

    def test_calibrated_constants_are_non_negative(self):
        measurements = self._measurements(ClusterCostModel())
        fitted = ClusterCostModel().calibrate(measurements)
        assert fitted.compute_seconds_per_unit >= 0.0
        assert fitted.comm_seconds_per_value >= 0.0
        assert fitted.sync_seconds_per_round >= 0.0
        assert fitted.per_machine_overhead_seconds >= 0.0

    def test_calibrate_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            ClusterCostModel().calibrate([])
        with pytest.raises(ConfigurationError):
            MeasuredRound(
                cluster=ClusterConfig(num_machines=4),
                total_compute_units=1.0,
                comm_values_per_round=1.0,
                num_rounds=1,
                measured_seconds=0.0,
            )

    def test_relative_errors_shrink_after_calibration(self):
        truth = ClusterCostModel(
            compute_seconds_per_unit=5.0,
            comm_seconds_per_value=1e-5,
            sync_seconds_per_round=2.0,
            per_machine_overhead_seconds=8.0,
        )
        measurements = self._measurements(truth)
        before = max(ClusterCostModel().relative_errors(measurements))
        after = max(ClusterCostModel().calibrate(measurements).relative_errors(measurements))
        assert after < before
