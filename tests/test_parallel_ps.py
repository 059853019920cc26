"""Tests of the process-backed parameter server (PR 6 tentpole).

Covers the shared-memory block lifecycle (including leak safety when a shard
process is killed mid-round), bit-exact equivalence between the inline and
process backends for the cluster primitives and both training drivers, and
the cost-model calibration path the wall-clock bench asserts against.

Equivalence expectation, documented per the issue: the process backend
applies every mutation through one FIFO pipe per shard with the *same* numpy
expressions as the inline :class:`~repro.kunpeng.server.ParameterServerNode`,
and all reads are driver-side after a fence — so per-shard operation order is
identical, shards own disjoint row ranges, and results are **bit-exact**
(``np.array_equal``), not merely close.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ModelError, ParameterServerError
from repro.kunpeng import (
    ClusterConfig,
    ClusterCostModel,
    KunPengCluster,
    MeasuredRound,
    ProcessShardRuntime,
    SharedBlockManager,
)
from repro.models.distributed import DistributedGBDT, DistributedLogisticRegression
from repro.models.tree.histogram import HistogramBinner, HistogramTreeBuilder
from repro.nrl.distributed import DistributedDeepWalk, DistributedDeepWalkConfig
from repro.graph.random_walk import RandomWalkConfig
from repro.nrl.word2vec import SkipGramConfig


def _shm_segments(prefix: str):
    return glob.glob(f"/dev/shm/{prefix}*")


class TestSharedBlockManager:
    def test_allocate_view_roundtrip_and_unlink(self):
        manager = SharedBlockManager()
        block = manager.allocate("w", (4, 3))
        block[:] = np.arange(12, dtype=np.float64).reshape(4, 3)
        assert np.array_equal(manager.view("w"), block)
        assert _shm_segments(manager.prefix)
        manager.close()
        assert manager.closed
        assert not _shm_segments(manager.prefix)

    def test_attacher_sees_owner_writes(self):
        with SharedBlockManager() as manager:
            block = manager.allocate("w", (2, 2))
            block[:] = 7.0
            segment, view = SharedBlockManager.attach(
                manager.segment_name("w"), (2, 2), np.float64
            )
            try:
                assert np.array_equal(view, block)
                block[0, 0] = -1.0
                assert view[0, 0] == -1.0
            finally:
                del view
                segment.close()

    def test_duplicate_and_unknown_keys_rejected(self):
        with SharedBlockManager() as manager:
            manager.allocate("w", (1, 1))
            with pytest.raises(ParameterServerError):
                manager.allocate("w", (1, 1))
            with pytest.raises(ParameterServerError):
                manager.view("nope")

    def test_closed_manager_rejects_allocation(self):
        manager = SharedBlockManager()
        manager.close()
        with pytest.raises(ParameterServerError):
            manager.allocate("w", (1, 1))
        manager.close()  # idempotent

    def test_context_manager_unlinks_on_exception(self):
        prefix = None
        with pytest.raises(RuntimeError):
            with SharedBlockManager() as manager:
                manager.allocate("w", (8, 8))
                prefix = manager.prefix
                raise RuntimeError("boom")
        assert prefix is not None and not _shm_segments(prefix)


class TestProcessShardRuntime:
    def test_push_then_fenced_read_matches_inline_math(self):
        with ProcessShardRuntime(2) as runtime:
            values = np.ones((10, 4))
            runtime.host(0, "p", 0, values[:5])
            runtime.host(1, "p", 5, values[5:])
            rows = np.array([1, 3, 1], dtype=np.int64)
            grads = np.full((3, 4), 2.0)
            runtime.push(0, "p", rows, grads, learning_rate=0.5)
            expected = np.ones((5, 4))
            np.subtract.at(expected, rows, 0.5 * grads)
            assert np.array_equal(runtime.read(0, "p"), expected)
            # the other shard was never touched
            assert np.array_equal(runtime.read(1, "p", np.array([7])), [[1.0] * 4])

    def test_worker_error_is_latched_and_surfaced_on_fence(self):
        with ProcessShardRuntime(1) as runtime:
            runtime.host(0, "p", 0, np.zeros((4, 2)))
            # out-of-range rows make the shard's fancy index raise
            runtime.push(0, "p", np.array([99]), np.ones((1, 2)))
            with pytest.raises(ParameterServerError, match="failed"):
                runtime.read(0, "p")

    def test_killed_worker_raises_and_leaves_no_shm_orphans(self):
        runtime = ProcessShardRuntime(2)
        runtime.host(0, "p", 0, np.zeros((6, 2)))
        runtime.host(1, "p", 6, np.zeros((6, 2)))
        prefix = runtime.blocks.prefix
        assert len(_shm_segments(prefix)) == 2
        runtime.kill_shard(0)
        assert runtime.alive_shards() == [1]
        # the dead shard surfaces as a ParameterServerError — on the enqueue
        # (broken pipe) or at the latest on the next fenced read
        with pytest.raises(ParameterServerError):
            runtime.push(0, "p", np.array([0]), np.ones((1, 2)))
            runtime.read(0, "p")
        # the surviving shard still works...
        runtime.push(1, "p", np.array([6]), np.ones((1, 2)))
        assert runtime.read(1, "p")[0, 0] == -1.0
        # ...and stop() reclaims every segment despite the dead worker
        runtime.stop()
        assert not _shm_segments(prefix)

    def test_atexit_cleans_up_an_unclosed_runtime(self, tmp_path):
        """A driver that exits without stop() must not leak /dev/shm segments."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.kunpeng import ProcessShardRuntime

            runtime = ProcessShardRuntime(2)
            runtime.host(0, "p", 0, np.zeros((64, 8)))
            runtime.host(1, "p", 64, np.zeros((64, 8)))
            runtime.push(0, "p", np.arange(4), np.ones((4, 8)))
            print(runtime.blocks.prefix)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        prefix = result.stdout.strip().splitlines()[-1]
        assert prefix and not _shm_segments(prefix)


def _cluster_exercise(backend: str):
    rng = np.random.default_rng(42)
    matrix = rng.random((60, 6))
    with KunPengCluster(ClusterConfig(num_machines=6), backend=backend) as cluster:
        cluster.create_parameter("p", matrix)
        rows = rng.integers(0, 60, size=40)
        grads = rng.random((40, 6))
        cluster.push_row_block("p", rows, grads, learning_rate=0.2)
        pulled = cluster.pull_row_block("p", rows)
        cluster.accumulate_row_block("p", rows, grads)
        cluster.push_row_block(
            "p", np.array([5, 31]), np.stack([np.ones(6), -np.ones(6)]), learning_rate=0.3
        )
        cluster.push_model_average("p", [matrix, matrix + 0.5])
        cluster.reset_parameter("p")
        cluster.push_row_block("p", rows, -grads)
        full = cluster.pull_matrix("p")
        singles = cluster.pull_row_block("p", np.array([0, 29, 59]))
        summary = cluster.workload_summary()
    return pulled, full, singles, summary


def _deepwalk_config(backend: str) -> DistributedDeepWalkConfig:
    return DistributedDeepWalkConfig(
        cluster=ClusterConfig(num_machines=4),
        walk=RandomWalkConfig(walk_length=8, num_walks_per_node=2),
        skipgram=SkipGramConfig(dimension=8, window=3, epochs=1, batch_size=128),
        rounds_per_epoch=2,
        backend=backend,
        seed=11,
    )


def _embedding_matrix(model: DistributedDeepWalk) -> np.ndarray:
    embeddings = model.embeddings()
    return embeddings.lookup(embeddings.node_ids())


class TestBackendEquivalence:
    def test_cluster_primitives_bit_exact_across_backends(self):
        inline = _cluster_exercise("inline")
        process = _cluster_exercise("process")
        assert np.array_equal(inline[0], process[0])
        assert np.array_equal(inline[1], process[1])
        assert np.array_equal(inline[2], process[2])
        # routing/accounting is backend-independent, so traffic matches too
        assert inline[3] == process[3]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterServerError):
            KunPengCluster(ClusterConfig(num_machines=4), backend="threads")

    def test_deepwalk_sparse_bit_exact_across_backends(self, network):
        def _train(backend):
            model = DistributedDeepWalk(_deepwalk_config(backend)).fit(network)
            matrix = _embedding_matrix(model)
            model.close()
            return matrix, model.loss_history

        inline_matrix, inline_losses = _train("inline")
        process_matrix, process_losses = _train("process")
        assert np.array_equal(inline_matrix, process_matrix)
        assert inline_losses == process_losses

    def test_gbdt_hist_bit_exact_across_backends(self, small_classification_data):
        features, labels = small_classification_data

        def _train(backend):
            model = DistributedGBDT(
                cluster=ClusterConfig(num_machines=4),
                num_trees=10,
                backend=backend,
                seed=0,
            ).fit(features, labels)
            probabilities = model.predict_proba(features)
            model.close()
            return probabilities

        assert np.array_equal(_train("inline"), _train("process"))

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_one_worker_hist_tree_is_the_local_builders_bit_for_bit(
        self, small_classification_data, backend
    ):
        """``grow_level_wise`` has two callers.  With one server and one
        worker nothing is re-associated, so over the same rows in the same
        order the distributed callbacks grow the local builder's tree to the
        last bit.  (A whole same-seed fit is only ``allclose``: the local fit
        histograms its subsample in draw order, a worker in partition order.)"""
        features, _ = small_classification_data
        num_rows = features.shape[0]
        rng = np.random.default_rng(3)
        gradients = rng.normal(size=num_rows)
        hessians = rng.uniform(0.1, 1.0, size=num_rows)
        rows = np.sort(rng.choice(num_rows, size=240, replace=False))
        columns = rng.choice(features.shape[1], size=3, replace=False)

        model = DistributedGBDT(
            cluster=ClusterConfig(num_machines=2), backend=backend, min_samples_leaf=7, seed=0
        )
        try:
            assert (model.cluster_config.num_servers, model.cluster_config.num_workers) == (1, 1)
            model._binner = HistogramBinner(num_bins=model.num_bins).fit(features)
            binned = model._binner.transform(features)
            model._begin_fit(num_rows, columns.shape[0])
            distributed = model._grow_histogram_tree(binned, gradients, hessians, rows, columns)
        finally:
            model.close()
        local = HistogramTreeBuilder(
            model._binner,
            max_depth=model.max_depth,
            min_samples_leaf=model.min_samples_leaf,
            reg_lambda=model.reg_lambda,
            feature_indices=columns,
        ).build(binned[rows], gradients[rows], hessians[rows])
        assert not local.tree_.is_leaf
        assert distributed.tree_ == local.tree_  # dataclass equality: exact floats, recursively

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_replace_parameter_rehosts_and_frees_the_old_blocks(self, backend):
        with KunPengCluster(ClusterConfig(num_machines=6), backend=backend) as cluster:
            cluster.create_parameter("p", np.ones((9, 4)))
            cluster.push_row_block("p", np.arange(9), np.ones((9, 4)))
            # One row on three servers: two of the old shards have no successor.
            for matrix in (np.full((1, 2), 7.0), np.arange(24.0).reshape(12, 2)):
                cluster.replace_parameter("p", matrix)
                assert np.array_equal(cluster.pull_matrix("p"), matrix)
                if backend == "process":
                    blocks = cluster.runtime.blocks
                    assert len(_shm_segments(blocks.prefix)) == len(blocks.keys())
                    assert len(blocks.keys()) == min(3, matrix.shape[0])
            with pytest.raises(ParameterServerError, match="already exists"):
                cluster.create_parameter("p", np.zeros((2, 2)))

    def test_replace_parameter_waits_for_a_lagging_shard(self):
        """A shard stopped before it reaches its first ``_HOST`` must never
        attach, by the reused segment name, to a later generation's block
        (wrong size → ``buffer is too small``; a larger one → a stale push
        lands in the new parameter).  Deterministic: the shard is SIGSTOPped,
        not merely slow."""
        with KunPengCluster(ClusterConfig(num_machines=6), backend="process") as cluster:
            runtime = cluster.runtime
            lagging = runtime._handle(2).process
            os.kill(lagging.pid, signal.SIGSTOP)
            resume = threading.Timer(0.3, os.kill, (lagging.pid, signal.SIGCONT))
            resume.start()
            try:
                cluster.create_parameter("p", np.ones((9, 4)))
                cluster.push_row_block("p", np.arange(9), np.ones((9, 4)))
                last = np.arange(24.0).reshape(12, 2)
                for matrix in (np.full((6, 2), 7.0), last):
                    cluster.replace_parameter("p", matrix)
            finally:
                resume.cancel()
                os.kill(lagging.pid, signal.SIGCONT)
                resume.join(5.0)
            assert not resume.is_alive()
            assert np.array_equal(cluster.pull_matrix("p"), last)
            assert len(runtime.blocks.keys()) == 3
            assert len(_shm_segments(runtime.blocks.prefix)) == 3

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_lr_refit_equals_a_fresh_fit(self, backend, small_classification_data):
        """The second ``fit`` starts from zero weights, not from the first
        fit's, and a fit on another feature width re-shards the vector."""
        features, labels = small_classification_data

        def _model():
            return DistributedLogisticRegression(
                cluster=ClusterConfig(num_machines=6), iterations=20, backend=backend, seed=4
            )

        model, fresh = _model(), _model()
        try:
            refit = model.fit(features, labels).fit(features, labels)
            fresh.fit(features, labels)
            assert refit.coef_.tobytes() == fresh.coef_.tobytes()
            assert refit.intercept_ == fresh.intercept_
            assert model.fit(features[:, :3], labels).coef_.shape == (3,)
        finally:
            model.close()
            fresh.close()

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_deepwalk_refit_equals_a_fresh_fit(self, backend, network):
        """Nothing of the first fit stays on the servers.  A fit continues the
        model's generator (as ``DeepWalk.fit`` does), so the fresh model is
        placed where the first fit left the refitted one's."""
        config = _deepwalk_config(backend)
        model, fresh = DistributedDeepWalk(config), DistributedDeepWalk(config)
        try:
            model.fit(network)
            fresh._rng.bit_generator.state = model._rng.bit_generator.state
            refit = _embedding_matrix(model.fit(network))
            assert refit.tobytes() == _embedding_matrix(fresh.fit(network)).tobytes()
            # Another network, another vocabulary size: the matrices re-shard.
            smaller = network.subgraph(network.nodes()[: network.num_nodes // 2])
            assert _embedding_matrix(model.fit(smaller)).shape[0] < refit.shape[0]
        finally:
            model.close()
            fresh.close()

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_gbdt_refits_on_another_width(self, backend):
        """One model, fit 10-wide -> 20-wide -> 10-wide: every fit replaces the
        histogram block with one of its own shape."""
        rng = np.random.default_rng(5)
        matrices = {width: rng.normal(size=(300, width)) for width in (10, 20)}
        labels = (matrices[10][:, 0] + matrices[20][:, 1] > 0.0).astype(np.float64)
        model = DistributedGBDT(
            cluster=ClusterConfig(num_machines=4), num_trees=3, backend=backend, seed=0
        )
        try:
            for width, other in ((10, 20), (20, 10), (10, 20)):
                model.fit(matrices[width], labels)
                assert model.predict_proba(matrices[width]).shape == (300,)
                with pytest.raises(ModelError, match=f"was fitted on {width} features"):
                    model.predict_proba(matrices[other])
        finally:
            model.close()


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
