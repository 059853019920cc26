"""Parameter-server training drivers for the classification models.

The paper reimplements the classification detectors (LR, GBDT) on KunPeng for
better performance — rule-based and anomaly-detection methods stay
single-machine (footnote 7).  This module mirrors that split:

* :class:`DistributedLogisticRegression` keeps the weight vector on the
  parameter servers; workers compute mini-batch gradients on their data
  partitions and push them back (classic PS data parallelism),
* :class:`DistributedGBDT` with ``tree_method="hist"`` (default) is a
  KunPeng-style histogram GBDT: every worker bins its partition once, builds
  local per-node (gradient, hessian, count) histograms each tree level and
  pushes them to the parameter servers, which sum them; the driver pulls one
  merged fixed-size histogram block and finds the splits.  Per-round
  communication therefore scales with ``bins x features``, not with the row
  count.  ``tree_method="exact"`` keeps the legacy driver-side sorted split
  search (per-row gradient gathering) for A/B comparison.

Both record their cluster workload per round so the Figure 10 benchmark and
the cost model can report how training time scales with the number of
machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.kunpeng.cluster import ClusterConfig, KunPengCluster
from repro.kunpeng.cost_model import ClusterCostModel, TrainingTimeEstimate
from repro.kunpeng.failover import FailureInjector
from repro.models.base import BaseDetector, validate_training_inputs
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.tree.histogram import HistogramTree, build_histograms, realize_split
from repro.models.tree.node import TreeNode
from repro.models.tree.splitter import best_histogram_split
from repro.rng import SeedLike, derive_seed, ensure_rng, spawn_child


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass
class DistributedTrainingStats:
    """Bookkeeping common to both distributed drivers."""

    rounds: int = 0
    worker_failures: int = 0
    #: Rounds in which at least one worker was down and the driver recomputed
    #: the dead partitions' statistics instead of training on stale zeros.
    dead_partition_recoveries: int = 0
    #: Total rows whose gradient/histogram contribution was recomputed by the
    #: driver because their owning worker was down.
    driver_recovered_rows: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "rounds": float(self.rounds),
            "worker_failures": float(self.worker_failures),
            "dead_partition_recoveries": float(self.dead_partition_recoveries),
            "driver_recovered_rows": float(self.driver_recovered_rows),
        }


class DistributedLogisticRegression(BaseDetector):
    """L2-regularised logistic regression trained with PS data parallelism."""

    name = "logistic_regression_distributed"

    def __init__(
        self,
        *,
        cluster: Optional[ClusterConfig] = None,
        iterations: int = 100,
        learning_rate: float = 0.5,
        l2: float = 1e-4,
        failure_probability: float = 0.0,
        backend: str = "inline",
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if iterations < 1:
            raise ModelError("iterations must be at least 1")
        if learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        self.cluster_config = cluster or ClusterConfig(num_machines=4)
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.l2 = l2
        self.failure_probability = failure_probability
        self.seed = seed
        self._rng = ensure_rng(seed)
        self.cluster = KunPengCluster(self.cluster_config, backend=backend)
        self.failure_injector = FailureInjector(
            self.cluster,
            failure_probability=failure_probability,
            rng=spawn_child(self._rng, salt=7),
        )
        self.stats = DistributedTrainingStats()
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: Optional[np.ndarray] = None) -> "DistributedLogisticRegression":
        features, labels = validate_training_inputs(features, labels)
        if labels is None:
            raise ModelError("DistributedLogisticRegression requires labels")
        self._mean = features.mean(axis=0)
        std = features.std(axis=0)
        self._std = np.where(std == 0.0, 1.0, std)
        design = (features - self._mean) / self._std
        num_features = design.shape[1]

        # Weight vector (plus intercept) lives on the servers as a 1-row matrix.
        self.cluster.replace_parameter("weights", np.zeros((1, num_features + 1)))

        # Scatter row indices across workers.
        indices = np.arange(design.shape[0])
        self.cluster.scatter_data(indices.tolist())

        positives = labels.sum()
        negatives = labels.shape[0] - positives
        positive_weight = (negatives / positives) if positives and negatives else 1.0
        sample_weights = np.where(labels > 0.5, positive_weight, 1.0)

        for iteration in range(self.iterations):
            self.failure_injector.maybe_fail(iteration)
            self.failure_injector.heal()
            self.cluster.begin_round()
            step = self.learning_rate / (1.0 + 0.01 * iteration)
            current = self.cluster.pull_matrix("weights")[0]
            weights, intercept = current[:-1], current[-1]
            gradient_sum = np.zeros(num_features + 1)
            total_rows = 0
            for worker in self.cluster.alive_workers():
                rows = np.array(worker.partition, dtype=np.int64)
                if rows.size == 0:
                    continue

                def _step(_worker, rows=rows, weights=weights, intercept=intercept):
                    local = design[rows]
                    local_labels = labels[rows]
                    local_sample_weights = sample_weights[rows]
                    scores = local @ weights + intercept
                    residual = local_sample_weights * (_sigmoid(scores) - local_labels)
                    gradient = np.concatenate(
                        [local.T @ residual, np.array([residual.sum()])]
                    )
                    return gradient, rows.size

                gradient, count = worker.run(_step, compute_units=float(rows.size))
                gradient_sum += gradient
                total_rows += count
            if total_rows == 0:
                self.cluster.end_round()
                continue
            gradient_mean = gradient_sum / total_rows
            gradient_mean[:-1] += self.l2 * weights
            self.cluster.push_row_block(
                "weights", np.zeros(1, dtype=np.int64), step * gradient_mean[np.newaxis]
            )
            self.stats.rounds += 1
            self.cluster.end_round()

        final = self.cluster.pull_matrix("weights")[0]
        self.coef_, self.intercept_ = final[:-1], float(final[-1])
        self.stats.worker_failures = self.failure_injector.total_failures
        self._fitted = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = self._check_predict_inputs(features)
        assert self.coef_ is not None and self._mean is not None and self._std is not None
        design = (features - self._mean) / self._std
        return _sigmoid(design @ self.coef_ + self.intercept_)

    def estimate_time(self, cost_model: ClusterCostModel | None = None) -> TrainingTimeEstimate:
        return _estimate_from_rounds(self.cluster, self.stats, self.cluster_config, cost_model)

    def close(self) -> None:
        """Release the cluster backend (shard processes, shared memory)."""
        self.cluster.close()


def _estimate_from_rounds(
    cluster: KunPengCluster,
    stats: DistributedTrainingStats,
    config: ClusterConfig,
    cost_model: ClusterCostModel | None,
) -> TrainingTimeEstimate:
    """Cost-model estimate fed with *measured* per-round communication.

    Rounds are recorded through ``CommunicationLog.begin_round``/``end_round``
    windows, so checkpoint downloads and other out-of-round transfers do not
    inflate the per-round volume (the old lifetime-total / round-count
    quotient did).
    """
    summary = cluster.workload_summary()
    model = cost_model or ClusterCostModel()
    num_rounds = max(stats.rounds, 1)
    if summary["rounds_recorded"] > 0:
        comm_values_per_round = summary["values_per_round"]
    else:  # no windows recorded (e.g. model never fitted) — fall back
        comm_values_per_round = summary["values_transferred"] / num_rounds
    return model.estimate(
        total_compute_units=summary["worker_compute_units"],
        comm_values_per_round=comm_values_per_round,
        num_rounds=num_rounds,
        cluster=config,
    )


class DistributedGBDT(GradientBoostingClassifier):
    """GBDT trained on the PS cluster, histogram-aggregated by default.

    ``tree_method="hist"``: each worker keeps its binned partition, builds
    per-node (gradient, hessian, count) histograms every tree level and
    accumulates them into a fixed-size parameter block on the servers; the
    driver pulls the merged block, finds the splits and broadcasts them.
    Per-round traffic is bounded by ``levels x nodes x features x bins`` —
    independent of the row count.

    ``tree_method="exact"``: the legacy driver — workers push per-row
    gradient/hessian pairs (2 values per row per round) and the driver fits a
    :class:`~repro.models.tree.cart.RegressionTree` on the gathered statistics.

    Only those training steps are distributed: the hyperparameters (every
    keyword of :class:`~repro.models.gbdt.GradientBoostingClassifier` is
    accepted), the boosting loop, the objective maths and the compiled-forest
    scoring are inherited, so a same-seed single-machine and distributed run
    grow identical trees and score them through the same code.
    """

    name = "gbdt_distributed"

    def __init__(
        self,
        *,
        cluster: Optional[ClusterConfig] = None,
        num_trees: int = 100,
        failure_probability: float = 0.0,
        backend: str = "inline",
        seed: Optional[int] = None,
        **hyperparameters: Any,
    ) -> None:
        # Subsampling consumes the inherited ``_rng`` stream in exactly the
        # same order as the single-machine fit; the failure injector gets an
        # independently derived stream so injecting failures never shifts the
        # subsamples.
        super().__init__(num_trees=num_trees, seed=seed, **hyperparameters)
        self.cluster_config = cluster or ClusterConfig(num_machines=4)
        self.failure_probability = failure_probability
        self.cluster = KunPengCluster(self.cluster_config, backend=backend)
        self.failure_injector = FailureInjector(
            self.cluster,
            failure_probability=failure_probability,
            rng=derive_seed(seed, "distributed-gbdt-failover"),
        )
        self.stats = DistributedTrainingStats()

    # ------------------------------------------------------------------
    def _begin_fit(self, num_rows: int, features_per_tree: int) -> None:
        """Partition the rows over the workers; host the histogram block."""
        self.cluster.scatter_data(np.arange(num_rows).tolist())
        if self.tree_method == "hist":
            # Workers keep only the integer bins (in production the binning
            # pass is a MaxCompute pre-pass).
            node_slots = 2 ** max(0, self.max_depth - 1)
            block_rows = node_slots * features_per_tree * self.num_bins
            self.cluster.replace_parameter("gbdt_histograms", np.zeros((block_rows, 3)))

    def _round_gradients(
        self, round_index: int, labels: np.ndarray, scores: np.ndarray, weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Worker-parallel gradient/hessian computation with failure recovery.

        Rows owned by a dead worker are recomputed by the driver instead of
        silently keeping the round-initialisation values (gradient 0, hessian
        1) that would fit trees against fabricated statistics; each such
        round is counted in :class:`DistributedTrainingStats`.
        """
        self.cluster.begin_round()
        self.failure_injector.maybe_fail(round_index)
        num_rows = scores.shape[0]
        gradients = np.zeros(num_rows)
        hessians = np.ones(num_rows)
        covered = np.zeros(num_rows, dtype=bool)
        for worker in self.cluster.alive_workers():
            rows = np.array(worker.partition, dtype=np.int64)
            if rows.size == 0:
                continue

            def _step(_worker, rows=rows):
                return self._gradients(labels[rows], scores[rows], weights[rows])

            grad, hess = worker.run(_step, compute_units=float(rows.size))
            gradients[rows] = grad
            hessians[rows] = hess
            covered[rows] = True
            if self.tree_method == "exact":
                # Exact mode gathers per-row statistics at the driver: 2
                # values (gradient, hessian) per row per round.  Histogram
                # mode keeps them worker-local and ships histograms instead.
                self.cluster.communication.record_push(int(rows.size) * 2)

        missing = np.nonzero(~covered)[0]
        if missing.size:
            gradients[missing], hessians[missing] = self._gradients(
                labels[missing], scores[missing], weights[missing]
            )
            self.stats.dead_partition_recoveries += 1
            self.stats.driver_recovered_rows += int(missing.size)
        return gradients, hessians

    def _end_round(self) -> None:
        self.stats.rounds += 1
        self.stats.worker_failures = self.failure_injector.total_failures
        # Automatic recovery: dead workers restart (with their partition
        # re-read) before the next round, per the PS failover story.
        self.failure_injector.heal()
        self.cluster.end_round()

    # ------------------------------------------------------------------
    def _grow_histogram_tree(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        row_sample: np.ndarray,
        feature_sample: np.ndarray,
    ) -> HistogramTree:
        """Grow one tree with PS-side histogram aggregation.

        Per level: every alive worker builds local per-node histograms over
        its slice of the row subsample and accumulates only the non-empty
        (node, feature, bin) rows into the servers' histogram block; the
        driver pulls the merged block once, chooses the splits and tells the
        workers how to reroute their rows.  Rows of dead workers are
        histogrammed by the driver (counted as a recovery).
        """
        assert self._binner is not None
        num_bins = self.num_bins
        num_features = feature_sample.shape[0]
        sub = np.ascontiguousarray(binned[:, feature_sample])

        sampled = np.zeros(binned.shape[0], dtype=bool)
        sampled[row_sample] = True
        # Worker-local views of the subsample: (worker, rows, node assignment).
        shards: List[Tuple[object, np.ndarray, np.ndarray]] = []
        covered = np.zeros(binned.shape[0], dtype=bool)
        for worker in self.cluster.alive_workers():
            rows = np.array(worker.partition, dtype=np.int64)
            rows = rows[sampled[rows]] if rows.size else rows
            covered[rows] = True
            shards.append((worker, rows, np.zeros(rows.shape[0], dtype=np.int64)))
        # Rows of dead workers (already counted as a recovery by the gradient
        # phase this round) are histogrammed by the driver below.
        driver_rows = np.nonzero(sampled & ~covered)[0]
        driver_assign = np.zeros(driver_rows.shape[0], dtype=np.int64)

        total_gradient = float(gradients[row_sample].sum())
        total_hessian = float(hessians[row_sample].sum())
        root_value = total_gradient / (total_hessian + self.reg_lambda)
        root = TreeNode(
            is_leaf=True,
            value=root_value,
            num_samples=int(row_sample.shape[0]),
            fallback_value=root_value,
        )
        active = [(root, total_gradient, total_hessian, int(row_sample.shape[0]))]

        for _depth in range(self.max_depth):
            if not active:
                break
            num_active = len(active)
            block_rows = num_active * num_features * num_bins
            self.cluster.reset_parameter("gbdt_histograms")
            for worker, rows, assign in shards:
                if rows.size == 0:
                    continue

                def _local_histograms(_worker, rows=rows, assign=assign):
                    grad_hist, hess_hist, count_hist = build_histograms(
                        sub[rows],
                        gradients[rows],
                        hessians[rows],
                        num_bins=num_bins,
                        node_ids=assign,
                        num_nodes=num_active,
                    )
                    stacked = np.stack(
                        [grad_hist.ravel(), hess_hist.ravel(), count_hist.ravel()],
                        axis=1,
                    )
                    nonzero = np.nonzero(count_hist.ravel() > 0)[0]
                    return nonzero, stacked[nonzero]

                nonzero, values = worker.run(
                    _local_histograms, compute_units=float(rows.size)
                )
                if nonzero.size:
                    self.cluster.accumulate_row_block("gbdt_histograms", nonzero, values)

            merged = self.cluster.pull_row_block(
                "gbdt_histograms", np.arange(block_rows, dtype=np.int64)
            ).reshape(num_active, num_features, num_bins, 3)
            if driver_rows.size:
                grad_hist, hess_hist, count_hist = build_histograms(
                    sub[driver_rows],
                    gradients[driver_rows],
                    hessians[driver_rows],
                    num_bins=num_bins,
                    node_ids=driver_assign,
                    num_nodes=num_active,
                )
                merged = merged + np.stack([grad_hist, hess_hist, count_hist], axis=-1)

            decisions: List[Optional[Tuple[int, int, int]]] = []
            next_active: List[Tuple[TreeNode, float, float, int]] = []
            for slot, (node, _grad, _hess, count) in enumerate(active):
                split = None
                if count >= 2 * self.min_samples_leaf:
                    split = best_histogram_split(
                        merged[slot, :, :, 0],
                        merged[slot, :, :, 1],
                        merged[slot, :, :, 2],
                        min_leaf=self.min_samples_leaf,
                        reg_lambda=self.reg_lambda,
                    )
                if split is None:
                    decisions.append(None)
                    continue
                left, right = realize_split(
                    node,
                    split,
                    int(feature_sample[split.feature_slot]),
                    self._binner,
                    reg_lambda=self.reg_lambda,
                )
                left_slot = len(next_active)
                decisions.append((split.feature_slot, split.bin_index, left_slot))
                next_active.append(
                    (left, split.left_gradient, split.left_hessian, split.left_count)
                )
                next_active.append(
                    (right, split.right_gradient, split.right_hessian, split.right_count)
                )

            # Broadcast the split decisions; each worker reroutes its own rows.
            new_shards = []
            for worker, rows, assign in shards:
                if rows.size == 0:
                    new_shards.append((worker, rows, assign))
                    continue

                def _reroute(_worker, rows=rows, assign=assign):
                    return _apply_decisions(sub, rows, assign, decisions)

                rows, assign = worker.run(_reroute, compute_units=float(rows.size))
                new_shards.append((worker, rows, assign))
            shards = new_shards
            driver_rows, driver_assign = _apply_decisions(
                sub, driver_rows, driver_assign, decisions
            )
            active = next_active

        return HistogramTree(root, feature_indices=feature_sample)

    # ------------------------------------------------------------------
    def estimate_time(self, cost_model: ClusterCostModel | None = None) -> TrainingTimeEstimate:
        """Analytic wall-clock estimate fed by the measured per-round volumes."""
        return _estimate_from_rounds(self.cluster, self.stats, self.cluster_config, cost_model)

    def close(self) -> None:
        """Release the cluster backend (shard processes, shared memory)."""
        self.cluster.close()


def _apply_decisions(
    sub: np.ndarray,
    rows: np.ndarray,
    assign: np.ndarray,
    decisions: List[Optional[Tuple[int, int, int]]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Reroute ``rows`` to next-level node slots given the split decisions.

    ``decisions[slot]`` is ``None`` when the node became a leaf (its rows
    retire) or ``(feature_slot, bin_index, left_slot)`` with the right child
    at ``left_slot + 1``.
    """
    if rows.size == 0:
        return rows, assign
    new_assign = np.full(rows.shape[0], -1, dtype=np.int64)
    for slot, decision in enumerate(decisions):
        if decision is None:
            continue
        feature_slot, bin_index, left_slot = decision
        members = assign == slot
        goes_left = sub[rows[members], feature_slot] <= bin_index
        slot_ids = np.where(goes_left, left_slot, left_slot + 1)
        new_assign[members] = slot_ids
    keep = new_assign >= 0
    return rows[keep], new_assign[keep]
