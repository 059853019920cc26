"""Parameter-server training drivers for the classification models.

The paper reimplements the classification detectors on KunPeng for better
performance — rule-based and anomaly-detection methods stay single-machine
(footnote 7).  TitAnt's best detector is the GBDT, and this module holds its
KunPeng trainer, :class:`DistributedGBDT`: a histogram GBDT in which every
worker bins its partition once, builds local per-node (gradient, hessian,
count) histograms each tree level and pushes them to the parameter servers,
which sum them; the driver pulls one merged fixed-size histogram block and
finds the splits.  Per-round communication therefore scales with
``bins x features``, not with the row count.

It records its cluster workload per round so the Figure 10 benchmark and the
cost model can report how training time scales with the number of machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.kunpeng.cluster import ClusterConfig, KunPengCluster
from repro.kunpeng.failover import FailureInjector
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.tree.histogram import (
    HistogramTree,
    SplitDecision,
    apply_decisions,
    build_histograms,
    grow_level_wise,
)
from repro.rng import derive_seed


@dataclass
class DistributedTrainingStats:
    """Bookkeeping of a distributed training run."""

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


class DistributedGBDT(GradientBoostingClassifier):
    """GBDT trained on the PS cluster with histogram aggregation.

    The single-machine grower
    (:func:`~repro.models.tree.histogram.grow_level_wise`) with its two
    callbacks moved onto the cluster.  ``level_histograms``: each worker
    builds per-node (gradient, hessian, count) histograms over its binned
    partition and accumulates them into a fixed-size parameter block on the
    servers, which the driver pulls merged.  ``reroute``: the driver's split
    decisions are broadcast and every worker moves its own rows.  Per-round
    traffic is bounded by ``levels x nodes x features x bins`` — independent
    of the row count.

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
        # Workers keep only the integer bins (in production the binning pass
        # is a MaxCompute pre-pass).
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
        """Grow one tree with PS-side histogram aggregation:
        :func:`~repro.models.tree.histogram.grow_level_wise` over the workers'
        partitions.

        ``level_histograms``: every alive worker builds local per-node
        histograms over its slice of the row subsample and accumulates only
        the non-empty (node, feature, bin) rows into the servers' histogram
        block, which sums them; the driver pulls the merged block once.
        ``reroute``: the split decisions are broadcast and each worker
        reroutes its own rows.  Rows of dead workers are one more partition,
        histogrammed and rerouted by the driver (counted as a recovery).
        """
        assert self._binner is not None
        num_bins = self.num_bins
        num_features = feature_sample.shape[0]
        sub = np.ascontiguousarray(binned[:, feature_sample])

        sampled = np.zeros(binned.shape[0], dtype=bool)
        sampled[row_sample] = True
        # The partitions of the subsample: [worker, rows, node assignment].
        shards: List[List[Any]] = []
        covered = np.zeros(binned.shape[0], dtype=bool)
        for worker in self.cluster.alive_workers():
            rows = np.array(worker.partition, dtype=np.int64)
            rows = rows[sampled[rows]] if rows.size else rows
            covered[rows] = True
            shards.append([worker, rows, np.zeros(rows.shape[0], dtype=np.int64)])
        # Rows of dead workers (already counted as a recovery by the gradient
        # phase this round) form one more partition, worked by the driver.
        driver_rows = np.nonzero(sampled & ~covered)[0]
        driver_assign = np.zeros(driver_rows.shape[0], dtype=np.int64)

        def local_histograms(rows: np.ndarray, assign: np.ndarray, num_active: int):
            return build_histograms(
                sub[rows],
                gradients[rows],
                hessians[rows],
                num_bins=num_bins,
                node_ids=assign,
                num_nodes=num_active,
            )

        def level_histograms(num_active: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            self.cluster.reset_parameter("gbdt_histograms")
            for worker, rows, assign in shards:
                if rows.size == 0:
                    continue

                def _local_histograms(_worker, rows=rows, assign=assign):
                    grad_hist, hess_hist, count_hist = local_histograms(
                        rows, assign, num_active
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

            block_rows = num_active * num_features * num_bins
            merged = self.cluster.pull_row_block(
                "gbdt_histograms", np.arange(block_rows, dtype=np.int64)
            ).reshape(num_active, num_features, num_bins, 3)
            if driver_rows.size:
                merged = merged + np.stack(
                    local_histograms(driver_rows, driver_assign, num_active), axis=-1
                )
            return merged[..., 0], merged[..., 1], merged[..., 2]

        def reroute(decisions: List[Optional[SplitDecision]]) -> None:
            nonlocal driver_rows, driver_assign
            # Broadcast the split decisions; each worker reroutes its own rows.
            for shard in shards:
                worker, rows, assign = shard
                if rows.size == 0:
                    continue

                def _reroute(_worker, rows=rows, assign=assign):
                    return apply_decisions(sub, rows, assign, decisions)

                shard[1:] = worker.run(_reroute, compute_units=float(rows.size))
            driver_rows, driver_assign = apply_decisions(
                sub, driver_rows, driver_assign, decisions
            )

        root = grow_level_wise(
            self._binner,
            feature_sample,
            total_gradient=float(gradients[row_sample].sum()),
            total_hessian=float(hessians[row_sample].sum()),
            num_rows=int(row_sample.shape[0]),
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=self.reg_lambda,
            level_histograms=level_histograms,
            reroute=reroute,
        )
        return HistogramTree(root, feature_indices=feature_sample)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the cluster backend (shard processes, shared memory)."""
        self.cluster.close()

