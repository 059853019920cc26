"""Figure 10 — training time versus number of machines (DW and GBDT).

The paper plots distributed DeepWalk time (minutes) and distributed GBDT time
(seconds) for 4/10/20/40 machines, half servers and half workers.  Shape to
reproduce: DW keeps improving up to 40 machines, GBDT stops improving beyond
20 because communication / uneven traffic dominates.

Three things are measured here:

* the calibrated cluster cost model evaluated at the paper's machine counts
  (the plotted series), including the dense/sparse communication account,
* an actual distributed DeepWalk / GBDT run on the simulated KunPeng cluster,
  which exercises the pull/push machinery end to end, and
* a dense-vs-sparse A/B of the DeepWalk training loop at matched effective
  update counts: the sparse pull/compute/push cycle of ``src/`` must move at
  least 5x fewer embedding rows per round than the full-matrix model-average
  baseline (``benchmarks/paper/dense_deepwalk.py``) while reaching
  recall@top-1 within 2 % of it.

Running this file directly (``python -m benchmarks.bench_fig10_scalability``)
executes a tiny two-worker smoke of both training loops and fails on
exceptions or non-finite losses; CI uses that as the training smoke job.
"""

from __future__ import annotations

import numpy as np

from benchmarks.paper.cost_model import deepwalk_round_volume, estimate_deepwalk_time
from benchmarks.paper.dense_deepwalk import DenseDeepWalk, top1_neighbor_recall
from benchmarks.paper.sweeps import scalability_curve
from repro.core.evaluation import evaluate_scores
from repro.datagen.datasets import DatasetBuilder
from repro.features.basic import BasicFeatureExtractor
from repro.graph.builder import build_network
from repro.graph.random_walk import RandomWalkConfig
from repro.kunpeng import ClusterConfig
from repro.models.distributed import DistributedGBDT
from repro.nrl.distributed import DistributedDeepWalk, DistributedDeepWalkConfig
from repro.nrl.word2vec import SkipGramConfig

#: DeepWalk training loop per A/B arm.
LOOPS = {"dense": DenseDeepWalk, "sparse": DistributedDeepWalk}


def test_fig10_scalability_curve(benchmark):
    from benchmarks.conftest import run_once

    rows = run_once(benchmark, scalability_curve)

    print("\nFigure 10 — estimated training time vs number of machines")
    print(f"  {'machines':>9} {'DW (minutes)':>14} {'GBDT (seconds)':>16}")
    for row in rows:
        print(
            f"  {int(row['num_machines']):>9} {row['deepwalk_minutes']:>14.1f} "
            f"{row['gbdt_seconds']:>16.1f}"
        )

    print("  DW estimate with the sparse pull/push loop instead of model averaging:")
    for machines in (4, 10, 20, 40):
        dense = estimate_deepwalk_time(machines)
        sparse = estimate_deepwalk_time(machines, mode="sparse")
        print(
            f"  {machines:>9} {sparse.total_seconds / 60.0:>14.1f} "
            f"(communication {dense.communication_seconds:.0f}s -> "
            f"{sparse.communication_seconds:.0f}s)"
        )
        assert sparse.communication_seconds < dense.communication_seconds

    deepwalk = [row["deepwalk_minutes"] for row in rows]
    gbdt = [row["gbdt_seconds"] for row in rows]
    assert deepwalk == sorted(deepwalk, reverse=True), "DW time must fall with more machines"
    assert gbdt[2] < gbdt[0], "GBDT should improve from 4 to 20 machines"
    assert gbdt[3] > 0.8 * gbdt[2], "GBDT should stop improving from 20 to 40 machines"


def test_fig10_distributed_training_runs(benchmark, bench_world):
    """Exercise the real PS training loop and report its recorded workload."""
    from benchmarks.conftest import run_once

    builder = DatasetBuilder(bench_world, network_days=25, train_days=7)
    dataset = builder.build(builder.earliest_test_day())
    network = build_network(dataset.network_transactions)
    extractor = BasicFeatureExtractor(bench_world.profiles_by_id)
    train = extractor.extract(dataset.train_transactions)
    test = extractor.extract(dataset.test_transactions)

    def _run():
        deepwalk = DistributedDeepWalk(
            DistributedDeepWalkConfig(
                cluster=ClusterConfig(num_machines=4),
                walk=RandomWalkConfig(walk_length=15, num_walks_per_node=3),
                skipgram=SkipGramConfig(dimension=16, window=4, epochs=1, batch_size=2048),
                rounds_per_epoch=3,
                seed=0,
            )
        ).fit(network)
        gbdt = DistributedGBDT(
            cluster=ClusterConfig(num_machines=4), num_trees=30, seed=0
        ).fit(train.values, train.labels)
        scores = gbdt.predict_proba(test.values)
        return {
            "dw_workload": deepwalk.workload_summary(),
            "dw_losses": deepwalk.loss_history,
            "gbdt_f1": evaluate_scores(test.labels, scores).f1,
        }

    result = run_once(benchmark, _run)
    print("\nFigure 10 companion — simulated PS run on 4 machines")
    print(f"  DW worker compute units : {result['dw_workload']['worker_compute_units']:.0f}")
    print(f"  DW values transferred   : {result['dw_workload']['values_transferred']:.0f}")
    print(f"  DW rows per round       : {result['dw_workload']['values_per_round']:.0f}")
    print(f"  distributed GBDT test F1: {result['gbdt_f1']:.2%}")
    assert result["gbdt_f1"] > 0.0
    assert result["dw_workload"]["values_transferred"] > 0
    assert result["dw_workload"]["rounds_recorded"] > 0
    assert np.isfinite(result["dw_losses"]).all()


def _ab_config(rounds_per_epoch: int, epochs: int) -> DistributedDeepWalkConfig:
    """Shared dense/sparse A/B configuration (only the budget differs)."""
    return DistributedDeepWalkConfig(
        cluster=ClusterConfig(num_machines=4),
        walk=RandomWalkConfig(walk_length=20, num_walks_per_node=3, batch_size=64),
        skipgram=SkipGramConfig(dimension=16, window=4, epochs=epochs, batch_size=128, negatives=3),
        rounds_per_epoch=rounds_per_epoch,
        seed=0,
    )


def test_fig10_dense_vs_sparse_communication(benchmark, bench_world):
    """The tentpole claim: row-sparse pull/push cuts per-round traffic >= 5x
    at matched embedding quality.

    Budgets are matched on *effective* updates at the shared model: a sparse
    round applies every worker's minibatch additively (W minibatches/round),
    while a dense model-average round nets out to about one minibatch of
    progress regardless of W — so dense gets W times as many rounds.  Dense
    per-round traffic does not depend on the round count, which keeps the
    communication comparison fair.
    """
    from benchmarks.conftest import run_once

    builder = DatasetBuilder(bench_world, network_days=25, train_days=7)
    dataset = builder.build(builder.earliest_test_day())
    network = build_network(dataset.network_transactions)
    communities = {
        node: bench_world.profiles_by_id[node].community
        for node in network.nodes()
        if node in bench_world.profiles_by_id
    }
    num_workers = ClusterConfig(num_machines=4).num_workers

    def _run():
        results = {}
        for mode, epochs in (("sparse", 8), ("dense", 8 * num_workers)):
            model = LOOPS[mode](_ab_config(2000, epochs)).fit(network)
            assert np.isfinite(model.loss_history).all()
            summary = model.workload_summary()
            results[mode] = {
                "values_per_round": summary["values_per_round"],
                "rounds": model.rounds_completed,
                "recall": top1_neighbor_recall(model.embeddings(), communities),
                "vocab_rows": len(model.vocabulary_),
            }
        return results

    results = run_once(benchmark, _run)
    dense, sparse = results["dense"], results["sparse"]
    reduction = dense["values_per_round"] / sparse["values_per_round"]
    predicted = deepwalk_round_volume(
        dense["vocab_rows"], num_workers, mode="dense"
    ) / deepwalk_round_volume(
        dense["vocab_rows"], num_workers, mode="sparse", batch_pairs=128, negatives=3
    )

    print("\nFigure 10 A/B — dense model averaging vs sparse pull/push (4 machines)")
    print(f"  {'':>8} {'rows/round':>12} {'rounds':>8} {'recall@top-1':>13}")
    for mode in ("dense", "sparse"):
        row = results[mode]
        print(
            f"  {mode:>8} {row['values_per_round']:>12.0f} {row['rounds']:>8} "
            f"{row['recall']:>13.3f}"
        )
    print(f"  measured per-round traffic reduction: {reduction:.1f}x")
    print(f"  cost-model predicted lower bound    : {predicted:.1f}x")

    assert reduction >= 5.0, f"sparse mode must move >=5x fewer rows/round, got {reduction:.1f}x"
    assert sparse["recall"] >= dense["recall"] - 0.02, (
        f"sparse recall {sparse['recall']:.3f} must be within 2% of dense "
        f"{dense['recall']:.3f}"
    )


def _training_smoke() -> None:
    """Tiny two-worker run of both loops; raises on exceptions or NaN loss."""
    from repro.datagen import generate_world
    from repro.datagen.profiles import ProfileConfig
    from repro.datagen.transactions import WorldConfig

    world = generate_world(
        WorldConfig(
            profile=ProfileConfig(num_users=120, num_communities=4, seed=7),
            num_days=12,
            transactions_per_user_per_day=0.8,
            seed=7,
        )
    )
    builder = DatasetBuilder(world, network_days=8, train_days=2)
    dataset = builder.build(builder.earliest_test_day())
    network = build_network(dataset.network_transactions)
    print(f"smoke network: {network.num_nodes} nodes, {network.num_edges} edges")
    for mode, loop in LOOPS.items():
        model = loop(
            DistributedDeepWalkConfig(
                cluster=ClusterConfig(num_machines=4),  # 2 servers + 2 workers
                walk=RandomWalkConfig(walk_length=10, num_walks_per_node=2, batch_size=32),
                skipgram=SkipGramConfig(dimension=8, window=3, epochs=2, batch_size=64),
                rounds_per_epoch=10,
                seed=1,
            )
        ).fit(network)
        losses = np.asarray(model.loss_history)
        if losses.size == 0 or not np.isfinite(losses).all():
            raise AssertionError(f"{mode} loop produced empty or non-finite losses")
        summary = model.workload_summary()
        print(
            f"  {mode:>6}: {model.rounds_completed} rounds, "
            f"{summary['values_per_round']:.0f} rows/round, "
            f"final loss {losses[-1]:.3f}"
        )
    print("training smoke OK")


if __name__ == "__main__":
    _training_smoke()
