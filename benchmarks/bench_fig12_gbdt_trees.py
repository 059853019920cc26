"""Figure 12 — F1 versus the number of GBDT decision trees.

The paper sweeps 100/200/400/800 trees for four feature sets and sees F1 rise
until 400 trees, then dip at 800 (overfitting).  The benchmark evaluates the
same tree counts from a single staged model per feature set; on the reduced
synthetic world the assertion is that more trees help initially and that the
curve is not monotonically increasing forever (i.e. the largest budget is not
required to reach the best score).

The file also hosts the exact-vs-histogram A/B at the paper's 400-tree
budget: GBDT's histogram grower must fit at least 3x faster than the exact
sorted-search oracle (:class:`~benchmarks.paper.exact.ExactGBDT`) with test
AUC within 0.01.  Running the file directly
(``python -m benchmarks.bench_fig12_gbdt_trees``) executes a reduced smoke of
the same A/B plus a distributed histogram-aggregation run; CI uses that as
the GBDT training smoke job.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import BENCH_SCALE, run_once
from benchmarks.paper.exact import ExactGBDT
from benchmarks.paper.sweeps import roc_auc, tree_sweep
from repro.core.config import FeatureSetName
from repro.models.gbdt import GradientBoostingClassifier

TREE_COUNTS = (100, 200, 400, 800) if BENCH_SCALE == "paper" else (20, 40, 80, 160)

#: Tree budget of the exact-vs-hist A/B — the paper's production setting.
AB_TREES = 400

#: The two growers of the A/B: the exact oracle and the one GBDT ships.
GROWERS = {"exact": ExactGBDT, "hist": GradientBoostingClassifier}


def test_fig12_gbdt_tree_sweep(benchmark, bench_runner):
    def _run():
        return tree_sweep(
            bench_runner,
            TREE_COUNTS,
            feature_sets=(FeatureSetName.BASIC, FeatureSetName.BASIC_DW),
        )

    results = run_once(benchmark, _run)

    print("\nFigure 12 — F1 vs number of GBDT trees")
    header = "  " + f"{'feature set':<16}" + "".join(f"{c:>8}" for c in TREE_COUNTS)
    print(header)
    for feature_set, by_count in results.items():
        row = "  " + f"{feature_set:<16}" + "".join(
            f"{by_count[c]:>8.2%}" for c in TREE_COUNTS
        )
        print(row)

    for by_count in results.values():
        assert set(by_count) == set(TREE_COUNTS)
        assert all(0.0 <= value <= 1.0 for value in by_count.values())
        # The best score should be reachable before the largest tree budget
        # (the paper's curve peaks at 400 of 800), within a small tolerance.
        best = max(by_count.values())
        assert max(by_count[c] for c in TREE_COUNTS[1:-1]) >= best - 0.08


def _fit_and_score(method, train, test, *, num_trees, seed=0):
    """Fit one GBDT variant; returns (fit_seconds, test AUC)."""
    start = time.perf_counter()
    model = GROWERS[method](num_trees=num_trees, seed=seed).fit(train.values, train.labels)
    fit_seconds = time.perf_counter() - start
    auc = roc_auc(test.labels, model.predict_proba(test.values))
    return fit_seconds, auc


def test_fig12_exact_vs_hist_ab(benchmark, bench_world):
    """The A/B: histogram binning must cut the 400-tree fit time by
    at least 3x at AUC parity (within 0.01) on the benchmark dataset."""
    from repro.datagen.datasets import DatasetBuilder
    from repro.features.basic import BasicFeatureExtractor

    builder = DatasetBuilder(bench_world, network_days=25, train_days=7)
    dataset = builder.build(builder.earliest_test_day())
    extractor = BasicFeatureExtractor(bench_world.profiles_by_id)
    train = extractor.extract(dataset.train_transactions)
    test = extractor.extract(dataset.test_transactions)

    def _run():
        return {
            method: _fit_and_score(method, train, test, num_trees=AB_TREES)
            for method in ("exact", "hist")
        }

    results = run_once(benchmark, _run)
    exact_seconds, exact_auc = results["exact"]
    hist_seconds, hist_auc = results["hist"]
    speedup = exact_seconds / hist_seconds

    print(f"\nFigure 12 A/B — exact vs hist tree grower at {AB_TREES} trees")
    print(f"  {'method':>8} {'fit (s)':>9} {'test AUC':>9}")
    for method, (seconds, auc) in results.items():
        print(f"  {method:>8} {seconds:>9.2f} {auc:>9.4f}")
    print(f"  speedup: {speedup:.1f}x")

    assert speedup >= 3.0, f"hist must be >=3x faster at {AB_TREES} trees, got {speedup:.1f}x"
    assert abs(hist_auc - exact_auc) <= 0.01, (
        f"hist AUC {hist_auc:.4f} must be within 0.01 of exact {exact_auc:.4f}"
    )


def _gbdt_smoke() -> None:
    """Reduced exact-vs-hist A/B plus a distributed histogram run (CI smoke)."""
    import numpy as np

    from benchmarks.paper.cost_model import gbdt_round_volume
    from repro.kunpeng import ClusterConfig
    from repro.models.distributed import DistributedGBDT

    rng = np.random.default_rng(0)

    class _Matrix:
        def __init__(self, values, labels):
            self.values, self.labels = values, labels

    def _make(num_rows):
        values = rng.normal(size=(num_rows, 12))
        logits = 1.5 * values[:, 0] - values[:, 1] + 0.8 * values[:, 2] * values[:, 3]
        labels = (logits + rng.normal(scale=0.5, size=num_rows) > 0.5).astype(float)
        return _Matrix(values, labels)

    train, test = _make(4000), _make(1000)
    results = {
        method: _fit_and_score(method, train, test, num_trees=120)
        for method in ("exact", "hist")
    }
    speedup = results["exact"][0] / results["hist"][0]
    auc_gap = abs(results["hist"][1] - results["exact"][1])
    print(
        f"smoke A/B at 120 trees: exact {results['exact'][0]:.2f}s, "
        f"hist {results['hist'][0]:.2f}s ({speedup:.1f}x), AUC gap {auc_gap:.4f}"
    )
    if speedup < 2.0:
        raise AssertionError(f"hist smoke speedup below 2x: {speedup:.1f}x")
    if auc_gap > 0.02:
        raise AssertionError(f"hist smoke AUC gap above 0.02: {auc_gap:.4f}")

    # Distributed histogram aggregation: per-round traffic must stay within
    # the analytic bins x features bound, i.e. independent of the row count.
    num_bins = 16
    model = DistributedGBDT(
        cluster=ClusterConfig(num_machines=4),
        num_trees=10,
        num_bins=num_bins,
        seed=0,
    ).fit(train.values, train.labels)
    summary = model.cluster.workload_summary()
    features_per_tree = max(1, int(round(0.4 * train.values.shape[1])))
    bound = gbdt_round_volume(
        train.values.shape[0],
        features_per_tree,
        ClusterConfig(num_machines=4).num_workers,
        mode="hist",
        num_bins=num_bins,
    )
    print(
        f"distributed hist: {summary['values_per_round']:.0f} values/round "
        f"(bound {bound:.0f}), {model.stats.rounds} rounds"
    )
    if summary["values_per_round"] > bound:
        raise AssertionError("histogram round volume exceeded the analytic bound")
    accuracy = ((model.predict_proba(test.values) >= 0.5) == test.labels).mean()
    if accuracy < 0.8:
        raise AssertionError(f"distributed hist smoke accuracy too low: {accuracy:.3f}")
    print(f"distributed hist test accuracy: {accuracy:.3f}")


if __name__ == "__main__":
    _gbdt_smoke()
