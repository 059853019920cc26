"""Figure 8 — construction of the rolling T+1 evaluation datasets.

The figure illustrates how each test day is paired with the preceding 14 days
of labelled training records and the 90 days of records before that used only
to build the transaction network, shifting forward one day at a time over a
continuous week.  The benchmark measures the slicing itself over the synthetic
world and verifies the invariants of the construction.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_NETWORK_DAYS, BENCH_TRAIN_DAYS, run_once
from repro.datagen.datasets import DatasetSlice, RollingDatasets


def class_balance(dataset: DatasetSlice) -> float:
    """Fraction of fraudulent transactions in the training window."""
    train = dataset.train_transactions
    return sum(t.is_fraud for t in train) / len(train) if train else 0.0


def test_fig8_rolling_dataset_construction(benchmark, bench_world):
    def _run():
        return RollingDatasets.build(
            bench_world,
            num_datasets=7,
            network_days=BENCH_NETWORK_DAYS,
            train_days=BENCH_TRAIN_DAYS,
        )

    rolling = run_once(benchmark, _run)

    print("\nFigure 8 — rolling T+1 datasets (synthetic world)")
    for dataset in rolling:
        spec = dataset.spec
        print(
            f"  test day {spec.test_day}: network days [{spec.network_start}, {spec.network_end}), "
            f"train days [{spec.train_start}, {spec.train_end}), "
            f"{len(dataset.network_transactions)} network / {len(dataset.train_transactions)} train / "
            f"{len(dataset.test_transactions)} test transactions, "
            f"train fraud rate {class_balance(dataset):.2%}"
        )

    assert len(rolling) == 7
    days = [d.spec.test_day for d in rolling]
    assert days == list(range(days[0], days[0] + 7))
    for dataset in rolling:
        assert dataset.spec.network_end - dataset.spec.network_start == BENCH_NETWORK_DAYS
        assert dataset.spec.train_end - dataset.spec.train_start == BENCH_TRAIN_DAYS
        assert class_balance(dataset) < 0.2
