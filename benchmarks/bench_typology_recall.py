"""Per-typology fraud recall on the labelled typology suite (PR 10).

A single pooled recall number can hide an entire fraud scenario: a detector
trained mostly on smurfing-style volume can post high overall recall while
missing every bust-out.  This bench generates a world whose campaign frauds
are emitted by the five labelled typologies (mule/relay chains, account
takeover, bust-out, merchant collusion, smurfing — see
:class:`~repro.datagen.fraud.TypologyFraudSuite`), trains the paper's
GBDT+S2V configuration on a T+1 slice, and reports recall *per typology* at
the single deployed threshold via
:func:`~repro.core.evaluation.typology_recall_report`.

Asserted on every run:

* the labelled eval slice contains frauds from **all five** typologies (the
  per-typology report is meaningless if a scenario never occurs), and
* every reported recall is a valid fraction backed by a positive fraud count.

The first holds by the world's parameters, not by the choice of ``SEED``.  The
suite fires each campaign unit independently with probability ``p`` =
``active_day_probability`` = 0.10 a day, so a typology with ``u`` units misses
a ``w``-day eval window with probability ``0.9 ** (u * w)``; a tenth of the
accounts are fraudsters, split evenly over the five typologies:

* smoke — 300 accounts, 6 per typology, eval days 21–43 (``w`` = 23).  Mule
  chains: 6 accounts in chains of 3, ``u`` = 2, miss 0.9 ** 46 = 0.008 (at the
  30-day horizon this bench used to have, 0.9 ** 18 = 0.15).  Takeover,
  collusion, smurfing: ``u`` = 6, miss < 1e-6.
* full — 700 accounts, 14 per typology, eval days 24–35 (``w`` = 12).  Mule
  chains: ``u`` = 5, miss 0.9 ** 60 = 0.002; the others < 1e-7.
* bust-out accounts cash out once, on the first active day from
  ``bust_out_buildup_days`` on.  That is set to the test day, so an account
  misses the window only by staying quiet through all of it: 0.9 ** 23 = 0.09
  for each of 6 accounts (all six: < 1e-6), 0.9 ** 12 = 0.28 for each of 14
  (< 1e-7).  With the default buildup of 5 days an account has already fired
  before day 21 with probability 1 - 0.9 ** 16 = 0.81, and all six had with
  probability 0.49 — which seed 23 then hit.

Every typology is therefore in the slice with probability > 0.99 for any seed.

Run ``python -m benchmarks.bench_typology_recall --smoke`` (the CI job) or
without flags for the full run.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from repro.core.config import (
    DetectorName,
    FeatureSetName,
    ModelHyperparameters,
    Table1Configuration,
)
from repro.core.evaluation import typology_recall_report
from repro.core.pipeline import OfflineTrainingPipeline
from repro.datagen import (
    FRAUD_TYPOLOGIES,
    DatasetBuilder,
    TypologyConfig,
    WorldConfig,
    generate_world,
)
from repro.datagen.profiles import ProfileConfig

SEED = 23


def _typology_world(params: Dict[str, int]) -> "WorldConfig":
    """World config whose campaign frauds come from the labelled suite.

    ``active_day_probability`` is kept low so fraud stays a few percent of the
    traffic; bust-out cash-outs start on the test day (module docstring).
    """
    return WorldConfig(
        profile=ProfileConfig(
            num_users=params["num_users"],
            num_communities=8,
            fraudster_fraction=0.10,
            seed=SEED,
        ),
        num_days=params["num_days"],
        transactions_per_user_per_day=0.6,
        typologies=TypologyConfig(
            active_day_probability=0.10,
            bust_out_buildup_days=params["network_days"] + params["train_days"],
        ),
        seed=SEED,
    )


def run_bench(*, smoke: bool) -> None:
    if smoke:
        params = {"num_users": 300, "num_days": 44, "network_days": 14, "train_days": 7}
    else:
        params = {"num_users": 700, "num_days": 36, "network_days": 16, "train_days": 8}

    print(f"generating {params['num_users']}-user, {params['num_days']}-day "
          "typology world ...")
    world = generate_world(_typology_world(params))
    builder = DatasetBuilder(
        world,
        network_days=params["network_days"],
        train_days=params["train_days"],
    )
    test_day = builder.earliest_test_day()
    dataset = builder.build(test_day)
    # The labelled eval slice pools every day from the test day to the
    # horizon: a single day is too small a sample for five typologies, and
    # the one-shot bust-outs in particular land on different days per account.
    assert test_day == world.config.typologies.bust_out_buildup_days
    eval_transactions = world.transactions_in_days(test_day, params["num_days"])
    eval_frauds = sum(1 for t in eval_transactions if t.is_fraud)
    print(f"  train day {test_day}; eval slice days [{test_day}, "
          f"{params['num_days']}): {len(eval_transactions):,} transactions, "
          f"{eval_frauds} frauds")

    pipeline = OfflineTrainingPipeline(
        world.profiles_by_id, ModelHyperparameters.laptop_scale(seed=SEED)
    )
    configuration = Table1Configuration(7, DetectorName.GBDT, FeatureSetName.BASIC_S2V)
    print("training GBDT+S2V on the T+1 slice ...")
    preparation = pipeline.prepare(
        dataset,
        need_deepwalk=False,
        embedding_dimension=8 if smoke else 16,
    )
    bundle = pipeline.train(preparation, configuration)

    # -- scoring path (assemble + score, the serving-plan flow) --------------
    assembler = pipeline.assembler_for(preparation, configuration.feature_set)
    matrix = assembler.assemble(eval_transactions)
    scores = bundle.detector.predict_proba(matrix.values)

    report = typology_recall_report(
        eval_transactions, scores, threshold=bundle.threshold
    )

    missing = sorted(set(FRAUD_TYPOLOGIES) - set(report))
    assert not missing, (
        f"eval slice has no frauds for typologies {missing}; "
        "the per-typology report must cover all five"
    )
    for name, entry in report.items():
        assert entry.num_frauds > 0, f"{name}: empty slice in the report"
        assert 0.0 <= entry.recall <= 1.0, f"{name}: recall out of range"

    print(f"\ntypology recall — {'smoke' if smoke else 'full'} mode")
    for name, entry in report.items():
        print(f"  {name:>18}: recall {entry.recall:6.2%} "
              f"({entry.num_detected}/{entry.num_frauds})")


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    args = parser.parse_args(argv)
    run_bench(smoke=args.smoke)


if __name__ == "__main__":
    main()
