"""One request path: every way into ``AlipayServer`` makes the same decisions.

``process_batch`` is the only function that turns requests into decisions;
``process`` is a batch of one and every ``replay_transactions`` mode reaches
it through a coalescer flush.  At batch size 1 all of them must therefore
agree exactly — same probabilities (``==``, not ``approx``), same report
counters, same write-through state — on one replica and on a sharded fleet.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.features.aggregation import AggregationConfig, TransactionAggregator
from repro.features.assembler import FeatureAssembler
from repro.features.plan import FeaturePlanExecutor
from repro.features.streaming import SlidingWindowAggregator, event_order
from repro.hbase import HBaseClient
from repro.hbase.client import AGGREGATES_FAMILY, BASIC_FEATURES_FAMILY
from repro.models.gbdt import GradientBoostingClassifier
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    AlipayServer,
    CoalescerConfig,
    HBaseFeatureSource,
    ModelServer,
    ModelServerConfig,
    ShadowReport,
    StreamingFeatureUpdater,
    TransactionRequest,
)

TABLE = "titant_features"
NUM_REQUESTS = 60


@pytest.fixture(scope="module")
def trained(world, dataset):
    """Model + plan over basic and sliding-window features, trained once."""
    config = AggregationConfig(window_days=40)
    aggregator = TransactionAggregator(config).fit(
        dataset.train_transactions, as_of_day=dataset.spec.test_day
    )
    assembler = FeatureAssembler(world.profiles_by_id, aggregator=aggregator)
    train = assembler.assemble(dataset.train_transactions[:400])
    model = GradientBoostingClassifier(num_trees=5, seed=3).fit(train.values, train.labels)
    return config, aggregator, model, assembler.plan


def _front_end(world, dataset, trained, replicas, **kwargs) -> AlipayServer:
    """A fresh store, fleet and streaming updater (replays mutate all three)."""
    config, aggregator, model, plan = trained
    test_day = dataset.spec.test_day
    hbase = HBaseClient()
    hbase.create_feature_store(TABLE)
    hbase.bulk_load(
        TABLE,
        BASIC_FEATURES_FAMILY,
        {
            profile.user_id: {
                "age": profile.age,
                "gender": profile.gender.value,
                "home_city": profile.home_city,
                "account_age_days": profile.account_age_days,
                "kyc_level": profile.kyc_level,
                "is_merchant": profile.is_merchant,
                "device_count": profile.device_count,
                "community": profile.community,
            }
            for profile in world.profiles
        },
        version=test_day,
    )
    hbase.bulk_load(TABLE, AGGREGATES_FAMILY, aggregator.snapshot_rows(), version=test_day)
    engine = SlidingWindowAggregator(config).replay(dataset.train_transactions)
    updater = StreamingFeatureUpdater(engine, hbase, TABLE, start_version=test_day)
    fleet = [ModelServer(hbase.connection(), ModelServerConfig()) for _ in range(replicas)]
    for server in fleet:
        server.load_model(model, version="v1", threshold=0.5, plan=plan)
    return AlipayServer(fleet, feature_updater=updater, **kwargs)


def _per_request(call):
    def run(alipay: AlipayServer, transactions) -> None:
        for transaction in transactions:
            call(alipay, TransactionRequest.from_transaction(transaction), transaction.is_fraud)

    return run


ONE_AT_A_TIME = CoalescerConfig(max_batch=1)
MODES = {
    "process": _per_request(lambda alipay, r, label: alipay.process(r, was_fraud=label)),
    "process_batch_of_one": _per_request(
        lambda alipay, r, label: alipay.process_batch([r], was_fraud=[label])
    ),
    "replay_scalar": lambda alipay, txns: alipay.replay_transactions(txns),
    "replay_batch_size_1": lambda alipay, txns: alipay.replay_transactions(txns, batch_size=1),
    "replay_simulated_clock": lambda alipay, txns: alipay.replay_transactions(
        txns, arrival_rate_per_s=1000.0, coalescer=ONE_AT_A_TIME
    ),
    "replay_wall_clock": lambda alipay, txns: alipay.replay_transactions(
        txns, arrival_rate_per_s=5000.0, coalescer=ONE_AT_A_TIME, clock="wall"
    ),
}


def _outcome(world, dataset, trained, replicas, mode):
    alipay = _front_end(world, dataset, trained, replicas)
    MODES[mode](alipay, sorted(dataset.test_transactions, key=event_order)[:NUM_REQUESTS])
    probabilities = {
        served.request.transaction_id: served.response.fraud_probability
        for served in alipay.served
    }
    aggregates = alipay.feature_updater.hbase.scan(TABLE, AGGREGATES_FAMILY)
    return probabilities, alipay.report(), aggregates


@pytest.fixture(scope="module", params=[1, 3], ids=["1-replica", "3-replicas"])
def reference(request, world, dataset, trained):
    """What ``process(r)``, request by request, decides on this fleet size."""
    outcome = _outcome(world, dataset, trained, request.param, "process")
    assert len(outcome[0]) == outcome[1].total == NUM_REQUESTS
    return request.param, outcome


@pytest.mark.parametrize("mode", [mode for mode in MODES if mode != "process"])
def test_every_entry_point_makes_the_same_decisions(world, dataset, trained, reference, mode):
    replicas, expected = reference
    probabilities, report, aggregates = _outcome(world, dataset, trained, replicas, mode)
    assert probabilities == expected[0]
    assert report == expected[1]
    assert aggregates == expected[2]


@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_requests_score_like_their_transactions_with_a_shadow(world, dataset, trained, count):
    """``predict_batch`` scores the requests themselves, champion and shadow;
    that is bit-identical to assembling ``to_transaction()`` copies."""
    config, aggregator, model, plan = trained
    train = FeatureAssembler(world.profiles_by_id, aggregator=aggregator).assemble(
        dataset.train_transactions[:400]
    )
    challenger = GradientBoostingClassifier(num_trees=3, seed=11).fit(train.values, train.labels)
    server = _front_end(world, dataset, trained, replicas=1).model_servers[0]
    server.load_shadow_model(challenger, version="v2", threshold=0.2, plan=plan)
    requests = [
        TransactionRequest.from_transaction(txn)
        for txn in sorted(dataset.test_transactions, key=event_order)[:count]
    ]
    served = [response.fraud_probability for response in server.predict_batch(requests)]

    executor = FeaturePlanExecutor(plan, HBaseFeatureSource(server.hbase, TABLE))
    values = executor.assemble([r.to_transaction() for r in requests], with_labels=False).values
    champion, shadow = model.predict_proba(values), challenger.predict_proba(values)
    assert np.array(served).tobytes() == champion.tobytes()
    diffs = np.abs(shadow - champion)
    assert server.shadow_report() == ShadowReport(
        champion_version="v1",
        challenger_version="v2",
        requests=count,
        mean_abs_divergence=float(diffs.sum()) / count if count else 0.0,
        max_abs_divergence=float(diffs.max()) if count else 0.0,
        decision_flips=int(np.sum((champion >= 0.5) != (shadow >= 0.2))),
    )


@pytest.mark.parametrize("clock", ["simulated", "wall"])
def test_shed_requests_are_recorded_at_arrival_admitted_ones_at_flush(
    world, dataset, trained, clock
):
    """The arrival step: a shed request is answered at once, ahead of the
    admitted requests still buffered; those are answered together at flush."""
    max_batch = 8
    alipay = _front_end(
        world,
        dataset,
        trained,
        replicas=1,
        admission=AdmissionController(AdmissionConfig(capacity_rps=200.0, max_queue_depth=4)),
    )
    transactions = sorted(dataset.test_transactions, key=event_order)[:NUM_REQUESTS]
    report = alipay.replay_transactions(
        transactions,
        arrival_rate_per_s=4000.0,
        # A deadline no arrival reaches: only full buffers and the final drain flush.
        coalescer=CoalescerConfig(max_batch=max_batch, max_delay_ms=60_000.0),
        clock=clock,
    )
    assert 0 < report.degraded < report.total == NUM_REQUESTS

    degraded = {s.request.transaction_id for s in alipay.served if s.degraded}
    expected, buffered = [], []
    for transaction in transactions:
        if transaction.transaction_id in degraded:
            expected.append(transaction.transaction_id)
            continue
        buffered.append(transaction.transaction_id)
        if len(buffered) == max_batch:
            expected.extend(buffered)
            buffered = []
    expected.extend(buffered)
    assert [s.request.transaction_id for s in alipay.served] == expected
