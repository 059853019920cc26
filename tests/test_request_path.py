"""One request path: every way into ``AlipayServer`` makes the same decisions.

``process_batch`` is the only function that turns requests into decisions;
``process`` is a batch of one and every ``replay_transactions`` mode reaches
it through a coalescer flush.  At batch size 1 all of them must therefore
agree exactly — same probabilities (``==``, not ``approx``), same report
counters, same write-through state — on one replica and on a sharded fleet.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServingError, StorageError
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
    RuleBasedFallback,
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


def _store(world, dataset, trained) -> HBaseClient:
    """A fresh store holding the profiles and the T+1 aggregate snapshot."""
    aggregator = trained[1]
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
    return hbase


def _fleet(hbase, trained, replicas, threshold=0.5):
    model, plan = trained[2], trained[3]
    fleet = [ModelServer(hbase.connection(), ModelServerConfig()) for _ in range(replicas)]
    for server in fleet:
        server.load_model(model, version="v1", threshold=threshold, plan=plan)
    return fleet


def _front_end(world, dataset, trained, replicas, **kwargs) -> AlipayServer:
    """A fresh store, fleet and streaming updater (replays mutate all three)."""
    hbase = _store(world, dataset, trained)
    engine = SlidingWindowAggregator(trained[0]).replay(dataset.train_transactions)
    updater = StreamingFeatureUpdater(
        engine, hbase, TABLE, start_version=dataset.spec.test_day
    )
    return AlipayServer(_fleet(hbase, trained, replicas), feature_updater=updater, **kwargs)


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


#: Values the schema forbids (``transfer_value_error``'s amount and IP risk
#: rules, plus finiteness).  Each used to be scored and ingested, and a NaN or
#: infinite amount then read NaN in the payer's stored window row for good.
INVALID_VALUES = [
    ("amount", float("nan")),
    ("amount", float("inf")),
    ("amount", -50.0),
    ("amount", 0.0),
    ("ip_risk_score", float("nan")),
    ("ip_risk_score", float("inf")),
    ("ip_risk_score", -0.1),
    ("ip_risk_score", 1.5),
]
ENTRY_POINTS = {
    "process": lambda alipay, request: alipay.process(request),
    "process_degraded": lambda alipay, request: alipay.process_degraded(request),
    "observe_request": lambda alipay, request: alipay.feature_updater.observe_request(request),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_an_invalid_amount_or_ip_risk_score_reaches_no_entry_point(world, dataset, trained, entry):
    alipay = _front_end(
        world,
        dataset,
        trained,
        replicas=1,
        admission=AdmissionController(AdmissionConfig(capacity_rps=200.0, max_queue_depth=4)),
    )
    store = alipay.feature_updater.hbase
    request = TransactionRequest.from_transaction(
        sorted(dataset.test_transactions, key=event_order)[0]
    )
    before = store.scan(TABLE, AGGREGATES_FAMILY)
    for field, value in INVALID_VALUES:
        with pytest.raises(ServingError, match=f"{field} must be"):
            ENTRY_POINTS[entry](alipay, dataclasses.replace(request, **{field: value}))
    assert store.scan(TABLE, AGGREGATES_FAMILY) == before
    assert alipay.report().total == 0
    # The valid request is still served and ingested; the payer's row stays finite.
    ENTRY_POINTS[entry](alipay, request)
    row = store.get(TABLE, request.payer_id, AGGREGATES_FAMILY)
    assert row["out_count"] >= 1.0
    assert all(math.isfinite(value) for value in row.values() if isinstance(value, float))


def test_a_batch_whose_ingest_raises_is_not_recorded(world, dataset, trained, monkeypatch):
    """The whole batch is ingested before any of it is recorded.  An ingest
    that raised on the 2nd of 3 requests used to leave the 1st counted in
    ``report()`` and ``served``, while the caller got no decision at all."""
    alipay = _front_end(world, dataset, trained, replicas=1)
    server = alipay.model_servers[0]
    transactions = sorted(dataset.test_transactions, key=event_order)[:5]
    requests = [TransactionRequest.from_transaction(txn) for txn in transactions]
    alipay.process_batch(requests[:2], was_fraud=[True, False])
    before = (alipay.report(), list(alipay.served), list(alipay.notifications))
    observe, calls = alipay.feature_updater.observe_request, []

    def observe_failing_second(request):
        calls.append(request)
        if len(calls) == 2:
            raise StorageError("region server unavailable")
        return observe(request)

    monkeypatch.setattr(alipay.feature_updater, "observe_request", observe_failing_second)
    with pytest.raises(StorageError, match="unavailable"):
        alipay.process_batch(requests[2:], was_fraud=[True, False, None])
    assert (alipay.report(), alipay.served, alipay.notifications) == before
    # The Model Server did score the three rows; its own counters say so.
    assert server.requests_served == len(server.latency) == 5


#: Requests per example of the batch-shape property; one of them is shed.
SHAPE_REQUESTS = 24
_REFERENCE_NAMES = ("interrupted", "approved", "true_alerts", "false_alerts", "missed_frauds")


@pytest.fixture(scope="module")
def read_only_store(world, dataset, trained):
    """A store no example writes to (no updater), and an alert threshold
    just above the lowest score, so several of the requests alert."""
    hbase = _store(world, dataset, trained)
    requests = [
        TransactionRequest.from_transaction(txn)
        for txn in sorted(dataset.test_transactions, key=event_order)[:SHAPE_REQUESTS]
    ]
    responses = _fleet(hbase, trained, replicas=1)[0].predict_batch(requests)
    probabilities = [response.fraud_probability for response in responses]
    lowest, second = sorted(set(probabilities))[:2]
    return hbase, requests, probabilities, (lowest + second) / 2


def _reference_counts(alerts, labels):
    """The report's outcome and quality counters from their definitions."""
    counts = dict.fromkeys(_REFERENCE_NAMES, 0)
    for alerted, label in zip(alerts, labels):
        counts["interrupted" if alerted else "approved"] += 1
        if alerted and label is not None:
            counts["true_alerts" if label else "false_alerts"] += 1
        elif label:
            counts["missed_frauds"] += 1
    return counts


def _bookkeeping(alipay: AlipayServer):
    """Everything the front end and its fleet recorded, but wall-clock time."""
    served = [
        (
            s.request,
            dataclasses.replace(s.response, latency_ms=0.0),
            struct.pack("<d", s.response.fraud_probability),
            s.outcome,
            s.was_fraud,
            s.degraded,
        )
        for s in alipay.served
    ]
    fleet = [(server.requests_served, len(server.latency)) for server in alipay.model_servers]
    return alipay.report(), served, list(alipay.notifications), fleet


def assert_bookkeeping_ignores_batch_shape(
    read_only_store, trained, replicas, retain_served, labels, cuts, shed
):
    hbase, requests, probabilities, threshold = read_only_store
    scored = requests[:shed] + requests[shed + 1 :]
    scored_labels = labels[:shed] + labels[shed + 1 :]
    batch_bounds = {
        "whole": [0, len(scored)],
        "chunked": [0, *sorted(cuts), len(scored)],
        "per_request": None,
    }
    outcomes = {}
    for name, bounds in batch_bounds.items():
        alipay = AlipayServer(
            _fleet(hbase, trained, replicas, threshold),
            admission=AdmissionController(AdmissionConfig(capacity_rps=1000.0)),
            retain_served=retain_served,
        )
        alipay.process_degraded(requests[shed], was_fraud=labels[shed])
        if bounds is None:
            for request, label in zip(scored, scored_labels):
                alipay.process(request, was_fraud=label)
        else:
            for start, stop in zip(bounds, bounds[1:]):
                alipay.process_batch(scored[start:stop], was_fraud=scored_labels[start:stop])
        outcomes[name] = _bookkeeping(alipay)
    assert outcomes["chunked"] == outcomes["whole"] == outcomes["per_request"]

    # The shed request is answered first, by the rules; the rest in order.
    order = [shed, *(index for index in range(SHAPE_REQUESTS) if index != shed)]
    alerts = [probabilities[index] >= threshold for index in order]
    alerts[0] = RuleBasedFallback().respond(requests[shed]).is_fraud_alert
    report, served, notifications, _ = outcomes["whole"]
    assert report.total == SHAPE_REQUESTS and report.degraded == 1
    assert 0 < report.interrupted < report.total
    assert {name: getattr(report, name) for name in _REFERENCE_NAMES} == _reference_counts(
        alerts, [labels[index] for index in order]
    )
    alerted_ids = [requests[i].transaction_id for i, a in zip(order, alerts) if a]
    if retain_served:
        assert [entry[0].transaction_id for entry in served] == [
            requests[index].transaction_id for index in order
        ]
        assert [text.split()[1] for text in notifications] == alerted_ids
    else:
        assert served == notifications == []


SHAPE_STRATEGIES = dict(
    replicas=st.sampled_from([1, 3]),
    retain_served=st.booleans(),
    labels=st.lists(
        st.sampled_from([True, False, None]), min_size=SHAPE_REQUESTS, max_size=SHAPE_REQUESTS
    ),
    cuts=st.sets(st.integers(1, SHAPE_REQUESTS - 2)),
    shed=st.integers(0, SHAPE_REQUESTS - 1),
)


@settings(max_examples=40, deadline=None)
@given(**SHAPE_STRATEGIES)
def test_bookkeeping_does_not_depend_on_batch_shape(
    read_only_store, trained, replicas, retain_served, labels, cuts, shed
):
    """With no updater a score cannot depend on batching, so one batch, any
    chunking and one request at a time record the same report, served list,
    notifications and per-server counts — a shed request among them — and
    the report's counters match their per-request definitions."""
    assert_bookkeeping_ignores_batch_shape(
        read_only_store, trained, replicas, retain_served, labels, cuts, shed
    )


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(**SHAPE_STRATEGIES)
def test_bookkeeping_does_not_depend_on_batch_shape_soak(
    read_only_store, trained, replicas, retain_served, labels, cuts, shed
):
    assert_bookkeeping_ignores_batch_shape(
        read_only_store, trained, replicas, retain_served, labels, cuts, shed
    )
