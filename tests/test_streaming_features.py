"""The streaming sliding-window feature engine and its online/offline parity.

The headline invariant: at any point of an event-time stream, the incremental
:class:`SlidingWindowAggregator` answers *exactly* what a brute-force batch
recompute (:class:`TransactionAggregator`) over the in-window events would —
for every prefix, at window edges, under out-of-order arrival, and across the
offline → online handoff.

Exactness note: the test streams use dyadic amounts (integer multiples of
1/64), which float64 sums represent exactly under *any* association order, so
"element-wise equal" means ``==``, not ``allclose`` — the windowing logic is
what is under test, not float rounding.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.schema import Transaction, TransactionChannel
from repro.exceptions import FeatureError
from repro.features.aggregation import (
    AGGREGATE_ROW_FIELDS,
    AGGREGATION_FEATURE_NAMES,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    AggregationConfig,
    AggregationWindowSpec,
    TransactionAggregator,
    aggregation_vector,
    transaction_event_time,
)
from repro.features.assembler import FeatureAssembler
from repro.features.basic import BASIC_FEATURE_NAMES
from repro.features.streaming import (
    PointInTimeAggregationSource,
    SlidingWindowAggregator,
    event_order,
)
from repro.hbase.client import AGGREGATES_FAMILY, BASIC_FEATURES_FAMILY, HBaseClient
from repro.hbase.store import HBaseTable


# ---------------------------------------------------------------------------
# Stream construction helpers
# ---------------------------------------------------------------------------


def assembled_aggregates(aggregator, transactions) -> np.ndarray:
    """The aggregation columns ``FeatureAssembler`` — the path that ships —
    builds from ``aggregator``'s per-user rows."""
    matrix = FeatureAssembler({}, aggregator=aggregator).assemble(
        transactions, with_labels=False
    )
    start = len(BASIC_FEATURE_NAMES)
    return matrix.values[:, start : start + len(AGGREGATION_FEATURE_NAMES)]


def make_txn(index, day, hour, payer, payee, amount) -> Transaction:
    return Transaction(
        transaction_id=f"t{index}",
        day=int(day),
        hour=int(hour),
        payer_id=payer,
        payee_id=payee,
        amount=float(amount),
        channel=TransactionChannel.APP,
        trans_city="city_001",
        device_id="d0",
        is_new_device=False,
        ip_risk_score=0.0,
        payer_recent_txn_count=0,
        payer_recent_amount=0.0,
        payee_recent_inbound_count=0,
        is_fraud=False,
        label_available_day=int(day),
    )


def random_stream(rng, *, num_events, num_accounts, num_days, jitter_positions=0):
    """A random event stream: duplicate accounts, dyadic amounts, optional
    bounded out-of-order arrival (elements displaced by at most
    ``jitter_positions`` from time order)."""
    times = np.sort(rng.integers(0, num_days * 24, size=num_events))
    if jitter_positions:
        order = np.argsort(times + rng.uniform(0, jitter_positions, size=num_events))
        times = times[order]
    events = []
    for index, slot in enumerate(times):
        payer, payee = rng.choice(num_accounts, size=2, replace=False)
        amount = int(rng.integers(1, 1 << 20)) / 64.0
        events.append(
            make_txn(index, slot // 24, slot % 24, f"u{payer:03d}", f"u{payee:03d}", amount)
        )
    return events


def merged_account_history(events, *account_ids):
    """The sub-stream touching any of ``account_ids`` (stream order, deduped)."""
    wanted = set(account_ids)
    return [e for e in events if e.payer_id in wanted or e.payee_id in wanted]


def brute_rows(config, events, as_of_time, account_ids):
    """Brute-force batch recompute: one full fit, rows for ``account_ids``."""
    fitted = TransactionAggregator(config).fit(events, as_of_time=as_of_time)
    return {user_id: fitted.hbase_row(user_id) for user_id in account_ids}


def assert_rows_close(left, right):
    """Row equality tolerant of float fold-order (non-dyadic amounts only).

    The batch path folds amounts linearly in stream order while the streaming
    path folds per-bucket subtotals; for arbitrary float amounts the two
    associations can differ in the last ulp, so sums/means compare with a
    tight relative tolerance while counts, maxima and sets stay exact.
    """
    assert left.keys() == right.keys()
    for key in left:
        if key in ("out_amount_sum", "out_amount_mean", "in_amount_sum", "in_amount_mean"):
            assert left[key] == pytest.approx(right[key], rel=1e-9, abs=1e-9)
        else:
            assert left[key] == right[key], key


# ---------------------------------------------------------------------------
# Satellite: window configuration (seconds-capable, validated)
# ---------------------------------------------------------------------------


class TestAggregationConfig:
    def test_default_is_fourteen_days(self):
        config = AggregationConfig()
        config.validate()
        assert config.effective_window_seconds == 14 * SECONDS_PER_DAY

    def test_window_days_back_compat(self):
        assert AggregationConfig(window_days=6).effective_window_seconds == 6 * SECONDS_PER_DAY
        # Positional construction keeps working.
        assert AggregationConfig(3).effective_window_seconds == 3 * SECONDS_PER_DAY

    def test_window_seconds_equivalent_to_window_days(self):
        events = [
            make_txn(i, day, hour, "a", "b", 16.25)
            for i, (day, hour) in enumerate([(0, 1), (1, 23), (2, 0), (3, 12)])
        ]
        by_days = TransactionAggregator(AggregationConfig(window_days=2)).fit(
            events, as_of_day=4
        )
        by_seconds = TransactionAggregator(
            AggregationConfig(window_seconds=2 * SECONDS_PER_DAY)
        ).fit(events, as_of_day=4)
        assert by_days.hbase_row("a") == by_seconds.hbase_row("a")
        assert by_days.hbase_row("b") == by_seconds.hbase_row("b")

    def test_sub_day_window(self):
        events = [
            make_txn(0, 5, 9, "a", "b", 4.0),
            make_txn(1, 5, 11, "a", "c", 8.0),
            make_txn(2, 5, 12, "a", "b", 2.0),
        ]
        one_hour = TransactionAggregator(
            AggregationConfig(window_seconds=SECONDS_PER_HOUR)
        ).fit(events, as_of_time=5 * SECONDS_PER_DAY + 12 * SECONDS_PER_HOUR)
        row = one_hour.user_row("a")
        # The window (11:00, 12:00] holds only the 12:00 event — the 11:00
        # one sits exactly on the left-open edge and has fallen out.
        assert row["out_count"] == 1.0
        assert row["out_amount_sum"] == 2.0

    @pytest.mark.parametrize("bad", [0, -3, float("nan"), float("inf"), -0.5])
    def test_rejects_degenerate_windows(self, bad):
        with pytest.raises(FeatureError):
            AggregationConfig(window_days=bad).validate()
        with pytest.raises(FeatureError):
            AggregationConfig(window_seconds=bad).validate()
        with pytest.raises(FeatureError):
            AggregationWindowSpec(window_seconds=bad)
        with pytest.raises(FeatureError):
            SlidingWindowAggregator(AggregationConfig(window_seconds=bad))

    def test_rejects_both_granularities(self):
        with pytest.raises(FeatureError):
            AggregationConfig(window_days=1, window_seconds=60.0).validate()

    def test_rejects_both_as_of_forms(self):
        with pytest.raises(FeatureError):
            TransactionAggregator().fit([], as_of_day=1, as_of_time=100.0)

    def test_unfitted_aggregator_cannot_serve_rows(self):
        """Regression: an unfitted batch aggregator must raise, not silently
        supply all-zero aggregates to a training assembly."""
        with pytest.raises(FeatureError):
            TransactionAggregator().user_row("a")
        with pytest.raises(FeatureError):
            TransactionAggregator().hbase_row("a")
        assembler = FeatureAssembler({}, aggregator=TransactionAggregator())
        with pytest.raises(FeatureError):
            assembler.assemble([make_txn(0, 1, 2, "a", "b", 1.0)], with_labels=False)

    def test_window_spec_round_trip(self):
        spec = AggregationWindowSpec(window_seconds=36_000.0)
        assert AggregationWindowSpec.from_dict(spec.to_dict()) == spec
        from_config = AggregationWindowSpec.from_config(AggregationConfig(window_days=2))
        assert from_config.window_seconds == 2 * SECONDS_PER_DAY

    def test_plan_json_with_a_bucket_width_still_loads(self):
        """Plans written while the engine took a bucket width load as the
        same window when the width divides the hour, and are rejected
        otherwise — the set of accepted files is unchanged."""
        import json

        from repro.features.plan import FeaturePlan

        plan = FeaturePlan(aggregation=AggregationWindowSpec(window_seconds=36_000.0))
        data = json.loads(plan.to_json())
        assert data["aggregation"] == {"window_seconds": 36_000.0}
        for width, accepted in ((3600.0, True), (600.0, True), (7200.0, False), (0.0, False)):
            data["aggregation"]["bucket_seconds"] = width
            if accepted:
                assert FeaturePlan.from_json(json.dumps(data)) == plan
            else:
                with pytest.raises(FeatureError):
                    FeaturePlan.from_json(json.dumps(data))


# ---------------------------------------------------------------------------
# Boundary behaviour of the streaming engine
# ---------------------------------------------------------------------------


class TestSlidingWindowBoundaries:
    def test_empty_window(self):
        engine = SlidingWindowAggregator(AggregationConfig(window_days=1))
        row = engine.user_row("ghost")
        assert row["out_count"] == 0.0 and row["in_count"] == 0.0
        vector = engine.features_for(make_txn(0, 3, 4, "a", "b", 1.0))
        # Cold accounts are all-zero except the new-payer flag, exactly like
        # the batch path's treatment of unseen users.
        assert vector[:-1].tolist() == [0.0] * (len(AGGREGATION_FEATURE_NAMES) - 1)
        assert vector[-1] == 1.0

    def test_single_event(self):
        engine = SlidingWindowAggregator(AggregationConfig(window_days=1))
        engine.ingest(make_txn(0, 2, 23, "a", "b", 12.5))
        assert engine.user_row("a")["out_count"] == 1.0
        assert engine.user_row("a")["night_fraction"] == 1.0
        assert engine.user_row("b")["in_amount_max"] == 12.5
        assert engine.hbase_row("b")["payers"] == frozenset({"a"})

    def test_event_exactly_on_window_edge_falls_out(self):
        window = SECONDS_PER_DAY
        engine = SlidingWindowAggregator(AggregationConfig(window_seconds=window))
        first = make_txn(0, 1, 0, "a", "b", 4.0)
        engine.ingest(first)
        t0 = transaction_event_time(first)
        # One second before a full window has passed: still inside.
        assert engine.user_row("a", as_of=t0 + window - 1)["out_count"] == 1.0
        # Exactly one window later the event sits on the left-open edge.
        assert engine.user_row("a", as_of=t0 + window)["out_count"] == 0.0
        # After ingesting an event exactly on that edge, only it remains.
        engine.ingest(make_txn(1, 2, 0, "a", "b", 8.0))
        assert engine.user_row("a")["out_count"] == 1.0
        assert engine.user_row("a")["out_amount_sum"] == 8.0

    def test_events_exactly_on_bucket_edges(self):
        engine = SlidingWindowAggregator(
            AggregationConfig(window_seconds=2 * SECONDS_PER_HOUR)
        )
        for hour in (0, 1, 2, 3):
            engine.ingest(make_txn(hour, 0, hour, "a", "b", 1.0))
        # Window (1h, 3h] holds exactly the 02:00 and 03:00 buckets.
        assert engine.user_row("a")["out_count"] == 2.0

    def test_window_shorter_than_bucket(self):
        engine = SlidingWindowAggregator(
            AggregationConfig(window_seconds=1800.0)
        )
        engine.ingest(make_txn(0, 0, 3, "a", "b", 2.0))
        engine.ingest(make_txn(1, 0, 4, "a", "b", 4.0))
        # A 30-minute window at 04:00 sees only the 04:00 event.
        assert engine.user_row("a")["out_amount_sum"] == 4.0

    def test_whole_window_eviction(self):
        engine = SlidingWindowAggregator(AggregationConfig(window_days=14))
        for index in range(5):
            engine.ingest(make_txn(index, index, 12, "a", "b", 2.0))
        assert engine.user_row("a")["out_count"] == 5.0
        # 40 days of silence, then one unrelated event: every old bucket is
        # beyond the horizon.
        engine.ingest(make_txn(99, 45, 0, "c", "d", 1.0))
        assert engine.user_row("a")["out_count"] == 0.0
        assert engine.user_row("b")["in_count"] == 0.0
        # Touched accounts are evicted on ingest; prune() sweeps the rest.
        engine.prune()
        assert engine.account_ids() == ["c", "d"]

    def test_duplicate_accounts_accumulate_distincts_once(self):
        engine = SlidingWindowAggregator(AggregationConfig(window_days=7))
        for index in range(6):
            engine.ingest(make_txn(index, 1, index, "a", "b", 1.0))
        row = engine.hbase_row("a")
        assert row["out_count"] == 6.0
        assert row["distinct_payees"] == 1.0
        assert engine.hbase_row("b")["payers"] == frozenset({"a"})

    def test_late_event_within_lateness_is_counted(self):
        engine = SlidingWindowAggregator(
            AggregationConfig(window_days=1),
            allowed_lateness_seconds=float(SECONDS_PER_DAY),
        )
        engine.ingest(make_txn(0, 3, 12, "a", "b", 2.0))
        assert engine.ingest(make_txn(1, 3, 2, "c", "a", 4.0))  # 10 h late
        assert engine.user_row("a", as_of=engine.watermark)["in_count"] == 1.0
        # The late event is also visible to a (permitted) late query.
        late_as_of = transaction_event_time(make_txn(1, 3, 2, "c", "a", 4.0))
        assert engine.user_row("a", as_of=late_as_of)["in_count"] == 1.0

    def test_event_beyond_retention_is_dropped(self):
        engine = SlidingWindowAggregator(AggregationConfig(window_days=1))
        engine.ingest(make_txn(0, 10, 0, "a", "b", 2.0))
        before = engine.hbase_row("a")
        # Exactly at watermark - window: outside the left-open window, and
        # with zero allowed lateness, beyond retention.
        assert not engine.ingest(make_txn(1, 9, 0, "c", "a", 4.0))
        assert engine.late_events_dropped == 1
        assert engine.hbase_row("a") == before

    def test_arrival_order_invariance(self):
        rng = np.random.default_rng(5)
        events = random_stream(rng, num_events=300, num_accounts=20, num_days=6)
        span = 6 * SECONDS_PER_DAY
        in_order = SlidingWindowAggregator(
            AggregationConfig(window_days=2), allowed_lateness_seconds=span
        )
        in_order.ingest_many(sorted(events, key=transaction_event_time))
        shuffled = SlidingWindowAggregator(
            AggregationConfig(window_days=2), allowed_lateness_seconds=span
        )
        shuffled.ingest_many(rng.permutation(np.array(events, dtype=object)).tolist())
        # Output is a pure function of the event set, not the arrival order.
        assert in_order.snapshot_rows() == shuffled.snapshot_rows()

    def test_transform_matches_batch_transform(self):
        """Streaming and batch state assemble to the same twelve columns."""
        rng = np.random.default_rng(21)
        events = random_stream(rng, num_events=500, num_accounts=30, num_days=10)
        config = AggregationConfig(window_days=4)
        engine = SlidingWindowAggregator(config).replay(events)
        batch = TransactionAggregator(config).fit(events, as_of_time=engine.watermark)
        probes = random_stream(rng, num_events=40, num_accounts=30, num_days=10)
        assert engine.feature_names == batch.feature_names
        np.testing.assert_array_equal(
            assembled_aggregates(engine, probes),  # rows as of the watermark
            assembled_aggregates(batch, probes),
        )

    def test_rejects_bad_engine_configuration(self):
        with pytest.raises(FeatureError):
            SlidingWindowAggregator(AggregationConfig(), allowed_lateness_seconds=-1.0)

    def test_dormant_accounts_are_swept_automatically(self):
        engine = SlidingWindowAggregator(AggregationConfig(window_days=1))
        engine.prune_interval = 100
        engine.ingest(make_txn(0, 0, 0, "dormant", "other", 1.0))
        # 'dormant' never transacts again; the periodic sweep (not just the
        # touched-account eviction) must still release its buckets.
        for index in range(1, 120):
            engine.ingest(make_txn(index, 10 + index // 24, index % 24, "a", "b", 1.0))
        assert "dormant" not in engine.account_ids()


# ---------------------------------------------------------------------------
# Tentpole: property-based prefix parity (incremental == brute force)
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 6),  # day
            st.integers(0, 23),  # hour
            st.integers(0, 7),  # payer slot
            st.integers(0, 7),  # payee offset (shifted to avoid self-transfer)
            st.integers(1, 1 << 20),  # amount in 64ths
        ),
        min_size=1,
        max_size=80,
    ),
    window_seconds=st.sampled_from(
        [SECONDS_PER_HOUR, 7200, 54_321, SECONDS_PER_DAY, 3 * SECONDS_PER_DAY]
    ),
)
def test_prefix_parity_property(data, window_seconds):
    """At every prefix of an arbitrarily-ordered stream the incremental state
    equals a brute-force batch recompute — both at the watermark and at the
    event's own (possibly late) timestamp."""
    events = [
        make_txn(i, day, hour, f"u{payer}", f"u{(payer + 1 + offset) % 9}", raw / 64.0)
        for i, (day, hour, payer, offset, raw) in enumerate(data)
    ]
    span = float(7 * SECONDS_PER_DAY)
    config = AggregationConfig(window_seconds=window_seconds)
    engine = SlidingWindowAggregator(config, allowed_lateness_seconds=span)
    ingested = []
    for event in events:
        event_time = transaction_event_time(event)
        # Serve-before-ingest: the feature vector at the event's own time.
        served = engine.features_for(event)
        reference = TransactionAggregator(config).fit(ingested, as_of_time=event_time)
        expected = assembled_aggregates(reference, [event])[0]
        np.testing.assert_array_equal(served, expected)

        engine.ingest(event)
        ingested.append(event)
        expected_rows = brute_rows(
            config, ingested, engine.watermark, (event.payer_id, event.payee_id)
        )
        for user_id, expected_row in expected_rows.items():
            assert engine.hbase_row(user_id) == expected_row


class TestParityAcceptance:
    """Five random 2 000-event streams, checked at every prefix.

    Per prefix the freshly touched accounts are checked against a brute-force
    recompute of their merged sub-stream (identical to a full-stream fit for
    those accounts, since per-user aggregates only depend on the user's own
    events); every 250 events the *entire* account universe is checked
    against a full-stream brute-force fit.
    """

    WINDOWS = [
        AggregationConfig(window_seconds=SECONDS_PER_HOUR),
        AggregationConfig(window_seconds=SECONDS_PER_DAY),
        AggregationConfig(window_days=14),
        AggregationConfig(window_seconds=100_000),
        AggregationConfig(window_days=3),
    ]

    @pytest.mark.parametrize("stream_seed", range(5))
    def test_2k_stream_prefix_parity(self, stream_seed):
        rng = np.random.default_rng(1000 + stream_seed)
        events = random_stream(
            rng, num_events=2000, num_accounts=150, num_days=30, jitter_positions=40
        )
        config = self.WINDOWS[stream_seed]
        lateness = float(2 * SECONDS_PER_DAY)
        engine = SlidingWindowAggregator(config, allowed_lateness_seconds=lateness)
        universe = sorted({e.payer_id for e in events} | {e.payee_id for e in events})
        ingested = []
        for position, event in enumerate(events):
            engine.ingest(event)
            ingested.append(event)
            history = merged_account_history(ingested, event.payer_id, event.payee_id)
            reference = TransactionAggregator(config).fit(
                history, as_of_time=engine.watermark
            )
            assert engine.hbase_row(event.payer_id) == reference.hbase_row(event.payer_id)
            assert engine.hbase_row(event.payee_id) == reference.hbase_row(event.payee_id)
            if (position + 1) % 250 == 0:
                expected = brute_rows(config, ingested, engine.watermark, universe)
                for user_id in universe:
                    assert engine.hbase_row(user_id) == expected[user_id]
        assert engine.events_ingested == len(events)
        assert engine.late_events_dropped == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("stream_seed", range(5))
    def test_2k_stream_full_brute_force_soak(self, stream_seed):
        """Opt-in soak: the same five streams, but every prefix is checked
        with a full-stream brute-force fit (quadratic — not tier-1)."""
        rng = np.random.default_rng(1000 + stream_seed)
        events = random_stream(
            rng, num_events=2000, num_accounts=150, num_days=30, jitter_positions=40
        )
        config = self.WINDOWS[stream_seed]
        engine = SlidingWindowAggregator(
            config, allowed_lateness_seconds=float(2 * SECONDS_PER_DAY)
        )
        ingested = []
        for event in events:
            engine.ingest(event)
            ingested.append(event)
            reference = TransactionAggregator(config).fit(
                ingested, as_of_time=engine.watermark
            )
            assert engine.hbase_row(event.payer_id) == reference.hbase_row(event.payer_id)
            assert engine.hbase_row(event.payee_id) == reference.hbase_row(event.payee_id)


# ---------------------------------------------------------------------------
# Maintained window row == the same engine's full fold, bit for bit
# ---------------------------------------------------------------------------
#
# The parity tests above draw dyadic amounts, whose sums are exact in any
# order, and so cannot see a change of fold order.  These draw arbitrary
# floats and compare under ``float.hex``: a row read at the watermark (the
# maintained state) must carry exactly the bits ``_window_row`` (the full
# fold every other query takes) computes from the same buckets.


def full_fold(engine, user_id, as_of=None):
    """(row dict, payer set) of the engine's full fold at ``as_of`` (default:
    the watermark)."""
    cells, payers = engine._window_row(user_id, engine.watermark if as_of is None else as_of)
    return dict(zip(AGGREGATE_ROW_FIELDS, cells)), payers


def assert_maintained_is_full_fold(engine, user_id):
    served = engine.hbase_row(user_id)
    folded, payers = full_fold(engine, user_id)
    assert served.keys() == folded.keys() | {"payers"}
    for field, value in folded.items():
        assert served[field].hex() == value.hex(), (user_id, field)
    assert set(served["payers"]) == set(payers)


#: Hours added to the running watermark hour: mostly forward, some late.
_STEP_HOURS = [-40, -31, -6, -5, -2, -1, 0, 0, 0, 0, 1, 1, 2, 7, 30]
_FORTNIGHT = 14.0 * SECONDS_PER_DAY
_WINDOW_CHOICES = [
    3.0 * SECONDS_PER_HOUR,
    30.0 * SECONDS_PER_HOUR,
    54_321.0,
    2.0 * SECONDS_PER_DAY,
    _FORTNIGHT,
]
_MAINTAINED_STREAM = dict(
    steps=st.lists(
        st.tuples(
            st.sampled_from(_STEP_HOURS),
            st.integers(0, 6),  # payer slot
            st.integers(0, 6),  # payee offset (shifted to avoid self-transfer)
            st.floats(0.01, 1e6, allow_nan=False),  # amount: any float
        ),
        min_size=1,
        max_size=70,
    ),
    window_seconds=st.sampled_from(_WINDOW_CHOICES),
    lateness_hours=st.sampled_from([0, 5, 30]),
    prune_interval=st.sampled_from([7, 50, None]),
    read_seed=st.integers(0, 2**16),
)


def _maintained_equals_full_fold(steps, window_seconds, lateness_hours, prune_interval, read_seed):
    engine = SlidingWindowAggregator(
        AggregationConfig(window_seconds=window_seconds),
        allowed_lateness_seconds=lateness_hours * SECONDS_PER_HOUR,
    )
    if prune_interval is not None:
        engine.prune_interval = prune_interval
    reads = np.random.default_rng(read_seed)
    # A 14-day window needs a longer stream to move its edge.
    stretch = 9 if window_seconds == _FORTNIGHT else 1
    hour = 0
    for index, (step, payer, offset, amount) in enumerate(steps):
        slot = max(0, hour + step * stretch)
        hour = max(hour, slot)
        event = make_txn(
            index, slot // 24, slot % 24, f"u{payer}", f"u{(payer + 1 + offset) % 8}", amount
        )
        engine.ingest(event)
        # Read probability < 1: accounts are first read (materialised)
        # mid-stream, some with buckets already outside the window.
        for user_id in (event.payer_id, event.payee_id, f"u{reads.integers(0, 8)}"):
            if reads.random() < 0.6:
                assert_maintained_is_full_fold(engine, user_id)
    for user_id in engine.account_ids():
        assert_maintained_is_full_fold(engine, user_id)
    assert engine.stats()["buckets"] == sum(
        len(account.buckets) for account in engine._accounts.values()
    )


test_maintained_row_equals_full_fold_property = settings(max_examples=60, deadline=None)(
    given(**_MAINTAINED_STREAM)(_maintained_equals_full_fold)
)
test_maintained_row_equals_full_fold_soak = pytest.mark.slow(
    settings(max_examples=3000, deadline=None)(
        given(**_MAINTAINED_STREAM)(_maintained_equals_full_fold)
    )
)


class TestMaintainedRowEdges:
    """Named straddles of the maintained state's edges.  Amounts are thirds
    and tenths (fold order shows in the last bit); every check compares the
    watermark read with the same engine's full fold bit for bit *and* with a
    brute-force loop-engine fit of the ingested events."""

    CONFIG = AggregationConfig(window_seconds=6 * SECONDS_PER_HOUR)

    def _engine(self, **kwargs):
        return SlidingWindowAggregator(self.CONFIG, **kwargs), []

    @staticmethod
    def _ingest(engine, ingested, hour, payer, payee, amount):
        event = make_txn(len(ingested), hour // 24, hour % 24, payer, payee, amount)
        assert engine.ingest(event)
        ingested.append(event)
        return event

    def _check(self, engine, ingested, *user_ids):
        expected = brute_rows(self.CONFIG, ingested, engine.watermark, user_ids)
        for user_id in user_ids:
            assert_maintained_is_full_fold(engine, user_id)
            assert_rows_close(engine.hbase_row(user_id), expected[user_id])

    def test_late_event_into_a_closed_bucket_of_a_materialised_account(self):
        engine, ingested = self._engine(allowed_lateness_seconds=4 * SECONDS_PER_HOUR)
        for hour in range(10, 15):
            self._ingest(engine, ingested, hour, "a", "b", 0.1 * (hour - 8))
        self._check(engine, ingested, "a", "b")  # materialises both
        self._ingest(engine, ingested, 11, "a", "b", 1 / 3)  # closed, in window
        self._check(engine, ingested, "a", "b")
        self._ingest(engine, ingested, 11, "c", "b", 0.7)
        self._check(engine, ingested, "a", "b", "c")

    def test_eviction_between_two_reads_by_other_accounts_events(self):
        engine, ingested = self._engine()
        for hour in (0, 1, 2, 3):
            self._ingest(engine, ingested, hour, "a", "b", 0.1 + hour / 3)
        self._check(engine, ingested, "a", "b")
        # Only x/y transact: a and b are never touched, so never evicted
        # inline — the read itself must move their window edge.
        self._ingest(engine, ingested, 7, "x", "y", 0.3)
        self._check(engine, ingested, "a", "b")
        assert engine.hbase_row("a")["out_count"] == 2.0
        self._ingest(engine, ingested, 30, "x", "y", 0.3)
        self._check(engine, ingested, "a", "b")
        assert engine.hbase_row("a")["out_count"] == 0.0
        assert engine.hbase_row("b")["payers"] == frozenset()

    def test_counterparty_leaves_the_window_and_re_enters(self):
        engine, ingested = self._engine()
        self._ingest(engine, ingested, 0, "p", "m", 0.1)
        self._ingest(engine, ingested, 1, "q", "m", 0.2)
        self._check(engine, ingested, "m")
        assert engine.hbase_row("m")["payers"] == {"p", "q"}
        self._ingest(engine, ingested, 6, "q", "m", 0.3)  # p's only bucket expires
        self._check(engine, ingested, "m", "p", "q")
        assert engine.hbase_row("m")["payers"] == {"q"}
        self._ingest(engine, ingested, 8, "p", "m", 0.7)  # p is back
        self._check(engine, ingested, "m", "p", "q")
        assert engine.hbase_row("m")["payers"] == {"p", "q"}
        assert engine.hbase_row("m")["distinct_payers"] == 2.0

    def test_expiring_bucket_held_the_maximum(self):
        engine, ingested = self._engine()
        self._ingest(engine, ingested, 0, "a", "b", 900.1)
        self._ingest(engine, ingested, 2, "a", "b", 0.3)
        self._ingest(engine, ingested, 3, "a", "b", 7.7)
        self._check(engine, ingested, "a", "b")
        assert engine.hbase_row("a")["out_amount_max"] == 900.1
        self._ingest(engine, ingested, 6, "x", "y", 1.0)  # hour 0 leaves (0, 6]
        self._check(engine, ingested, "a", "b")
        assert engine.hbase_row("a")["out_amount_max"] == 7.7
        assert engine.hbase_row("b")["in_amount_max"] == 7.7

    def test_new_bucket_before_the_window_start_under_lateness(self):
        engine, ingested = self._engine(allowed_lateness_seconds=10 * SECONDS_PER_HOUR)
        for hour in (12, 18, 19, 20):
            self._ingest(engine, ingested, hour, "a", "b", hour / 7)
        self._check(engine, ingested, "a", "b")
        before = engine.hbase_row("a")
        # Retained (inside window + lateness) but outside (14, 20]: a new
        # bucket filed before, and one between, buckets the row does not see.
        self._ingest(engine, ingested, 11, "a", "b", 0.9)
        self._ingest(engine, ingested, 13, "a", "c", 0.9)
        self._check(engine, ingested, "a", "b", "c")
        assert engine.hbase_row("a") == before
        self._ingest(engine, ingested, 15, "a", "c", 1 / 3)  # new, inside
        self._check(engine, ingested, "a", "b", "c")
        assert engine.hbase_row("a")["out_count"] == 4.0

    def test_as_of_off_the_watermark_is_the_full_fold(self):
        engine, ingested = self._engine(allowed_lateness_seconds=8 * SECONDS_PER_HOUR)
        for hour in range(4, 16):
            self._ingest(engine, ingested, hour, "a", "b", 0.1 * hour)
        self._check(engine, ingested, "a", "b")
        self._ingest(engine, ingested, 12, "a", "b", 1 / 3)
        watermark = engine.watermark
        for as_of in (watermark - 3 * SECONDS_PER_HOUR, watermark + 2 * SECONDS_PER_HOUR):
            expected = brute_rows(self.CONFIG, ingested, as_of, ("a", "b"))
            for user_id in ("a", "b"):
                served = engine.hbase_row(user_id, as_of=as_of)
                folded, payers = full_fold(engine, user_id, as_of)
                assert served == {**folded, "payers": payers}
                assert_rows_close(served, expected[user_id])
        self._check(engine, ingested, "a", "b")  # and the maintained row is unmoved

    def test_replayed_engine_equals_the_live_one_after_mixed_reads(self):
        rng = np.random.default_rng(91)
        events = random_stream(
            rng, num_events=600, num_accounts=25, num_days=12, jitter_positions=30
        )
        events = [
            make_txn(i, e.day, e.hour, e.payer_id, e.payee_id, e.amount / 3)
            for i, e in enumerate(events)
        ]
        config = AggregationConfig(window_days=2)
        lateness = float(SECONDS_PER_DAY)
        live = SlidingWindowAggregator(config, allowed_lateness_seconds=lateness)
        for event in events:
            live.ingest(event)
            if rng.random() < 0.5:
                live.hbase_row(event.payer_id)
            # A read older than the watermark minus the lateness raises.
            if rng.random() < 0.2 and transaction_event_time(event) >= live.watermark - lateness:
                live.features_for(event)
        replayed = SlidingWindowAggregator(config, allowed_lateness_seconds=lateness)
        replayed.ingest_many(events)  # the WAL-rebuild path: nothing read on the way
        assert replayed.snapshot_rows() == live.snapshot_rows()
        assert replayed.stats() == live.stats()
        for user_id in live.account_ids():
            assert_maintained_is_full_fold(live, user_id)

    def test_features_for_at_the_watermark_equals_a_never_read_twin(self):
        rng = np.random.default_rng(92)
        events = [
            make_txn(i, e.day, e.hour, e.payer_id, e.payee_id, e.amount / 7)
            for i, e in enumerate(
                random_stream(rng, num_events=400, num_accounts=12, num_days=6)
            )
        ]
        config = AggregationConfig(window_seconds=24 * SECONDS_PER_HOUR)
        read = SlidingWindowAggregator(config)
        twin = SlidingWindowAggregator(config)  # ingests, is never asked
        at_watermark = 0
        for event in events:
            at_watermark += transaction_event_time(event) == read.watermark
            served = read.features_for(event)
            never_read = copy.deepcopy(twin)
            assert served.tobytes() == never_read.features_for(event).tobytes()
            read.ingest(event)
            twin.ingest(event)
        assert at_watermark > len(events) // 2
        assert all(account.live is None for account in twin._accounts.values())

    def test_a_copied_or_unpickled_engine_ingests_on_its_own(self):
        """Bucket sides share one empty counterparty set until their first
        event; in a deep copy or an unpickled engine they share a copy of it,
        which must not take keys either."""
        engine, ingested = self._engine()
        self._ingest(engine, ingested, 5, "a", "b", 0.1)  # a receives nothing, b pays nothing
        copies = [copy.deepcopy(engine), pickle.loads(pickle.dumps(engine))]
        later = [make_txn(1, 0, 5, "b", "c", 0.2), make_txn(2, 0, 6, "d", "e", 0.3)]
        fresh = SlidingWindowAggregator(self.CONFIG)
        fresh.ingest_many(ingested + later)
        for copied in copies:
            copied.ingest_many(later)
            assert snapshot_bits(copied, copied.watermark) == snapshot_bits(fresh, fresh.watermark)

    def test_returned_row_is_the_callers_and_the_payers_cell_is_shared(self):
        engine, ingested = self._engine()
        self._ingest(engine, ingested, 0, "p", "m", 0.1)
        self._ingest(engine, ingested, 1, "q", "m", 0.2)
        first = engine.hbase_row("m")
        expected = dict(first)
        first["in_count"] = -1.0
        first["payers"] = frozenset({"forged"})
        first["extra"] = 1.0
        assert engine.hbase_row("m") == expected
        self._ingest(engine, ingested, 2, "q", "m", 0.3)  # no payer enters or leaves
        second = engine.hbase_row("m")
        assert second["in_count"] == 3.0
        assert second["payers"] is expected["payers"]  # one cell, shared
        self._ingest(engine, ingested, 3, "r", "m", 0.3)
        assert engine.hbase_row("m")["payers"] == {"p", "q", "r"}
        assert expected["payers"] == {"p", "q"}  # the earlier row did not move


# ---------------------------------------------------------------------------
# Satellite: crash recovery — WAL/stream replay rebuilds identical state
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def _run_stream(self, events, config):
        from repro.serving.streaming import StreamingFeatureUpdater

        hbase = HBaseClient()
        hbase.create_feature_store()
        engine = SlidingWindowAggregator(config)
        updater = StreamingFeatureUpdater(engine, hbase)
        for event in events:
            updater.observe_transaction(event)
        return hbase, engine, updater

    def test_replayed_aggregator_is_bit_identical(self):
        rng = np.random.default_rng(77)
        events = random_stream(rng, num_events=800, num_accounts=60, num_days=20)
        config = AggregationConfig(window_days=7)
        _, live, _ = self._run_stream(events, config)

        recovered = SlidingWindowAggregator(config)
        recovered.ingest_many(events)  # same fixed-seed stream, same order
        assert recovered.watermark == live.watermark
        assert recovered.events_ingested == live.events_ingested
        live_rows = live.snapshot_rows()
        recovered_rows = recovered.snapshot_rows()
        assert recovered_rows == live_rows  # exact float equality, all accounts

    def test_wal_replay_restores_aggregate_rows(self):
        rng = np.random.default_rng(78)
        events = random_stream(rng, num_events=600, num_accounts=40, num_days=15)
        config = AggregationConfig(window_days=7)
        hbase, engine, _ = self._run_stream(events, config)

        # Crash: the MemStore is lost; a fresh region replays the WAL.
        recovered = HBaseTable(
            "titant_features", hbase.table("titant_features").column_families()
        )
        replayed = hbase.wal.replay(recovered, table_name="titant_features")
        assert replayed == hbase.wal_size()
        for user_id in engine.account_ids():
            assert recovered.get(user_id, AGGREGATES_FAMILY) == hbase.get(
                "titant_features", user_id, AGGREGATES_FAMILY
            )
        # Accounts written at the final watermark also match the live
        # in-memory engine bit-for-bit (rows of accounts last touched earlier
        # are that touch's snapshot — write-on-ingest semantics).
        final = events[-1]
        for user_id in (final.payer_id, final.payee_id):
            assert recovered.get(user_id, AGGREGATES_FAMILY) == engine.hbase_row(user_id)


# ---------------------------------------------------------------------------
# Satellite: online freshness through HBase write-through + RowCache
# ---------------------------------------------------------------------------


@pytest.fixture()
def streaming_stack(world, dataset):
    """A served model whose plan includes the aggregation block, backed by an
    HBase store with a long-TTL row cache and a streaming updater."""
    from repro.models.gbdt import GradientBoostingClassifier
    from repro.serving import (
        AlipayServer,
        ModelServer,
        ModelServerConfig,
        StreamingFeatureUpdater,
    )

    # A window longer than the whole world (30 days of data): nothing ages
    # out mid-test, so freshness deltas below are exact (+1 per ingest).
    config = AggregationConfig(window_days=40)
    test_day = dataset.spec.test_day
    history = dataset.train_transactions

    batch_aggregator = TransactionAggregator(config).fit(history, as_of_day=test_day)
    assembler = FeatureAssembler(world.profiles_by_id, aggregator=batch_aggregator)
    train = assembler.assemble(dataset.train_transactions[:400])
    model = GradientBoostingClassifier(num_trees=5, seed=3).fit(train.values, train.labels)

    hbase = HBaseClient(row_cache_ttl_s=600.0)  # stale for 10 min unless invalidated
    hbase.create_feature_store()
    for profile in world.profiles:
        hbase.put(
            "titant_features",
            profile.user_id,
            BASIC_FEATURES_FAMILY,
            {
                "age": profile.age,
                "gender": profile.gender.value,
                "home_city": profile.home_city,
                "account_age_days": profile.account_age_days,
                "kyc_level": profile.kyc_level,
                "is_merchant": profile.is_merchant,
                "device_count": profile.device_count,
                "community": profile.community,
            },
            version=test_day,
        )
    hbase.bulk_load(
        "titant_features",
        AGGREGATES_FAMILY,
        batch_aggregator.snapshot_rows(),
        version=test_day,
    )

    engine = SlidingWindowAggregator(config).replay(history)
    updater = StreamingFeatureUpdater(engine, hbase, start_version=test_day)
    server = ModelServer(hbase, ModelServerConfig())
    server.load_model(model, version="stream_v1", threshold=0.5, plan=assembler.plan)
    alipay = AlipayServer(server, feature_updater=updater)
    return hbase, server, alipay, updater, assembler


class TestOnlineFreshness:
    AGG_START = len(BASIC_FEATURE_NAMES)

    def _column(self, name):
        return self.AGG_START + AGGREGATION_FEATURE_NAMES.index(name)

    def test_next_request_sees_ingested_transaction(self, streaming_stack, dataset):
        from repro.serving import TransactionRequest

        hbase, server, alipay, updater, _ = streaming_stack
        txn = dataset.test_transactions[0]
        probe = make_txn("probe", txn.day, min(txn.hour + 1, 23), txn.payer_id, txn.payee_id, 5.0)

        before = server.plan_executor.assemble_single(probe)
        # Read again: the second read must come from the row cache (long TTL).
        hits_before = hbase.row_cache_stats()["hits"]
        server.plan_executor.assemble_single(probe)
        assert hbase.row_cache_stats()["hits"] > hits_before

        alipay.process(TransactionRequest.from_transaction(txn), was_fraud=txn.is_fraud)

        after = server.plan_executor.assemble_single(probe)
        out_count = self._column("agg_payer_out_count")
        out_sum = self._column("agg_payer_out_amount_sum")
        in_count = self._column("agg_payee_in_count")
        assert after[out_count] == before[out_count] + 1.0
        assert after[out_sum] == pytest.approx(before[out_sum] + txn.amount, rel=1e-9)
        assert after[in_count] == before[in_count] + 1.0
        # The write-through invalidated the cached rows: no stale serve.
        assert updater.events_observed == 1

    def test_fresh_online_vector_matches_offline_recompute(self, streaming_stack, world, dataset):
        from repro.features.plan import FeaturePlanExecutor, InMemoryFeatureSource
        from repro.serving import TransactionRequest

        _, server, alipay, updater, assembler = streaming_stack
        for txn in dataset.test_transactions[:25]:
            alipay.process(TransactionRequest.from_transaction(txn), was_fraud=txn.is_fraud)
        probe = dataset.test_transactions[30]
        online = server.plan_executor.assemble_single(probe)
        offline = FeaturePlanExecutor(
            assembler.plan,
            InMemoryFeatureSource(world.profiles_by_id, aggregates=updater.aggregator),
        ).assemble_single(probe)
        np.testing.assert_array_equal(online, offline)

    def test_refresh_re_anchors_idle_account_rows(self):
        """A sub-day window decays between touches: without a refresh the
        stored row keeps the stale counts, with one it is re-anchored — even
        when the engine has auto-pruned the idle account out of its state
        entirely (prune_interval=3 forces that mid-stream)."""
        from repro.serving import StreamingFeatureUpdater

        for interval, expected_count in ((None, 1.0), (float(SECONDS_PER_HOUR), 0.0)):
            hbase = HBaseClient()
            hbase.create_feature_store()
            engine = SlidingWindowAggregator(
                AggregationConfig(window_seconds=SECONDS_PER_HOUR)
            )
            engine.prune_interval = 3
            updater = StreamingFeatureUpdater(
                engine, hbase, refresh_interval_seconds=interval
            )
            updater.observe_transaction(make_txn(0, 0, 9, "idle", "x", 5.0))
            # Six hours of unrelated traffic: 'idle' never transacts again.
            for hour in range(10, 16):
                updater.observe_transaction(make_txn(hour, 0, hour, "a", "b", 1.0))
            assert "idle" not in engine.account_ids()  # pruned away
            row = hbase.get("titant_features", "idle", AGGREGATES_FAMILY)
            assert row["out_count"] == expected_count
            if interval is not None:
                assert updater.refreshes >= 1

    def test_process_batch_keeps_later_chunks_fresh(self, streaming_stack, dataset):
        from repro.serving import TransactionRequest

        _, server, alipay, updater, _ = streaming_stack
        requests = [
            TransactionRequest.from_transaction(txn)
            for txn in dataset.test_transactions[:8]
        ]
        alipay.process_batch(requests)
        assert updater.events_observed == 8
        probe = dataset.test_transactions[0]
        row = updater.aggregator.user_row(probe.payer_id, as_of=updater.aggregator.watermark)
        assert row["out_count"] >= 1.0


# ---------------------------------------------------------------------------
# Training-time features must carry online (score-then-ingest) semantics
# ---------------------------------------------------------------------------


class TestPointInTimeTrainingFeatures:
    def test_aggregate_row_layout_is_the_shared_contract(self):
        from repro.features.aggregation import AGGREGATE_ROW_FIELDS

        batch_row = TransactionAggregator().fit([]).user_row("x")
        streaming_row = SlidingWindowAggregator(AggregationConfig()).user_row("x")
        assert list(batch_row) == AGGREGATE_ROW_FIELDS
        assert list(streaming_row) == AGGREGATE_ROW_FIELDS

    def test_first_transfer_trains_as_new_payer(self):
        """Regression: the naive fit-then-transform construction let a
        training transaction see itself, so first-time transfers trained
        with new_payer_fraction = 0 while serving saw 1 — inverted skew."""
        source = PointInTimeAggregationSource(AggregationConfig(window_days=14), [])
        batch = [
            make_txn(0, 1, 10, "A", "B", 5.0),
            make_txn(1, 1, 12, "A", "B", 7.0),
        ]
        block = source.aggregation_block(batch)
        new_payer = AGGREGATION_FEATURE_NAMES.index("agg_payee_new_payer_fraction")
        out_count = AGGREGATION_FEATURE_NAMES.index("agg_payer_out_count")
        assert block[0][new_payer] == 1.0  # A is new to B at serve time
        assert block[1][new_payer] == 0.0  # second transfer: A already known
        assert block[0][out_count] == 0.0  # a row never includes its own txn
        assert block[1][out_count] == 1.0

    def test_block_matches_online_stream_replay(self):
        """The offline block equals serving the same transactions inside one
        event-time replay of the full stream (the AlipayServer contract) —
        including when the batch is an arbitrary subset of the history."""
        rng = np.random.default_rng(42)
        events = random_stream(rng, num_events=400, num_accounts=30, num_days=10)
        config = AggregationConfig(window_days=3)
        batch = events[150:220]  # a mid-stream slice of the history itself
        block = PointInTimeAggregationSource(config, events).aggregation_block(batch)

        engine = SlidingWindowAggregator(config)
        wanted = {txn.transaction_id: i for i, txn in enumerate(batch)}
        expected = np.zeros_like(block)
        for event in sorted(
            events, key=lambda t: (transaction_event_time(t), t.transaction_id)
        ):
            position = wanted.get(event.transaction_id)
            if position is not None:
                expected[position] = engine.features_for(event)
            engine.ingest(event)
        np.testing.assert_array_equal(block, expected)

    def test_duplicate_batch_rows_each_see_their_predecessors(self):
        """Regression: duplicate transaction ids in a batch (oversampled
        training rows) must not produce zero rows or self-inclusive counts."""
        source = PointInTimeAggregationSource(AggregationConfig(window_days=14), [])
        txn = make_txn(7, 2, 10, "A", "B", 4.0)
        block = source.aggregation_block([txn, txn, txn])
        out_count = AGGREGATION_FEATURE_NAMES.index("agg_payer_out_count")
        assert [row[out_count] for row in block] == [0.0, 1.0, 2.0]

    def test_block_memoized_per_batch(self):
        rng = np.random.default_rng(13)
        events = random_stream(rng, num_events=120, num_accounts=10, num_days=5)
        source = PointInTimeAggregationSource(AggregationConfig(window_days=3), events[:80])
        batch = events[80:]
        first = source.aggregation_block(batch)
        second = source.aggregation_block(batch)
        np.testing.assert_array_equal(first, second)
        assert first is not second  # callers get their own copy

    def test_shared_preparation_rebuilds_on_window_change(self, world, dataset, network):
        from repro.core.pipeline import OfflineTrainingPipeline, SlicePreparation

        preparation = SlicePreparation(dataset=dataset, network=network)
        fortnight = OfflineTrainingPipeline(
            world.profiles_by_id, aggregation=AggregationConfig(window_days=14)
        )
        hourly = OfflineTrainingPipeline(
            world.profiles_by_id, aggregation=AggregationConfig(window_seconds=SECONDS_PER_HOUR)
        )
        assert fortnight.aggregation_source_for(preparation).window_spec.window_seconds == 14 * SECONDS_PER_DAY
        # A different pipeline sharing the same (expensive) preparation must
        # not silently reuse the first pipeline's window.
        assert hourly.aggregation_source_for(preparation).window_spec.window_seconds == SECONDS_PER_HOUR
        assert fortnight.aggregator_for(preparation).config.window_days == 14
        assert hourly.aggregator_for(preparation).config.window_seconds == SECONDS_PER_HOUR

    def test_replay_is_permutation_independent(self):
        rng = np.random.default_rng(8)
        events = random_stream(rng, num_events=250, num_accounts=15, num_days=4)
        config = AggregationConfig(window_days=4)
        sorted_in = SlidingWindowAggregator(config).replay(events)
        shuffled_in = SlidingWindowAggregator(config).replay(
            rng.permutation(np.array(events, dtype=object)).tolist()
        )
        assert sorted_in.snapshot_rows() == shuffled_in.snapshot_rows()

    def test_pipeline_training_matrix_is_point_in_time(self, world, dataset, network):
        from repro.core.config import FeatureSetName
        from repro.core.pipeline import OfflineTrainingPipeline, SlicePreparation

        config = AggregationConfig(window_days=14)
        pipeline = OfflineTrainingPipeline(world.profiles_by_id, aggregation=config)
        preparation = SlicePreparation(dataset=dataset, network=network)
        assembler = pipeline.assembler_for(preparation, FeatureSetName.BASIC)
        probes = dataset.train_transactions[:40]
        matrix = assembler.assemble(probes)
        block = matrix.values[:, len(BASIC_FEATURE_NAMES):len(BASIC_FEATURE_NAMES) + 12]
        expected = pipeline.aggregation_source_for(preparation).aggregation_block(probes)
        np.testing.assert_array_equal(block, expected)


# ---------------------------------------------------------------------------
# Tentpole: the pipeline exports one windowing definition for both worlds
# ---------------------------------------------------------------------------


class TestPipelineWindowExport:
    @pytest.fixture()
    def trained(self, world, dataset, network):
        from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
        from repro.core.pipeline import OfflineTrainingPipeline, SlicePreparation

        pipeline = OfflineTrainingPipeline(
            world.profiles_by_id, aggregation=AggregationConfig(window_days=14)
        )
        preparation = SlicePreparation(dataset=dataset, network=network)
        configuration = Table1Configuration(1, DetectorName.GBDT, FeatureSetName.BASIC)
        bundle = pipeline.train(preparation, configuration)
        return pipeline, preparation, bundle

    def test_plan_carries_window_spec(self, trained):
        from repro.features.plan import FeaturePlan

        _, _, bundle = trained
        assert bundle.plan.aggregation is not None
        assert bundle.plan.aggregation.window_seconds == 14 * SECONDS_PER_DAY
        names = bundle.plan.feature_names
        assert names[len(BASIC_FEATURE_NAMES):len(BASIC_FEATURE_NAMES) + 12] == AGGREGATION_FEATURE_NAMES
        restored = FeaturePlan.from_json(bundle.plan.to_json())
        assert restored == bundle.plan
        assert restored.aggregation == bundle.plan.aggregation

    def test_legacy_plan_json_still_loads(self):
        from repro.features.plan import FeaturePlan

        legacy = FeaturePlan.from_json(
            '{"embedding_blocks": [], "embedding_side": "both"}'
        )
        assert legacy.aggregation is None
        assert legacy.num_features == len(BASIC_FEATURE_NAMES)

    def test_deploy_hands_back_seeded_updater_at_batch_state(self, trained, dataset):
        from repro.serving import ModelServer

        pipeline, preparation, bundle = trained
        hbase = HBaseClient()
        server = ModelServer(hbase)
        frozen_hbase = HBaseClient()
        assert (
            pipeline.deploy_fleet(
                bundle, preparation, frozen_hbase, [ModelServer(frozen_hbase)],
                streaming_updater=False,
            )
            is None
        )
        updater = pipeline.deploy_fleet(bundle, preparation, hbase, [server])
        assert updater is not None

        # Handoff parity: the streaming engine, seeded by replaying the same
        # history, reproduces the batch aggregator's published rows exactly
        # when queried at the batch as-of instant.
        batch = pipeline.aggregator_for(preparation)
        handoff = dataset.spec.test_day * SECONDS_PER_DAY - 1
        for user_id in batch.account_ids():
            assert_rows_close(
                updater.aggregator.hbase_row(user_id, as_of=handoff),
                batch.hbase_row(user_id),
            )

    def test_served_aggregates_flow_end_to_end(self, trained, dataset):
        from repro.serving import AlipayServer, ModelServer

        pipeline, preparation, bundle = trained
        hbase = HBaseClient()
        server = ModelServer(hbase)
        updater = pipeline.deploy_fleet(bundle, preparation, hbase, [server])
        alipay = AlipayServer(server, feature_updater=updater)
        report = alipay.replay_transactions(dataset.test_transactions[:60])
        assert report.total == 60
        assert updater.events_observed == 60

    def test_sub_day_window_enables_refresh_by_default(self, world, dataset, network):
        from repro.core.pipeline import OfflineTrainingPipeline, SlicePreparation

        preparation = SlicePreparation(dataset=dataset, network=network)
        hourly = OfflineTrainingPipeline(
            world.profiles_by_id, aggregation=AggregationConfig(window_seconds=SECONDS_PER_HOUR)
        )
        updater = hourly.build_streaming_updater(preparation, HBaseClient())
        assert updater.refresh_interval_seconds == SECONDS_PER_HOUR
        daily = OfflineTrainingPipeline(
            world.profiles_by_id, aggregation=AggregationConfig(window_days=14)
        )
        assert (
            daily.build_streaming_updater(preparation, HBaseClient()).refresh_interval_seconds
            is None
        )

    def test_wal_cap_bounds_streaming_write_through(self):
        hbase = HBaseClient(wal_max_entries=100)
        hbase.create_feature_store()
        from repro.serving import StreamingFeatureUpdater

        updater = StreamingFeatureUpdater(
            SlidingWindowAggregator(AggregationConfig(window_days=1)), hbase
        )
        for index in range(200):
            updater.observe_transaction(make_txn(index, 0, index % 24, "a", "b", 1.0))
        assert hbase.wal_size() == 100

    def test_custom_publish_version_does_not_freeze_streaming(self, trained):
        """Regression: streaming write versions must supersede whatever
        version publish_features bulk-loaded, or 'latest' reads keep serving
        the frozen snapshot forever."""
        pipeline, preparation, _ = trained
        hbase = HBaseClient()
        pipeline.publish_features(preparation, hbase, version=100)
        updater = pipeline.build_streaming_updater(preparation, hbase)
        assert updater.current_version >= 100
        updater.observe_transaction(make_txn("fresh", 30, 1, "A", "B", 3.0))
        row = hbase.get("titant_features", "A", AGGREGATES_FAMILY)
        assert row["out_count"] == updater.aggregator.user_row("A")["out_count"]

    def test_experiment_serving_stack_attaches_updater(self, world):
        from repro.core import ExperimentConfig, ExperimentRunner, ModelHyperparameters
        from repro.core.config import DetectorName, FeatureSetName, Table1Configuration

        configuration = Table1Configuration(1, DetectorName.GBDT, FeatureSetName.BASIC)
        runner = ExperimentRunner(
            world,
            ExperimentConfig(
                num_datasets=1,
                network_days=18,
                train_days=6,
                hyperparameters=ModelHyperparameters.laptop_scale(),
                configurations=[configuration],
                aggregation=AggregationConfig(window_days=14),
            ),
        )
        dataset = runner.datasets()[0]
        preparation = runner.preparation_for(dataset)
        _, _, _, alipay = runner.build_serving_stack(preparation, configuration)
        assert alipay.feature_updater is not None
        alipay.replay_transactions(dataset.test_transactions[:20])
        assert alipay.feature_updater.events_observed == 20

    def test_replay_is_event_time_ordered(self, trained, dataset):
        from repro.serving import AlipayServer, ModelServer

        pipeline, preparation, bundle = trained
        transactions = list(dataset.test_transactions[:80])
        shuffled = list(np.random.default_rng(3).permutation(np.array(transactions, dtype=object)))

        states = []
        for replay_input in (transactions, shuffled):
            hbase = HBaseClient()
            server = ModelServer(hbase)
            updater = pipeline.deploy_fleet(bundle, preparation, hbase, [server])
            AlipayServer(server, feature_updater=updater).replay_transactions(replay_input)
            states.append(updater.aggregator.snapshot_rows())
        assert states[0] == states[1]


# ---------------------------------------------------------------------------
# One replay: the training pass's engine seeds the streaming updater, reads
# past the watermark stay on the maintained rows, older reads raise
# ---------------------------------------------------------------------------


def row_bits(row):
    """An hbase row with every float as its exact bits."""
    return {
        key: (value.hex() if isinstance(value, float) else value) for key, value in row.items()
    }


def snapshot_bits(engine, as_of):
    return {user_id: row_bits(row) for user_id, row in engine.snapshot_rows(as_of=as_of).items()}


def test_query_older_than_the_lateness_bound_raises():
    """Regression: with lateness 0 the 09:00 ingest evicts a's 01:00 and 03:00
    buckets, and a query at 03:00 used to answer 0.0 (the truth is 2.0)."""
    engine = SlidingWindowAggregator(AggregationConfig(window_seconds=6 * SECONDS_PER_HOUR))
    for index, hour in enumerate((1, 3, 9)):
        engine.ingest(make_txn(index, 0, hour, "a", "b", 1.0))
    with pytest.raises(FeatureError):
        engine.user_row("a", as_of=3 * SECONDS_PER_HOUR)
    with pytest.raises(FeatureError):
        engine.features_for(make_txn(9, 0, 3, "a", "b", 1.0))
    assert engine.user_row("a", as_of=9 * SECONDS_PER_HOUR)["out_count"] == 1.0
    late = SlidingWindowAggregator(
        AggregationConfig(window_seconds=6 * SECONDS_PER_HOUR),
        allowed_lateness_seconds=6 * SECONDS_PER_HOUR,
    )
    for index, hour in enumerate((1, 3, 9)):
        late.ingest(make_txn(index, 0, hour, "a", "b", 1.0))
    assert late.user_row("a", as_of=3 * SECONDS_PER_HOUR)["out_count"] == 2.0


def _stream(steps, *, hour=0, prefix=""):
    """One event per step, ``step`` hours after the latest so far (a negative
    step is a late event), with arbitrary float amounts: fold order shows."""
    events = []
    for index, (step, payer, offset, amount) in enumerate(steps):
        slot = max(0, hour + step)
        hour = max(hour, slot)
        payee = f"u{(payer + 1 + offset) % 8}"
        events.append(make_txn(f"{prefix}{index}", slot // 24, slot % 24, f"u{payer}", payee, amount))
    return events


_PAST_WATERMARK = dict(
    steps=_MAINTAINED_STREAM["steps"],
    window_seconds=st.sampled_from(_WINDOW_CHOICES[:4]),
    lateness_hours=st.sampled_from([0, 5]),
    read_seed=st.integers(0, 2**16),
    offsets=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
)


def _past_watermark_read_is_the_full_fold(steps, window_seconds, lateness_hours, read_seed, offsets):
    engine = SlidingWindowAggregator(
        AggregationConfig(window_seconds=window_seconds),
        allowed_lateness_seconds=lateness_hours * SECONDS_PER_HOUR,
    )
    reads = np.random.default_rng(read_seed)
    for event in _stream(steps):
        engine.ingest(event)
        if reads.random() < 0.5:  # materialise some accounts mid-stream
            engine.hbase_row(f"u{reads.integers(0, 8)}")
    watermark = engine.watermark
    # Drawn offsets in [0, 2W], plus every as_of whose window edge lands
    # exactly on a bucket (the bucket leaves at that instant).
    candidates = {watermark + fraction * window_seconds for fraction in offsets}
    for account in engine._accounts.values():
        candidates.update(t + window_seconds for t in account.times if t + window_seconds >= watermark)
    for as_of in sorted(candidates):
        for user_id in [*engine.account_ids(), "cold"]:
            folded, payers = full_fold(engine, user_id, as_of)
            served = engine.hbase_row(user_id, as_of=as_of)
            assert row_bits(served) == row_bits({**folded, "payers": payers})
    for user_id in engine.account_ids():  # the maintained rows did not move
        assert_maintained_is_full_fold(engine, user_id)


test_past_watermark_read_is_the_full_fold_property = settings(max_examples=60, deadline=None)(
    given(**_PAST_WATERMARK)(_past_watermark_read_is_the_full_fold)
)
test_past_watermark_read_is_the_full_fold_soak = pytest.mark.slow(
    settings(max_examples=1000, deadline=None)(
        given(**_PAST_WATERMARK)(_past_watermark_read_is_the_full_fold)
    )
)


_STEP = st.tuples(
    st.sampled_from([0, 0, 1, 1, 2, 5, 13]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.floats(0.01, 1e6, allow_nan=False),
)
_ADOPTION = dict(
    steps=st.lists(_STEP, min_size=1, max_size=60),
    more=st.lists(_STEP, min_size=0, max_size=25),
    window_seconds=st.sampled_from(_WINDOW_CHOICES[:4]),
    batch_seed=st.integers(0, 2**16),
    offset=st.floats(0.0, 2.0),
)


def _adopted_engine_equals_a_fresh_replay(steps, more, window_seconds, batch_seed, offset):
    config = AggregationConfig(window_seconds=window_seconds)
    history = _stream(steps)
    rng = np.random.default_rng(batch_seed)
    batch = [event for event in history if rng.random() < 0.6]  # the training window
    source = PointInTimeAggregationSource(config, history)
    source.aggregation_block(batch)
    kept = source._engine
    assert kept is not None
    adopted = source.seeded_engine()
    assert adopted is kept and source._engine is None  # ownership moved
    fresh = SlidingWindowAggregator(config)
    fresh.ingest_many(sorted(history, key=lambda t: (transaction_event_time(t), t.transaction_id)))
    assert adopted.stats() == fresh.stats()
    as_of = adopted.watermark + offset * window_seconds  # the publish instant
    assert snapshot_bits(adopted, as_of) == snapshot_bits(fresh, as_of)
    # Write-through after more events, reads interleaved on the adopted side.
    last_hour = history[-1].day * 24 + history[-1].hour
    for event in _stream(more, hour=last_hour, prefix="m"):
        adopted.ingest(event)
        fresh.ingest(event)
        if rng.random() < 0.5:
            adopted.hbase_row(f"u{rng.integers(0, 8)}", as_of=adopted.watermark + rng.random() * window_seconds)
        for user_id in (event.payer_id, event.payee_id):
            assert row_bits(adopted.hbase_row(user_id)) == row_bits(fresh.hbase_row(user_id))
    assert snapshot_bits(adopted, adopted.watermark) == snapshot_bits(fresh, fresh.watermark)


test_adopted_engine_equals_a_fresh_replay_property = settings(max_examples=50, deadline=None)(
    given(**_ADOPTION)(_adopted_engine_equals_a_fresh_replay)
)
test_adopted_engine_equals_a_fresh_replay_soak = pytest.mark.slow(
    settings(max_examples=1000, deadline=None)(
        given(**_ADOPTION)(_adopted_engine_equals_a_fresh_replay)
    )
)


class TestEngineAdoption:
    CONFIG = AggregationConfig(window_days=2)

    @pytest.fixture()
    def history(self):
        rng = np.random.default_rng(17)
        return [
            make_txn(i, e.day, e.hour, e.payer_id, e.payee_id, e.amount / 3)
            for i, e in enumerate(random_stream(rng, num_events=300, num_accounts=20, num_days=6))
        ]

    def _fresh(self, history):
        return SlidingWindowAggregator(self.CONFIG).replay(history)

    def test_the_training_window_is_kept(self, history):
        source = PointInTimeAggregationSource(self.CONFIG, history)
        source.aggregation_block(history[100:250])
        assert source._engine is not None

    @pytest.mark.parametrize("case", ["duplicate id", "test-day record", "changed content"])
    def test_no_adoption_unless_the_stream_was_the_history(self, history, case):
        batch = list(history[100:250])
        if case == "duplicate id":
            batch.append(batch[0])
        elif case == "test-day record":
            batch.append(make_txn("new", 7, 1, "u001", "u002", 1.0))
        else:
            batch[5] = dataclasses.replace(batch[5], amount=batch[5].amount + 1.0)
        source = PointInTimeAggregationSource(self.CONFIG, history)
        source.aggregation_block(batch)
        assert source._engine is None
        seeded = source.seeded_engine()  # a replay of the history alone
        assert seeded.stats() == self._fresh(history).stats()
        assert snapshot_bits(seeded, seeded.watermark) == snapshot_bits(
            self._fresh(history), seeded.watermark
        )

    def test_a_second_seed_replays_and_release_drops(self, history):
        source = PointInTimeAggregationSource(self.CONFIG, history)
        source.aggregation_block(history)
        first, second = source.seeded_engine(), source.seeded_engine()
        assert first is not second
        assert snapshot_bits(first, first.watermark) == snapshot_bits(second, second.watermark)
        source.aggregation_block(history[:50] + history[60:])  # uncached: kept again
        assert source._engine is not None
        source.release_engine()
        assert source._engine is None


class TestDeployTakesTheTrainingEngine:
    @pytest.fixture()
    def trained(self, world, dataset, network):
        from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
        from repro.core.pipeline import OfflineTrainingPipeline, SlicePreparation

        pipeline = OfflineTrainingPipeline(
            world.profiles_by_id, aggregation=AggregationConfig(window_days=14)
        )
        preparation = SlicePreparation(dataset=dataset, network=network)
        configuration = Table1Configuration(1, DetectorName.GBDT, FeatureSetName.BASIC)
        return pipeline, preparation, pipeline.train(preparation, configuration)

    def test_adopted_and_replayed_deploys_publish_the_same_rows(self, trained, dataset):
        from repro.serving import ModelServer

        pipeline, preparation, bundle = trained
        kept = preparation.aggregation_source._engine
        assert kept is not None
        deployed = []
        for _ in range(2):  # the first adopts the kept engine, the second replays
            hbase = HBaseClient()
            updater = pipeline.deploy_fleet(bundle, preparation, hbase, [ModelServer(hbase)])
            deployed.append((hbase, updater))
            assert preparation.aggregation_source._engine is None
        (adopted_hbase, adopted), (replayed_hbase, replayed) = deployed
        assert adopted.aggregator is kept
        assert replayed.aggregator is not kept
        accounts = adopted.aggregator.account_ids()
        assert accounts and accounts == replayed.aggregator.account_ids()
        for user_id in accounts:
            assert row_bits(
                adopted_hbase.get("titant_features", user_id, AGGREGATES_FAMILY)
            ) == row_bits(replayed_hbase.get("titant_features", user_id, AGGREGATES_FAMILY))
        # Two deploys never share an engine: online ingest on one leaves the
        # other where it was.
        before = snapshot_bits(replayed.aggregator, replayed.aggregator.watermark)
        for txn in dataset.test_transactions[:30]:
            adopted.observe_transaction(txn)
        assert snapshot_bits(replayed.aggregator, replayed.aggregator.watermark) == before

    def test_a_deploy_without_an_updater_releases_the_engine(self, trained):
        from repro.serving import ModelServer

        pipeline, preparation, bundle = trained
        assert preparation.aggregation_source._engine is not None
        hbase = HBaseClient()
        updater = pipeline.deploy_fleet(
            bundle, preparation, hbase, [ModelServer(hbase)], streaming_updater=False
        )
        assert updater is None
        assert preparation.aggregation_source._engine is None



# ---------------------------------------------------------------------------
# Spliced window cells == aggregation_vector over hbase_row dicts, bit for bit
# ---------------------------------------------------------------------------
#
# ``features_for`` and the point-in-time block splice the engine's cells
# without building a row dict; the oracle is the dict path every other
# producer takes.  Amounts are any finite float (compared under
# ``float.hex``), and the order-free columns — counts, maxima, distinct
# counterparties, the night and new-payer fractions — are also checked
# against a loop-engine fit of the ingested events, so a defect both paths
# share cannot hide.  Accounts u1..u3 pay and receive, often in one hour.

_ORDER_FREE_COLUMNS = [0, 3, 4, 5, 6, 9, 10, 11]

_SPLICE = dict(
    steps=st.lists(
        st.tuples(
            st.sampled_from([-6, -1, 0, 0, 0, 1, 2, 9]),
            st.integers(0, 3),  # payer u0..u3
            st.integers(0, 2),  # payee u1..u6
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=40,
    ),
    window_seconds=st.sampled_from(_WINDOW_CHOICES[:4]),
    lateness_hours=st.sampled_from([0, 5]),
    read_seed=st.integers(0, 2**16),
)


def vector_bits(vector):
    return [float(value).hex() for value in vector]


def assert_is_the_row_vector(served, engine, txn, as_of, ingested):
    """``served`` == aggregation_vector over the engine's two hbase rows (bits),
    and its order-free columns == a loop fit of the ingested events."""
    expected = aggregation_vector(
        engine.hbase_row(txn.payer_id, as_of=as_of),
        engine.hbase_row(txn.payee_id, as_of=as_of),
        txn.payer_id,
    )
    assert vector_bits(served) == vector_bits(expected)
    loop = TransactionAggregator(AggregationConfig(window_seconds=engine.window_seconds))
    loop.fit(ingested, as_of_time=as_of)
    brute = aggregation_vector(
        loop.hbase_row(txn.payer_id), loop.hbase_row(txn.payee_id), txn.payer_id
    )
    assert [served[i] for i in _ORDER_FREE_COLUMNS] == [brute[i] for i in _ORDER_FREE_COLUMNS]


def _spliced_cells_are_the_row_vector(steps, window_seconds, lateness_hours, read_seed):
    lateness = lateness_hours * SECONDS_PER_HOUR
    engine = SlidingWindowAggregator(
        AggregationConfig(window_seconds=window_seconds), allowed_lateness_seconds=lateness
    )
    reads = np.random.default_rng(read_seed)
    ingested = []
    for txn in _stream(steps):
        watermark = engine.watermark
        at_event = transaction_event_time(txn)
        if at_event < watermark - lateness:  # a late event, below the bound
            with pytest.raises(FeatureError):
                engine.features_for(txn)
        else:
            assert_is_the_row_vector(engine.features_for(txn), engine, txn, at_event, ingested)
        if watermark > -np.inf:
            past = watermark + reads.random() * 2 * window_seconds
            for as_of in (watermark, past):
                served = engine.features_for(txn, as_of=as_of)
                assert_is_the_row_vector(served, engine, txn, as_of, ingested)
            with pytest.raises(FeatureError):
                engine.features_for(txn, as_of=watermark - lateness - 1)
        if engine.ingest(txn):
            ingested.append(txn)


test_spliced_cells_are_the_row_vector_property = settings(max_examples=60, deadline=None)(
    given(**_SPLICE)(_spliced_cells_are_the_row_vector)
)
test_spliced_cells_are_the_row_vector_soak = pytest.mark.slow(
    settings(max_examples=1000, deadline=None)(
        given(**_SPLICE)(_spliced_cells_are_the_row_vector)
    )
)


def _point_in_time_block_is_the_row_vectors(steps, window_seconds, lateness_hours, read_seed):
    config = AggregationConfig(window_seconds=window_seconds)
    history = _stream(steps)
    rng = np.random.default_rng(read_seed)
    batch = [event for event in history if rng.random() < 0.6]
    if batch and rng.random() < 0.5:
        batch.append(batch[int(rng.integers(0, len(batch)))])  # an oversampled row
    block = PointInTimeAggregationSource(config, history).aggregation_block(batch)
    assert block.shape == (len(batch), len(AGGREGATION_FEATURE_NAMES))
    # The oracle: the same score-then-ingest replay, reading hbase rows; the
    # k-th copy of an oversampled row is served k-th.
    positions = {}
    for index, txn in enumerate(batch):
        positions.setdefault(txn.transaction_id, []).append(index)
    rest = [event for event in history if event.transaction_id not in positions]
    engine = SlidingWindowAggregator(config)
    ingested = []
    for event in sorted(rest + batch, key=event_order):
        if event.transaction_id in positions:
            index = positions[event.transaction_id].pop(0)
            at = transaction_event_time(event)
            assert_is_the_row_vector(block[index], engine, event, at, ingested)
        engine.ingest(event)
        ingested.append(event)


test_point_in_time_block_is_the_row_vectors_property = settings(
    max_examples=60, deadline=None
)(given(**_SPLICE)(_point_in_time_block_is_the_row_vectors))
test_point_in_time_block_is_the_row_vectors_soak = pytest.mark.slow(
    settings(max_examples=1000, deadline=None)(
        given(**_SPLICE)(_point_in_time_block_is_the_row_vectors)
    )
)
