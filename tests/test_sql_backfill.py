"""SQL-engine backfill parity: loop vs grouped SQL vs streaming prefix.

The contract under test: ``TransactionAggregator.fit(..., engine="sql")``
produces *bit-identical* aggregate state to the in-process loop and to the
streaming ``SlidingWindowAggregator`` prefix at the same window spec, while
scanning a fraction of the day partitions thanks to zone-map pruning.

Fold-order note: the SQL path folds each account's amounts in
``(day partition, staged position)`` order, the loop in raw history order.  The
parity streams here use the harness's dyadic amounts (integer multiples of
1/64), which float64 sums represent exactly under any association — so every
comparison is ``==``, even for jittered streams.  For event-time-ordered
histories the two folds are literally the same sequence of additions, so
bit-identity holds for arbitrary float amounts too (checked against the
session world, and by the hypothesis differential at the end).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FeatureError
from repro.features.aggregation import (
    SECONDS_PER_DAY,
    AggregationConfig,
    TransactionAggregator,
)
from repro.features.sql_backfill import SQLBackfillEngine, _sql_number
from repro.features.streaming import SlidingWindowAggregator, event_order
from test_streaming_features import assert_rows_close, make_txn, random_stream


@pytest.fixture()
def rng():
    return np.random.default_rng(987611)


def _snapshot(aggregator):
    return {uid: aggregator.hbase_row(uid) for uid in aggregator.account_ids()}


class TestLoopSQLParity:
    def test_bit_identical_on_random_stream(self, rng):
        events = random_stream(rng, num_events=600, num_accounts=40, num_days=21)
        config = AggregationConfig(window_days=14)
        loop = TransactionAggregator(config).fit(events, as_of_day=20)
        sql = TransactionAggregator(config).fit(events, as_of_day=20, engine="sql")
        assert loop.account_ids() == sql.account_ids()
        assert _snapshot(loop) == _snapshot(sql)

    def test_bit_identical_under_jitter(self, rng):
        # Dyadic amounts: the loop's stream-order fold and the SQL engine's
        # time-order fold sum to the same float bits.
        events = random_stream(
            rng, num_events=400, num_accounts=25, num_days=10, jitter_positions=40
        )
        config = AggregationConfig(window_days=7)
        loop = TransactionAggregator(config).fit(events, as_of_day=9)
        sql = TransactionAggregator(config).fit(events, as_of_day=9, engine="sql")
        assert _snapshot(loop) == _snapshot(sql)

    def test_sub_day_window_and_seconds_as_of(self, rng):
        events = random_stream(rng, num_events=300, num_accounts=20, num_days=3)
        config = AggregationConfig(window_seconds=6 * 3600)
        as_of = 2 * SECONDS_PER_DAY + 13 * 3600
        loop = TransactionAggregator(config).fit(events, as_of_time=as_of)
        sql = TransactionAggregator(config).fit(events, as_of_time=as_of, engine="sql")
        assert _snapshot(loop) == _snapshot(sql)

    def test_empty_window(self):
        events = [make_txn(0, 0, 5, "a", "b", 4.0)]
        sql = TransactionAggregator(AggregationConfig(window_days=1)).fit(
            events, as_of_day=30, engine="sql"
        )
        assert sql.account_ids() == []
        # Unknown accounts still serve the cold-row zeros.
        assert sql.user_row("a")["out_count"] == 0.0

    def test_unknown_engine_rejected(self):
        with pytest.raises(FeatureError):
            TransactionAggregator().fit([], engine="mapreduce")

    def test_loop_engine_clears_backfill_stats(self, rng):
        events = random_stream(rng, num_events=50, num_accounts=10, num_days=3)
        aggregator = TransactionAggregator(AggregationConfig(window_days=2))
        aggregator.fit(events, as_of_day=3, engine="sql")
        assert aggregator.last_backfill_stats is not None
        aggregator.fit(events, as_of_day=3)
        assert aggregator.last_backfill_stats is None


class TestStreamingSQLParity:
    def test_sql_matches_streaming_prefix(self, rng):
        events = random_stream(rng, num_events=500, num_accounts=30, num_days=16)
        events.sort(key=event_order)
        config = AggregationConfig(window_days=14)
        streaming = SlidingWindowAggregator(config)
        for txn in events:
            streaming.ingest(txn)
        # Query at the stream end: the streaming store only retains its
        # window+lateness horizon behind the watermark, so older as_of
        # instants are not answerable from the live state.
        as_of = 16 * SECONDS_PER_DAY - 1
        sql = TransactionAggregator(config).fit(events, as_of_time=as_of, engine="sql")
        for uid in sql.account_ids():
            assert sql.hbase_row(uid) == streaming.hbase_row(uid, as_of=as_of), uid


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_backfills_agree_at_every_as_of(data):
    """Property: loop and SQL backfills agree at arbitrary as_of instants."""
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    jitter = data.draw(st.integers(0, 5), label="jitter")
    as_of_hour = data.draw(st.integers(0, 5 * 24), label="as_of_hour")
    rng = np.random.default_rng(seed)
    events = random_stream(
        rng, num_events=60, num_accounts=8, num_days=4, jitter_positions=jitter
    )
    config = AggregationConfig(window_seconds=36 * 3600)
    as_of = as_of_hour * 3600
    loop = TransactionAggregator(config).fit(events, as_of_time=as_of)
    sql = TransactionAggregator(config).fit(events, as_of_time=as_of, engine="sql")
    assert loop.account_ids() == sql.account_ids()
    for uid in loop.account_ids():
        assert loop.hbase_row(uid) == sql.hbase_row(uid), uid


class TestPartitionSkipping:
    def test_fourteen_day_window_skips_old_partitions(self, rng):
        events = random_stream(rng, num_events=1500, num_accounts=40, num_days=35)
        config = AggregationConfig(window_days=14)
        sql = TransactionAggregator(config).fit(events, as_of_day=35, engine="sql")
        stats = sql.last_backfill_stats
        assert stats is not None
        assert stats.partitions_total == 35
        # The window (as_of - 14d, as_of] spans at most 15 day partitions.
        assert stats.partitions_scanned <= 15
        assert stats.partitions_skipped >= 20
        # Acceptance: >= 2x fewer partitions scanned than a full scan.
        assert stats.partitions_total / stats.partitions_scanned >= 2.0
        assert stats.rows_staged == 1500
        assert stats.rows_matched < stats.rows_staged

    def test_pruned_and_unpruned_backfills_identical(self, rng):
        events = random_stream(rng, num_events=400, num_accounts=20, num_days=20)
        config = AggregationConfig(window_days=5)
        as_of = 19 * SECONDS_PER_DAY - 1
        pruned_engine = SQLBackfillEngine(config)
        full_engine = SQLBackfillEngine(config)
        # A plain staging table is never pruned: the full-scan oracle.
        full_engine.client.create_partitioned_table = (
            lambda name, schema, partition_key: full_engine.client.create_table(name, schema)
        )
        pruned = pruned_engine.backfill(events, as_of_time=as_of)
        full = full_engine.backfill(events, as_of_time=as_of)
        assert sorted(pruned) == sorted(full)
        for uid in pruned:
            assert vars(pruned[uid]) == vars(full[uid]), uid
            assert pruned[uid].payees == full[uid].payees
            assert pruned[uid].payers == full[uid].payers
        assert full_engine.last_stats.partitions_skipped == 0
        assert pruned_engine.last_stats.partitions_skipped > 0
        assert (
            pruned_engine.last_stats.rows_scanned < full_engine.last_stats.rows_scanned
        )


def test_distinct_count_cross_check_fails_loudly(rng, monkeypatch):
    """The per-account COUNT(DISTINCT) and the GROUP BY pair sets are two
    query shapes for one number; an engine bug in either must not publish."""
    from repro.maxcompute.sql import executor as executor_module

    aggregate_value = executor_module._aggregate_value

    def off_by_one(aggregate, *args):
        value = aggregate_value(aggregate, *args)
        return value + 1 if aggregate.distinct else value

    monkeypatch.setattr(executor_module, "_aggregate_value", off_by_one)
    events = random_stream(rng, num_events=80, num_accounts=10, num_days=4)
    with pytest.raises(FeatureError, match="distinct-payees mismatch"):
        SQLBackfillEngine(AggregationConfig(window_days=3)).backfill(
            events, as_of_time=4 * SECONDS_PER_DAY - 1
        )


class TestSQLNumberLiterals:
    def test_integral_floats_render_as_integers(self):
        assert _sql_number(1209600.0) == "1209600"
        assert _sql_number(-1.0) == "-1"

    def test_fractional_values_round_trip(self):
        assert _sql_number(0.5) == "0.5"
        assert float(_sql_number(86399.875)) == 86399.875

    def test_scientific_notation_rejected(self):
        with pytest.raises(FeatureError):
            _sql_number(1e-300)

    def test_huge_integral_floats_stay_exact(self):
        assert float(_sql_number(1e300)) == 1e300


def test_bit_identity_on_event_ordered_world(world):
    """Arbitrary float amounts: exact equality once the history is in the
    canonical event order (the fold sequences coincide addition-for-addition)."""
    history = sorted(world.transactions[:4000], key=event_order)
    config = AggregationConfig(window_days=14)
    as_of_day = max(t.day for t in history) + 1
    loop = TransactionAggregator(config).fit(history, as_of_day=as_of_day)
    sql = TransactionAggregator(config).fit(history, as_of_day=as_of_day, engine="sql")
    assert loop.account_ids() == sql.account_ids()
    mismatched = [
        uid for uid in loop.account_ids() if loop.hbase_row(uid) != sql.hbase_row(uid)
    ]
    assert mismatched == []
    # And the raw (non-event-ordered) history still agrees to 1e-9.
    raw_loop = TransactionAggregator(config).fit(
        world.transactions[:4000], as_of_day=as_of_day
    )
    for uid in sql.account_ids():
        assert_rows_close(raw_loop.hbase_row(uid), sql.hbase_row(uid))


# ---------------------------------------------------------------------------
# GROUP BY backfill == loop engine, bit for bit, on arbitrary finite amounts
# ---------------------------------------------------------------------------
#
# The parity tests above draw dyadic amounts.  These draw any finite float,
# with signed zeros and subnormals weighted in, and compare under
# ``float.hex``: on an event-ordered stream the backfill's per-account folds
# must be the loop's, addition for addition, from the loop's 0.0 on.

_EDGE_AMOUNTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310, 1e308, -1e308]


@st.composite
def _ordered_backfill(draw):
    window_hours = draw(st.sampled_from([1, 3, 30]))
    as_of_hour = draw(st.integers(0, 72))
    # Events at the window's two edges — as_of - W (out) and as_of (in) —
    # are drawn as often as any other instant, plus instants outside it.
    slot = st.one_of(
        st.sampled_from([as_of_hour - window_hours, as_of_hour, as_of_hour + 1]),
        st.integers(max(0, as_of_hour - 2 * window_hours), as_of_hour + 2),
    )
    # -0.0 on its own as often as the other edges together: an account whose
    # in-window amounts are all -0.0 is where a fold's start value shows.
    amount = st.one_of(
        st.just(-0.0),
        st.sampled_from(_EDGE_AMOUNTS),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    steps = draw(
        st.lists(
            st.tuples(slot, st.integers(0, 4), st.integers(1, 4), amount), max_size=40
        )
    )
    events = [
        make_txn(i, h // 24, h % 24, f"u{payer}", f"u{(payer + offset) % 5}", amount)
        for i, (h, payer, offset, amount) in enumerate(steps)
        if h >= 0
    ]
    events.sort(key=event_order)
    return events, window_hours * 3600, as_of_hour * 3600


def _aggregate_bits(aggregate):
    return {
        key: value.hex() if isinstance(value, float) else value
        for key, value in vars(aggregate).items()
    }


def _group_by_backfill_is_the_loop(case):
    events, window_seconds, as_of = case
    config = AggregationConfig(window_seconds=window_seconds)
    loop = TransactionAggregator(config).fit(events, as_of_time=as_of)
    sql = TransactionAggregator(config).fit(events, as_of_time=as_of, engine="sql")
    assert loop.account_ids() == sql.account_ids()
    for uid in loop.account_ids():
        assert _aggregate_bits(sql._aggregates[uid]) == _aggregate_bits(loop._aggregates[uid]), uid
        assert sql._aggregates[uid].payees == loop._aggregates[uid].payees
        assert sql._aggregates[uid].payers == loop._aggregates[uid].payers


test_group_by_backfill_is_the_loop_property = settings(max_examples=60, deadline=None)(
    given(_ordered_backfill())(_group_by_backfill_is_the_loop)
)
test_group_by_backfill_is_the_loop_soak = pytest.mark.slow(
    settings(max_examples=3000, deadline=None)(
        given(_ordered_backfill())(_group_by_backfill_is_the_loop)
    )
)


@pytest.mark.parametrize(
    "amounts",
    [[-0.0], [-0.0, -0.0], [-5e-324, 5e-324], [5e-324, -0.0], [1e308, 1e308, -1e308]],
)
def test_group_by_backfill_edge_sums(amounts):
    """Named folds: an all -0.0 account (the loop's 0.0 start makes it
    +0.0), cancelling subnormals and an overflow to inf, one account each."""
    events = [make_txn(i, 0, 5, "a", "b", amount) for i, amount in enumerate(amounts)]
    config = AggregationConfig(window_seconds=3600)
    as_of = 5 * 3600
    loop = TransactionAggregator(config).fit(events, as_of_time=as_of)
    sql = TransactionAggregator(config).fit(events, as_of_time=as_of, engine="sql")
    for uid in ("a", "b"):
        assert _aggregate_bits(sql._aggregates[uid]) == _aggregate_bits(loop._aggregates[uid])
