"""The streaming data layer: bit-identity, resume, scale, and its harness.

Covers the PR-7 data-path refactor end to end:

* ``WorldStream`` is the single source of truth behind ``generate_world`` —
  streamed and materialized outputs are **bit-identical** at the same seed,
  invariant to batch size, and resumable mid-day from a checkpoint.
* ``ScalableWorldStream`` generates event-time-ordered, schema-valid,
  deterministic transactions with bounded state, under a diurnal + burst
  arrival process.
* ``WorldConfig.validate`` rejects fraud/burst parameter combinations that
  exceed the daily transaction budget (satellite a).
* ``ProgressTracker`` counts and rates without requiring any logging setup
  (satellite b).
* ``RollingDatasets.from_stream`` matches the materialized builder and the
  serving replay consumes streams lazily (satellite d plumbing).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate_world
from repro.datagen.datasets import RollingDatasets, small_world_config
from repro.datagen.profiles import ProfileConfig
from repro.datagen.schema import transaction_sort_key, validate_transaction
from repro.datagen.stream import ScalableWorldStream, WorldStream
from repro.datagen.transactions import (
    ArrivalConfig,
    BurstSpec,
    FraudConfig,
    WorldConfig,
)
from repro.exceptions import DataGenerationError
from repro.hbase import HBaseClient
from repro.hbase.client import BASIC_FEATURES_FAMILY
from repro.logging_utils import ProgressTracker
from repro.models.gbdt import GradientBoostingClassifier
from repro.serving.alipay import AlipayServer
from repro.serving.model_server import ModelServer, ModelServerConfig


def _stream_config(num_users: int = 400, num_days: int = 6, seed: int = 7) -> WorldConfig:
    return WorldConfig(
        profile=ProfileConfig(num_users=num_users, num_communities=6, seed=seed),
        num_days=num_days,
        transactions_per_user_per_day=0.5,
        seed=seed,
    )


def _scalable_config(
    num_users: int = 3_000, num_days: int = 3, seed: int = 13, **kwargs
) -> WorldConfig:
    return WorldConfig(
        profile=ProfileConfig(num_users=num_users, num_communities=8, seed=seed),
        num_days=num_days,
        transactions_per_user_per_day=0.4,
        seed=seed,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Tentpole: streamed == materialized, bit for bit
# ---------------------------------------------------------------------------


class TestWorldStreamBitIdentity:
    def test_streamed_equals_materialized_world(self):
        """The core refactor guarantee: same seed, same bytes."""
        config = _stream_config()
        world = generate_world(config)
        streamed = list(WorldStream(_stream_config()))
        assert len(streamed) == len(world.transactions)
        assert streamed == world.transactions
        assert [p.user_id for p in WorldStream(_stream_config()).profiles] == [
            p.user_id for p in world.profiles
        ]

    def test_materialize_view_is_identical(self):
        config = _stream_config(seed=21)
        via_stream = WorldStream(config).materialize()
        direct = generate_world(_stream_config(seed=21))
        assert via_stream.transactions == direct.transactions
        assert via_stream.profiles == direct.profiles

    @settings(max_examples=8, deadline=None)
    @given(batch_size=st.integers(min_value=1, max_value=700))
    def test_batch_size_invariance(self, batch_size):
        """Batching is pure re-grouping: any batch size, same event sequence."""
        config = _stream_config(num_users=150, num_days=3, seed=5)
        expected = list(WorldStream(config))
        rebatched = [
            txn
            for batch in WorldStream(_stream_config(num_users=150, num_days=3, seed=5)).batches(
                batch_size
            )
            for txn in batch
        ]
        assert rebatched == expected

    def test_event_order_mode_sorts_without_changing_the_multiset(self):
        config = _stream_config(num_users=200, num_days=4, seed=9)
        legacy = list(WorldStream(config))
        ordered = list(WorldStream(_stream_config(num_users=200, num_days=4, seed=9), order="event"))
        keys = [transaction_sort_key(t) for t in ordered]
        assert keys == sorted(keys)
        assert sorted(t.transaction_id for t in ordered) == sorted(
            t.transaction_id for t in legacy
        )


class TestCheckpointResume:
    def test_mid_day_resume_continues_the_exact_sequence(self):
        reference = list(WorldStream(_stream_config(seed=31)))
        stream = WorldStream(_stream_config(seed=31))
        events = stream.events()
        consumed = [next(events) for _ in range(len(reference) // 3)]
        checkpoint = stream.checkpoint()
        assert checkpoint.offset > 0 or checkpoint.day > 0  # genuinely mid-stream

        resumed = WorldStream(_stream_config(seed=31))
        resumed.seek(checkpoint)
        tail = list(resumed)
        assert consumed + tail == reference

    def test_resume_is_repeatable(self):
        stream = WorldStream(_stream_config(seed=31))
        events = stream.events()
        for _ in range(57):
            next(events)
        checkpoint = stream.checkpoint()
        resumed_a = WorldStream(_stream_config(seed=31))
        resumed_a.seek(checkpoint)
        resumed_b = WorldStream(_stream_config(seed=31))
        resumed_b.seek(checkpoint)
        assert list(resumed_a) == list(resumed_b)

    def test_scalable_stream_resumes_mid_day(self):
        config = _scalable_config()
        reference = list(ScalableWorldStream(config))
        stream = ScalableWorldStream(_scalable_config())
        events = stream.events()
        consumed = [next(events) for _ in range(len(reference) // 2)]
        checkpoint = stream.checkpoint()
        resumed = ScalableWorldStream(_scalable_config())
        resumed.seek(checkpoint)
        assert consumed + list(resumed) == reference


# ---------------------------------------------------------------------------
# ScalableWorldStream: order, determinism, arrival process
# ---------------------------------------------------------------------------


class TestScalableWorldStream:
    def test_event_time_ordered_and_schema_valid(self):
        stream = ScalableWorldStream(_scalable_config())
        previous = None
        count = 0
        for txn in stream:
            assert validate_transaction(txn) is None
            key = transaction_sort_key(txn)
            assert previous is None or key >= previous
            previous = key
            count += 1
        assert count > 1_000

    def test_deterministic_for_a_seed(self):
        first = [t.transaction_id for t in ScalableWorldStream(_scalable_config())]
        second = [t.transaction_id for t in ScalableWorldStream(_scalable_config())]
        assert first == second

    def test_burst_amplifies_its_window(self):
        burst = BurstSpec(day=1, start_hour=20, duration_hours=2, amplitude=2.4)
        config = _scalable_config(arrival=ArrivalConfig(bursts=[burst]))
        by_day_hour = {}
        for txn in ScalableWorldStream(config):
            by_day_hour[(txn.day, txn.hour)] = by_day_hour.get((txn.day, txn.hour), 0) + 1
        quiet = by_day_hour.get((0, 20), 0)
        bursty = by_day_hour.get((1, 20), 0)
        assert bursty > 1.5 * max(quiet, 1)

    def test_fraud_campaigns_present(self):
        frauds = sum(t.is_fraud for t in ScalableWorldStream(_scalable_config()))
        assert frauds > 0


# ---------------------------------------------------------------------------
# Satellite a: budget-aware WorldConfig.validate
# ---------------------------------------------------------------------------


class TestConfigBudgetValidation:
    def test_fraud_budget_overflow_rejected(self):
        config = _stream_config()
        config.fraud = FraudConfig(
            repeat_offender_fraction=1.0,
            frauds_per_active_day=500.0,
            active_day_probability=1.0,
        )
        config.profile.fraudster_fraction = 0.4
        with pytest.raises(DataGenerationError, match="exceed the day's transaction budget"):
            config.validate()

    def test_burst_budget_overflow_rejected(self):
        bursts = [
            BurstSpec(day=0, start_hour=8, duration_hours=8, amplitude=6.0),
        ]
        config = _stream_config()
        config.arrival = ArrivalConfig(bursts=bursts)
        with pytest.raises(DataGenerationError, match="exceed the day's transaction budget"):
            config.validate()

    def test_burst_outside_horizon_rejected(self):
        config = _stream_config(num_days=2)
        config.arrival = ArrivalConfig(bursts=[BurstSpec(day=5, start_hour=8)])
        with pytest.raises(DataGenerationError, match="outside the simulated horizon"):
            config.validate()

    def test_tiny_population_rejected(self):
        config = _stream_config()
        config.profile.num_users = 1
        with pytest.raises(DataGenerationError):
            config.validate()

    def test_sane_config_accepted(self):
        config = _stream_config()
        config.arrival = ArrivalConfig(bursts=[BurstSpec(day=1, start_hour=19, amplitude=2.0)])
        config.validate()  # should not raise


# ---------------------------------------------------------------------------
# Satellite b: ProgressTracker
# ---------------------------------------------------------------------------


class TestProgressTracker:
    def test_counts_and_rates_without_logging_setup(self):
        tracker = ProgressTracker("unit", total=500, unit="rows", min_interval_s=9999.0)
        for _ in range(500):
            tracker.advance()
        report = tracker.finish()
        assert report["count"] == 500
        assert report["rate"] > 0
        assert report["elapsed_s"] > 0

    def test_advance_by_step(self):
        tracker = ProgressTracker("unit")
        tracker.advance(128)
        tracker.advance(72)
        assert tracker.finish()["count"] == 200

    def test_quiet_by_default(self, capsys):
        tracker = ProgressTracker("quiet", min_interval_s=0.0)
        tracker.advance()
        tracker.finish()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


# ---------------------------------------------------------------------------
# Streaming consumers: datasets and serving replay
# ---------------------------------------------------------------------------


@pytest.fixture()
def trained_server(world, feature_matrices):
    """A Model Server with a basic-features GBDT over the session world.

    Accounts from other worlds are served the neutral default row, so the
    same server can score any replayed stream.
    """
    train, _ = feature_matrices
    model = GradientBoostingClassifier(num_trees=10, seed=0).fit(train.values, train.labels)
    hbase = HBaseClient()
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
            version=1,
        )
    server = ModelServer(hbase, ModelServerConfig())
    server.load_model(model, version="stream_test_v1", threshold=0.5)
    return server


class TestStreamingConsumers:
    def test_from_stream_matches_materialized_builder(self):
        config = small_world_config(num_users=150, num_days=40, seed=7)
        world = generate_world(config)
        built = RollingDatasets.build(world, num_datasets=2, network_days=25, train_days=7)
        streamed = RollingDatasets.from_stream(
            WorldStream(small_world_config(num_users=150, num_days=40, seed=7)),
            num_datasets=2,
            network_days=25,
            train_days=7,
        )
        assert len(built) == len(streamed)
        for a, b in zip(built, streamed):
            assert a.spec == b.spec
            assert a.network_transactions == b.network_transactions
            assert a.train_transactions == b.train_transactions
            assert a.test_transactions == b.test_transactions

    def test_replay_consumes_stream_lazily_with_parity(self, trained_server):
        """An event-ordered stream replays identically to its sorted list."""
        config = _stream_config(num_users=120, num_days=2, seed=3)
        materialized = sorted(WorldStream(config), key=transaction_sort_key)

        eager = AlipayServer(trained_server)
        eager_report = eager.replay_transactions(materialized)

        stream = WorldStream(_stream_config(num_users=120, num_days=2, seed=3), order="event")
        lazy = AlipayServer(trained_server, retain_served=False)
        lazy_report = lazy.replay_transactions(stream)

        assert lazy.served == []  # bounded-memory mode keeps no per-request rows
        assert lazy_report.total == eager_report.total == len(materialized)
        assert lazy_report.interrupted == eager_report.interrupted
        assert lazy_report.true_alerts == eager_report.true_alerts

