"""Tests of the synthetic transaction-world generator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate_world
from repro.datagen.datasets import DatasetBuilder, RollingDatasets
from repro.datagen.fraud import FraudConfig, FraudsterBehaviorModel, TypologyConfig
from repro.datagen.profiles import ProfileConfig, ProfileGenerator, profiles_by_id
from repro.datagen.schema import Transaction, TransactionChannel, city_tier
from repro.datagen.stream import WorldStream
from repro.datagen.transactions import WorldConfig
from repro.exceptions import DataGenerationError
from tests.conftest import small_world_config, validate_transaction


class TestProfiles:
    def test_population_size_and_fraud_fraction(self):
        config = ProfileConfig(num_users=400, fraudster_fraction=0.05, seed=3)
        profiles = ProfileGenerator(config).generate()
        assert len(profiles) == 400
        fraudsters = sum(p.is_fraudster for p in profiles)
        assert fraudsters == round(400 * 0.05)

    def test_profiles_are_reproducible(self):
        config = ProfileConfig(num_users=100, seed=5)
        first = ProfileGenerator(config).generate()
        second = ProfileGenerator(ProfileConfig(num_users=100, seed=5)).generate()
        assert [p.user_id for p in first] == [p.user_id for p in second]
        assert [p.age for p in first] == [p.age for p in second]

    def test_unique_user_ids(self):
        profiles = ProfileGenerator(ProfileConfig(num_users=250, seed=1)).generate()
        index = profiles_by_id(profiles)
        assert len(index) == 250

    def test_fraudsters_concentrate_in_ring_communities(self):
        config = ProfileConfig(num_users=3000, fraudster_fraction=0.05, num_communities=12, seed=9)
        profiles = ProfileGenerator(config).generate()
        ring = [p for p in profiles if p.community % 4 == 0]
        other = [p for p in profiles if p.community % 4 != 0]
        ring_rate = sum(p.is_fraudster for p in ring) / len(ring)
        other_rate = sum(p.is_fraudster for p in other) / len(other)
        assert ring_rate > other_rate * 2

    def test_invalid_config_rejected(self):
        with pytest.raises(DataGenerationError):
            ProfileConfig(num_users=0)
        with pytest.raises(DataGenerationError):
            ProfileConfig(fraudster_fraction=1.5)

    def test_ages_within_bounds(self):
        config = ProfileConfig(num_users=300, min_age=21, max_age=60, seed=2)
        profiles = ProfileGenerator(config).generate()
        assert all(21 <= p.age <= 60 for p in profiles)


class TestFraudModel:
    def _model(self, seed=0, **overrides):
        profiles = ProfileGenerator(ProfileConfig(num_users=300, fraudster_fraction=0.05, seed=seed)).generate()
        return FraudsterBehaviorModel(profiles, FraudConfig(**overrides), rng=seed)

    def test_planned_frauds_target_normal_users(self):
        profiles = ProfileGenerator(ProfileConfig(num_users=300, fraudster_fraction=0.05, seed=3)).generate()
        model = FraudsterBehaviorModel(profiles, FraudConfig(), rng=3)
        planned = []
        for day in range(30):
            planned.extend(model.plan_day(day))
        assert planned, "expected at least one planned fraud over 30 days"
        fraudsters = {p.user_id for p in profiles if p.is_fraudster}
        for fraud in planned:
            assert fraud.fraudster_id in fraudsters
            assert fraud.victim_id not in fraudsters  # victims are normal users

    def test_repeat_offender_fraction_roughly_respected(self):
        model = self._model(seed=5, repeat_offender_fraction=0.7)
        for day in range(60):
            model.plan_day(day)
        # Among fraudsters that acted, a clear majority should have repeated.
        assert model.repeat_fraction() > 0.4

    def test_report_delay_positive(self):
        model = self._model(seed=7)
        planned = []
        for day in range(20):
            planned.extend(model.plan_day(day))
        assert all(f.report_delay_days >= 1 for f in planned)

    def test_invalid_fraud_config(self):
        with pytest.raises(DataGenerationError):
            FraudConfig(repeat_offender_fraction=1.4)
        with pytest.raises(DataGenerationError):
            FraudConfig(frauds_per_active_day=0)


class TestWorldGeneration:
    def test_world_summary_consistency(self, world):
        summary = world.summary()
        assert summary.num_transactions == len(world.transactions)
        assert summary.num_users == len(world.profiles)
        assert 0.0 < summary.fraud_rate < 0.2

    def test_every_transaction_is_schema_valid(self, world):
        for txn in world.transactions[:2000]:
            assert validate_transaction(txn) is None

    def test_labels_unbalanced(self, world):
        frauds = sum(t.is_fraud for t in world.transactions)
        assert frauds / len(world.transactions) < 0.1

    def test_world_is_deterministic_for_a_seed(self):
        config = small_world_config(num_users=120, num_days=8, seed=42)
        first = generate_world(config)
        second = generate_world(small_world_config(num_users=120, num_days=8, seed=42))
        assert len(first.transactions) == len(second.transactions)
        assert first.transactions[0].to_row() == second.transactions[0].to_row()

    def test_fraud_transfers_point_to_fraudsters(self, world):
        fraudsters = {p.user_id for p in world.profiles if p.is_fraudster}
        campaign_frauds = [
            t for t in world.transactions if t.is_fraud and t.payee_id in fraudsters
        ]
        all_frauds = [t for t in world.transactions if t.is_fraud]
        # Background fraud exists but campaign fraud dominates.
        assert len(campaign_frauds) > 0.8 * len(all_frauds)

    def test_transactions_in_days_bounds(self, world):
        window = world.transactions_in_days(5, 10)
        assert all(5 <= t.day < 10 for t in window)
        with pytest.raises(DataGenerationError):
            world.transactions_in_days(10, 5)

    def test_label_delay_hides_recent_frauds(self, world):
        window = world.transactions_in_days(0, 20)
        frauds_truth = sum(t.is_fraud for t in window)
        visible = world.labeled_transactions_in_days(0, 20, as_of_day=20)
        frauds_visible = sum(t.is_fraud for t in visible)
        assert frauds_visible <= frauds_truth

    def test_city_tier_mapping_is_total(self):
        assert city_tier("city_000") in ("tier_low", "tier_mid", "tier_high")
        assert city_tier("not_a_city") == "tier_mid"


class TestDatasetSlicing:
    def test_slice_boundaries(self, world):
        builder = DatasetBuilder(world, network_days=18, train_days=6)
        dataset = builder.build(builder.earliest_test_day())
        spec = dataset.spec
        assert spec.network_end == spec.train_start
        assert spec.train_end == spec.test_day
        assert all(spec.network_start <= t.day < spec.network_end for t in dataset.network_transactions)
        assert all(spec.train_start <= t.day < spec.train_end for t in dataset.train_transactions)
        assert all(t.day == spec.test_day for t in dataset.test_transactions)

    def test_insufficient_history_rejected(self, world):
        builder = DatasetBuilder(world, network_days=18, train_days=6)
        with pytest.raises(DataGenerationError):
            builder.build(5)

    @pytest.mark.parametrize(
        "days, named", [({"network_days": 4.5}, "network_days"), ({"train_days": 0}, "train_days")]
    )
    def test_a_bad_day_count_is_rejected_naming_the_argument(self, world, days, named):
        """Regression: a fractional ``network_days`` used to pass the builder
        and fail in ``build`` naming ``network_start``, a field never set."""
        kwargs = {"network_days": 18, "train_days": 6, **days}
        with pytest.raises(DataGenerationError, match=f"^{named} must be an integer >= 1"):
            DatasetBuilder(world, **kwargs)
        with pytest.raises(DataGenerationError, match=f"^{named} must be an integer >= 1"):
            RollingDatasets.from_stream(WorldStream(world.config), num_datasets=1, **kwargs)

    def test_rolling_datasets_shift_by_one_day(self, world):
        rolling = RollingDatasets.build(world, num_datasets=3, network_days=18, train_days=6)
        days = [s.spec.test_day for s in rolling]
        assert days == [days[0], days[0] + 1, days[0] + 2]

    def test_rolling_datasets_reject_too_long_horizon(self, world):
        with pytest.raises(DataGenerationError):
            RollingDatasets.build(world, num_datasets=50, network_days=18, train_days=6)

    def test_train_labels_respect_delay(self, world):
        builder_delayed = DatasetBuilder(world, network_days=18, train_days=6)
        builder_oracle = DatasetBuilder(
            world, network_days=18, train_days=6, respect_label_delay=False
        )
        day = builder_delayed.earliest_test_day()
        delayed = builder_delayed.build(day)
        oracle = builder_oracle.build(day)
        assert sum(t.is_fraud for t in delayed.train_transactions) <= sum(
            t.is_fraud for t in oracle.train_transactions
        )



def _pinned_config(*, seed, fraudster_fraction=0.05, typologies=None):
    return WorldConfig(
        profile=ProfileConfig(
            num_users=200, num_communities=6, fraudster_fraction=fraudster_fraction, seed=seed
        ),
        num_days=16,
        transactions_per_user_per_day=0.5,
        typologies=typologies,
        seed=seed,
    )


def _world_digest(world):
    sha = hashlib.sha256()
    for record in (*world.profiles, *world.transactions):
        sha.update(repr(record.to_row()).encode())
    return sha.hexdigest()


@pytest.mark.parametrize(
    "make_world, expected",
    [
        pytest.param(
            lambda: generate_world(_pinned_config(seed=11)),
            "53b5b76a13d2d2070b0a52f1306dc1811a7df9549a73f4505b8e38361bdc3f87",
            id="default-fraud-model",
        ),
        pytest.param(
            lambda: generate_world(_pinned_config(seed=12, typologies=TypologyConfig())),
            "3a0ffa78cbd35eff84fae8e00d87f9da4f0bfcd64d3d989099e39c4fbe53f73a",
            id="typology-suite",
        ),
        pytest.param(
            lambda: WorldStream(_pinned_config(seed=13), order="event").materialize(),
            "0ae523d34915af0e6b2de220c49ba1f486b6ec2bb228c6af9686b43e0b42a76e",
            id="event-order",
        ),
        pytest.param(
            # 60 fraudsters: the fraud transfer, KYC and fraud-amount /
            # report-delay draws run hundreds of times.
            lambda: generate_world(_pinned_config(seed=14, fraudster_fraction=0.3)),
            "28c9b996aebd0f79d75174a5fd2e7471f8a5f04b8c7dee459183b367dfbe44ec",
            id="fraudster-heavy",
        ),
    ],
)
def test_per_event_worlds_are_pinned(make_world, expected):
    """Every profile and transaction row of four small worlds, bit for bit:
    a change to any per-element draw, or to the stream's alignment after it,
    moves the digest."""
    assert _world_digest(make_world()) == expected


@settings(max_examples=20, deadline=None)
@given(
    amount=st.floats(min_value=0.5, max_value=50_000, allow_nan=False),
    hour=st.integers(min_value=0, max_value=23),
    day=st.integers(min_value=0, max_value=200),
    delay=st.integers(min_value=0, max_value=30),
)
def test_transaction_validation_property(amount, hour, day, delay):
    """Any well-formed transaction passes validation; bad ones are caught."""
    txn = Transaction(
        transaction_id="t1",
        day=day,
        hour=hour,
        payer_id="u1",
        payee_id="u2",
        amount=amount,
        channel=TransactionChannel.APP,
        trans_city="city_001",
        device_id="d1",
        is_new_device=False,
        ip_risk_score=0.1,
        payer_recent_txn_count=0,
        payer_recent_amount=0.0,
        payee_recent_inbound_count=0,
        is_fraud=True,
        label_available_day=day + delay,
    )
    assert validate_transaction(txn) is None
    bad = Transaction(**{**txn.to_row(), "channel": txn.channel, "payee_id": "u1"})
    assert validate_transaction(bad) is not None
