"""The streaming data layer: bit-identity, resume, scale, and its harness.

Covers the PR-7 data-path refactor end to end:

* ``WorldStream`` is the single source of truth behind ``generate_world`` —
  streamed and materialized outputs are **bit-identical** at the same seed,
  invariant to batch size, and a read in two parts continues the first.
* ``ScalableWorldStream`` generates event-time-ordered, schema-valid,
  deterministic transactions with bounded state, under a diurnal + burst
  arrival process.
* ``WorldConfig`` rejects, at construction, fraud/burst parameter
  combinations that exceed the daily transaction budget (satellite a).
* ``RollingDatasets.from_stream`` matches the materialized builder and the
  serving replay consumes streams lazily (satellite d plumbing).
* The columnar materializers — ``ColumnarAccounts.iter_profiles`` and
  ``ScalableWorldStream._build_transactions`` — equal their per-element
  spelling field by field, each value's Python type included.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen import generate_world
from repro.datagen.datasets import RollingDatasets
from repro.datagen.fraud import TypologyConfig
from repro.datagen.profiles import PROFILE_CHUNK, ColumnarAccounts, ProfileConfig
from repro.datagen.schema import (
    Gender,
    Transaction,
    TransactionChannel,
    UserProfile,
    city_name,
    transaction_sort_key,
)
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
from repro.models.gbdt import GradientBoostingClassifier
from repro.serving.alipay import AlipayServer
from repro.serving.model_server import ModelServer, ModelServerConfig
from tests.conftest import small_world_config, validate_transaction


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


#: One small stream of each kind, built fresh by every call.
each_stream = pytest.mark.parametrize(
    "stream",
    [
        lambda: WorldStream(_stream_config(num_users=150, num_days=3, seed=5)),
        lambda: ScalableWorldStream(_scalable_config(num_users=300)),
    ],
    ids=["WorldStream", "ScalableWorldStream"],
)


@each_stream
@pytest.mark.parametrize("batch_size", [2.5, float("nan"), True, 0], ids=repr)
def test_a_batch_size_that_is_not_a_positive_integer_is_rejected_by_name(stream, batch_size):
    # 2.5 used to give batches of 3 and NaN one batch of the whole stream.
    with pytest.raises(DataGenerationError, match="batch_size must be an integer >= 1"):
        next(stream().batches(batch_size))
    assert len(next(stream().batches(np.int64(3)))) == 3


@pytest.mark.parametrize("stream_class", [WorldStream, ScalableWorldStream])
def test_a_stream_read_in_two_parts_is_the_stream_read_once(stream_class):
    # A second events() call used to regenerate the current day from the
    # already-advanced generator state, then skip the first read's offset.
    def config() -> WorldConfig:
        return WorldConfig(
            profile=ProfileConfig(num_users=200), num_days=3,
            transactions_per_user_per_day=2, seed=3,
        )

    once = list(stream_class(config(), rng=7).events())
    stream = stream_class(config(), rng=7)
    head = [txn for _, txn in zip(range(150), stream.events())]
    assert head + list(stream.events()) == once
    stream = stream_class(config(), rng=7)
    assert next(stream.batches(150)) == head
    assert [txn for batch in stream.batches(64) for txn in batch] == once[150:]


@each_stream
def test_iteration_batches_and_events_share_one_position(stream):
    once = list(stream().events())
    shared = stream()
    iterator = iter(shared)
    head = [next(iterator) for _ in range(10)]
    middle = next(shared.batches(20))
    assert head + middle + list(shared.events()) == once


@each_stream
def test_every_batch_but_the_last_is_full_and_an_exhausted_stream_stays_empty(stream):
    drained = stream()
    sizes = [len(batch) for batch in drained.batches(97)]
    assert sizes and all(size == 97 for size in sizes[:-1]) and 0 < sizes[-1] <= 97
    assert sum(sizes) == len(list(stream().events()))
    assert list(drained.events()) == [] and list(drained.batches(5)) == []


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
        fraud = FraudConfig(
            repeat_offender_fraction=1.0,
            frauds_per_active_day=500.0,
            active_day_probability=1.0,
        )
        profile = replace(config.profile, fraudster_fraction=0.4)
        with pytest.raises(DataGenerationError, match="exceed the day's transaction budget"):
            replace(config, fraud=fraud, profile=profile)

    def test_burst_budget_overflow_rejected(self):
        bursts = [
            BurstSpec(day=0, start_hour=8, duration_hours=8, amplitude=6.0),
        ]
        config = _stream_config()
        with pytest.raises(DataGenerationError, match="exceed the day's transaction budget"):
            replace(config, arrival=ArrivalConfig(bursts=bursts))

    def test_burst_outside_horizon_rejected(self):
        config = _stream_config(num_days=2)
        arrival = ArrivalConfig(bursts=[BurstSpec(day=5, start_hour=8)])
        with pytest.raises(DataGenerationError, match="outside the simulated horizon"):
            replace(config, arrival=arrival)

    def test_tiny_population_rejected(self):
        config = _stream_config()
        with pytest.raises(DataGenerationError):
            replace(config, profile=replace(config.profile, num_users=1))

    def test_sane_config_accepted(self):
        config = _stream_config()
        arrival = ArrivalConfig(bursts=[BurstSpec(day=1, start_hour=19, amplitude=2.0)])
        replace(config, arrival=arrival)  # should not raise


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


# ---------------------------------------------------------------------------
# The columnar materializers against their per-element spelling
# ---------------------------------------------------------------------------


def _typed(record) -> list:
    """Every field of a dataclass record with its value's exact type."""
    return [(f.name, type(getattr(record, f.name)), getattr(record, f.name)) for f in fields(record)]


def _assert_same_records(got: list, expected: list) -> None:
    """Record by record, field by field, types included; the first mismatch
    is reported with its position."""
    assert len(got) == len(expected)
    for position, (a, b) in enumerate(zip(got, expected)):
        assert _typed(a) == _typed(b), f"record {position}"


def _profile_per_element(accounts: ColumnarAccounts, index: int) -> UserProfile:
    """One profile read a numpy scalar per field (the spelling the chunked
    materializer replaced)."""
    return UserProfile(
        user_id=accounts.user_id(index),
        age=int(accounts.age[index]),
        gender=(Gender.FEMALE, Gender.MALE, Gender.UNKNOWN)[int(accounts.gender_code[index])],
        home_city=city_name(int(accounts.home_city[index])),
        account_age_days=int(accounts.account_age_days[index]),
        kyc_level=int(accounts.kyc_level[index]),
        is_merchant=bool(accounts.is_merchant[index]),
        device_count=int(accounts.device_count[index]),
        community=int(accounts.community[index]),
        is_fraudster=bool(accounts.is_fraudster[index]),
        risk_propensity=float(accounts.risk_propensity[index]),
        activity_level=float(accounts.activity_level[index]),
    )


_ACCOUNTS = ColumnarAccounts(
    ProfileConfig(
        num_users=300, num_communities=6, fraudster_fraction=0.1, merchant_fraction=0.2, seed=23
    )
)
_INDEX_DTYPES = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.intp)
_index_lengths = st.one_of(
    st.integers(0, 12),
    st.sampled_from((PROFILE_CHUNK - 1, PROFILE_CHUNK, PROFILE_CHUNK + 1, 2 * PROFILE_CHUNK + 5)),
)


def _profiles_equal_per_element(dtype, length, seed):
    bound = min(_ACCOUNTS.num_accounts, int(np.iinfo(dtype).max) + 1)
    # Drawn with replacement: unsorted, with repeats once there are a few.
    indices = np.random.default_rng(seed).integers(0, bound, size=length).astype(dtype)
    _assert_same_records(
        list(_ACCOUNTS.iter_profiles(indices)),
        [_profile_per_element(_ACCOUNTS, int(i)) for i in indices],
    )


_profile_runs = given(
    dtype=st.sampled_from(_INDEX_DTYPES), length=_index_lengths, seed=st.integers(0, 2**32 - 1)
)
#: Empty, and one index past a chunk, in every run.
_profile_examples = (
    example(dtype=np.uint16, length=0, seed=0),
    example(dtype=np.int32, length=PROFILE_CHUNK + 1, seed=1),
)


def _profile_property(max_examples: int):
    test = _profiles_equal_per_element
    for case in _profile_examples:
        test = case(test)
    return settings(max_examples=max_examples, deadline=None)(_profile_runs(test))


test_profiles_equal_per_element = _profile_property(25)
test_profiles_equal_per_element_soak = pytest.mark.slow(_profile_property(300))


def test_iter_profiles_defaults_to_everyone_in_order():
    _assert_same_records(
        list(_ACCOUNTS.iter_profiles()),
        [_profile_per_element(_ACCOUNTS, i) for i in range(_ACCOUNTS.num_accounts)],
    )
    assert list(_ACCOUNTS.iter_profiles(np.array([], dtype=np.int64))) == []
    assert [p.user_id for p in _ACCOUNTS.iter_profiles([5, 2, 5])] == [
        "u0000005", "u0000002", "u0000005"
    ]


_CHANNELS = tuple(TransactionChannel)


class _PerElementStream(ScalableWorldStream):
    """The stream with the per-element ``_build_transactions`` spelling the
    positional one replaced; everything else, the counters included, is shared."""

    def _build_transactions(
        self,
        day: int,
        hour: int,
        payers: np.ndarray,
        payees: np.ndarray,
        amounts: np.ndarray,
        channel_codes: np.ndarray,
        cities: np.ndarray,
        device_slots: np.ndarray,
        is_new_device: np.ndarray,
        ip_risk: np.ndarray,
        is_fraud: np.ndarray,
        report_delays: np.ndarray,
        typologies: Optional[List[str]] = None,
    ) -> List[Transaction]:
        recent_count = self._payer_count[payers].astype(np.int64)
        recent_amount = np.round(self._payer_amount[payers], 2)
        inbound = self._payee_inbound[payees].astype(np.int64)
        np.add.at(self._payer_count, payers, 1.0)
        np.add.at(self._payer_amount, payers, amounts)
        np.add.at(self._payee_inbound, payees, 1.0)
        ids = self._next_ids(payers.size)
        uid = self._accounts.user_id
        return [
            Transaction(
                transaction_id=ids[i],
                day=day,
                hour=hour,
                payer_id=uid(int(payers[i])),
                payee_id=uid(int(payees[i])),
                amount=float(amounts[i]),
                channel=_CHANNELS[int(channel_codes[i])],
                trans_city=city_name(int(cities[i])),
                device_id=f"d_{uid(int(payers[i]))}_{int(device_slots[i])}",
                is_new_device=bool(is_new_device[i]),
                ip_risk_score=float(ip_risk[i]),
                payer_recent_txn_count=int(recent_count[i]),
                payer_recent_amount=float(recent_amount[i]),
                payee_recent_inbound_count=int(inbound[i]),
                is_fraud=bool(is_fraud[i]),
                label_available_day=day + (int(report_delays[i]) if is_fraud[i] else 0),
                fraud_typology=typologies[i] if typologies is not None else "",
            )
            for i in range(payers.size)
        ]


def _drained_against_per_element(seed, num_users, typologies, background, batch_size):
    """The stream's events, asserted equal to the per-element stream's."""
    config = WorldConfig(
        profile=ProfileConfig(
            num_users=num_users, num_communities=4, fraudster_fraction=0.1, seed=seed
        ),
        num_days=4,
        transactions_per_user_per_day=0.6,
        background_fraud_rate=background,
        typologies=TypologyConfig() if typologies else None,
        seed=seed,
    )
    got = [txn for batch in ScalableWorldStream(config).batches(batch_size) for txn in batch]
    expected = [txn for batch in _PerElementStream(config).batches(batch_size) for txn in batch]
    _assert_same_records(got, expected)
    return got


def _stream_equals_per_element(seed, num_users, typologies, background, batch_size):
    _drained_against_per_element(seed, num_users, typologies, background, batch_size)


_stream_runs = given(
    seed=st.integers(0, 10_000),
    num_users=st.integers(120, 300),
    typologies=st.booleans(),
    background=st.sampled_from((0.0005, 0.05)),
    batch_size=st.sampled_from((1, 97, 4096)),
)
test_stream_equals_per_element = settings(max_examples=8, deadline=None)(
    _stream_runs(_stream_equals_per_element)
)
test_stream_equals_per_element_soak = pytest.mark.slow(
    settings(max_examples=100, deadline=None)(_stream_runs(_stream_equals_per_element))
)


def test_a_seeded_stream_with_typologies_and_report_delays_equals_per_element():
    got = _drained_against_per_element(17, 260, True, 0.05, 4096)
    frauds = [t for t in got if t.is_fraud]
    assert {t.fraud_typology for t in frauds} > {""}  # campaign rows carry a typology
    assert any(t.fraud_typology == "" for t in frauds)  # background fraud does not
    assert all(t.label_available_day > t.day for t in frauds)
