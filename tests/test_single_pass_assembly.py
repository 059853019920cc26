"""Single-pass feature assembly: one row builder, one matrix, one read per family.

``FeaturePlanExecutor.assemble`` indexes a call's distinct accounts once, reads
each family once over them and turns every request's cells into the matrix
with one ``np.fromiter``.  These tests pin what that must not change — every
cell bit-identical to a row-by-row oracle built from the scalar
``extract_one``, ``aggregation_vector`` (or the point-in-time block) and
``EmbeddingSet.lookup``, whichever source serves the rows and in whichever
form — and what it does change: the number of source reads a call issues.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen.schema import Gender, Transaction, TransactionChannel, UserProfile
from repro.features.aggregation import (
    AggregationConfig,
    AggregationWindowSpec,
    aggregation_vector,
    build_aggregate_row,
)
from repro.exceptions import FeatureError
from repro.features.basic import BASIC_FEATURE_NAMES, DEFAULT_PROFILE, BasicFeatureExtractor
from repro.features.plan import (
    EmbeddingBlockSpec,
    FeaturePlan,
    FeaturePlanExecutor,
    FeatureSource,
    InMemoryFeatureSource,
)
from repro.features.streaming import PointInTimeAggregationSource
from repro.hbase.client import (
    AGGREGATES_FAMILY,
    BASIC_FEATURES_FAMILY,
    EMBEDDINGS_FAMILY,
    HBaseClient,
)
from repro.nrl.embeddings import EmbeddingSet
from repro.serving.feature_source import HBaseFeatureSource, profile_from_row

TABLE = "titant_features"
KNOWN = [f"u{index}" for index in range(6)]
UNKNOWN = ["x0", "x1"]
DIMENSIONS = {"dw": 3, "s2v": 2}


def _profiles() -> Dict[str, UserProfile]:
    rng = np.random.default_rng(7)
    genders = list(Gender)
    return {
        user_id: UserProfile(
            user_id=user_id,
            age=int(rng.integers(18, 80)),
            gender=genders[index % 3],
            home_city=f"city_{int(rng.integers(0, 40)):03d}",
            account_age_days=int(rng.integers(0, 4000)),
            kyc_level=1 + index % 3,
            is_merchant=bool(index % 2),
            device_count=int(rng.integers(0, 5)),
            community=index,
        )
        for index, user_id in enumerate(KNOWN)
    }


def _embedding_sets() -> Dict[str, EmbeddingSet]:
    # u5 has a profile but no embedding row: known to one family only.
    rng = np.random.default_rng(11)
    return {
        name: EmbeddingSet(KNOWN[:5], rng.normal(size=(5, dimension)), name=name)
        for name, dimension in DIMENSIONS.items()
    }


def _aggregate_rows() -> Dict[str, Dict[str, object]]:
    # u0 has a profile but no aggregate row.
    rows: Dict[str, Dict[str, object]] = {}
    for index, user_id in enumerate(KNOWN[1:], start=1):
        row: Dict[str, object] = dict(
            build_aggregate_row(
                out_count=index,
                out_amount_sum=101.25 * index,
                out_amount_max=77.5 + index,
                out_night_count=index // 2,
                num_payees=index,
                in_count=index + 1,
                in_amount_sum=33.1 * index,
                in_amount_max=20.0 + index,
                num_payers=2,
            )
        )
        row["payers"] = (KNOWN[index - 1], UNKNOWN[0])
        rows[user_id] = row
    return rows


@lru_cache(maxsize=None)
def _world() -> Tuple[
    Dict[str, UserProfile],
    Dict[str, EmbeddingSet],
    Dict[str, Dict[str, object]],
    HBaseClient,
]:
    """The same accounts in both worlds: python objects and an HBase table."""
    profiles, embedding_sets, aggregates = _profiles(), _embedding_sets(), _aggregate_rows()
    hbase = HBaseClient()
    hbase.create_feature_store(TABLE)
    hbase.bulk_load(
        TABLE,
        BASIC_FEATURES_FAMILY,
        {
            user_id: {
                "age": profile.age,
                "gender": profile.gender.value,
                "home_city": profile.home_city,
                "account_age_days": profile.account_age_days,
                "kyc_level": profile.kyc_level,
                "is_merchant": profile.is_merchant,
                "device_count": profile.device_count,
                "community": profile.community,
            }
            for user_id, profile in profiles.items()
        },
        version=1,
    )
    hbase.bulk_load(
        TABLE,
        EMBEDDINGS_FAMILY,
        {
            user_id: {
                name: tuple(float(v) for v in embeddings[user_id])
                for name, embeddings in embedding_sets.items()
            }
            for user_id in KNOWN[:5]
        },
        version=1,
    )
    hbase.bulk_load(TABLE, AGGREGATES_FAMILY, aggregates, version=1)
    return profiles, embedding_sets, aggregates, hbase


def _transfer(payer_id: str, payee_id: str, transaction_id: str = "t") -> Transaction:
    return Transaction(
        transaction_id=transaction_id,
        day=3,
        hour=23,
        payer_id=payer_id,
        payee_id=payee_id,
        amount=250.0,
        channel=TransactionChannel.APP,
        trans_city="city_003",
        device_id="d0",
        is_new_device=True,
        ip_risk_score=0.25,
        payer_recent_txn_count=2,
        payer_recent_amount=900.0,
        payee_recent_inbound_count=4,
        is_fraud=False,
        label_available_day=0,
    )


def _sources() -> List[FeatureSource]:
    profiles, embedding_sets, aggregates, hbase = _world()
    return [
        InMemoryFeatureSource(profiles, embedding_sets, aggregates=aggregates),
        HBaseFeatureSource(hbase.connection(), TABLE),
    ]


class NdarraySource(FeatureSource):
    """The pre-rows contract: every embedding block as one float64 ndarray."""

    def __init__(self, inner: FeatureSource) -> None:
        self.inner = inner

    def profiles_for(self, user_ids: Sequence[str]):
        return self.inner.profiles_for(user_ids)

    def aggregate_rows(self, user_ids: Sequence[str]) -> Mapping[str, Mapping[str, object]]:
        return self.inner.aggregate_rows(user_ids)

    def aggregation_block(self, transactions):
        return self.inner.aggregation_block(transactions)

    def embedding_matrix(self, block: EmbeddingBlockSpec, user_ids: Sequence[str]) -> np.ndarray:
        rows = self.inner.embedding_matrix(block, user_ids)
        return np.array(rows, dtype=np.float64).reshape(len(user_ids), block.dimension)


def _transfer_at(day: int, hour: int, payer_id: str, payee_id: str, amount: float) -> Transaction:
    return dataclasses.replace(
        _transfer(payer_id, payee_id, f"h{day}-{hour}-{payer_id}-{payee_id}"),
        day=day,
        hour=hour,
        amount=amount,
    )


#: The point-in-time source's history: transfers among published and cold
#: accounts before and inside the batches' days.
HISTORY = [
    _transfer_at(day, hour, payer, payee, 40.0 + 7.5 * index)
    for index, (day, hour, payer, payee) in enumerate(
        [(0, 3, "u1", "u2"), (0, 9, "u2", "x0"), (1, 23, "u3", "u1"), (2, 1, "x1", "u1"),
         (3, 12, "u1", "u4"), (5, 0, "u5", "u2"), (9, 18, "u0", "u3"), (20, 7, "u4", "x1")]
    )
]


def _point_in_time_block(batch: Sequence[Transaction]) -> np.ndarray:
    """The batch's aggregation rows from a fresh point-in-time source."""
    return PointInTimeAggregationSource(AggregationConfig(), HISTORY).aggregation_block(batch)


def oracle_row(
    txn: Transaction, plan: FeaturePlan, aggregation: Optional[np.ndarray] = None
) -> np.ndarray:
    """One row the slow way: scalar basic ⊕ aggregation_vector (or the given
    point-in-time row) ⊕ lookups."""
    profiles, embedding_sets, aggregates, _ = _world()
    parts = [BasicFeatureExtractor(profiles).extract_one(txn)]
    if plan.aggregation is not None:
        if aggregation is None:
            aggregation = np.array(
                aggregation_vector(
                    aggregates.get(txn.payer_id, {}),
                    aggregates.get(txn.payee_id, {}),
                    txn.payer_id,
                )
            )
        parts.append(aggregation)
    for block in plan.embedding_blocks:
        for side in plan.sides:
            user_id = txn.payer_id if side == "payer" else txn.payee_id
            parts.append(embedding_sets[block.set_name].lookup([user_id])[0])
    return np.concatenate(parts)


accounts = st.sampled_from(KNOWN + UNKNOWN)
amounts = st.one_of(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    st.sampled_from([0.0, 100.0, 300.0, 4999.99, 5000.0, 12000.0]),
)
transactions = st.builds(
    Transaction,
    transaction_id=st.uuids().map(str),
    day=st.integers(0, 60),
    hour=st.integers(0, 23),
    payer_id=accounts,
    payee_id=accounts,  # independent of the payer: self-transfers happen
    amount=amounts,
    channel=st.sampled_from(list(TransactionChannel)),
    trans_city=st.sampled_from(["city_000", "city_003", "city_017", "city_x", "nowhere"]),
    device_id=st.just("d0"),
    is_new_device=st.booleans(),
    ip_risk_score=st.floats(min_value=0.0, max_value=1.0),
    payer_recent_txn_count=st.integers(0, 50),
    payer_recent_amount=st.floats(min_value=0.0, max_value=1e6),
    payee_recent_inbound_count=st.integers(0, 500),
    is_fraud=st.booleans(),
    label_available_day=st.just(0),
)
# Size first, so 64-row batches are as likely as 2-row ones (``st.lists`` alone
# rarely grows past a few dozen elements).
batches = st.integers(0, 70).flatmap(
    lambda size: st.lists(transactions, min_size=size, max_size=size)
)
plans = st.builds(
    FeaturePlan,
    embedding_blocks=st.lists(
        st.sampled_from(sorted(DIMENSIONS)), unique=True, max_size=2
    ).map(lambda names: tuple(EmbeddingBlockSpec(n, DIMENSIONS[n]) for n in names)),
    embedding_side=st.sampled_from(["payer", "payee", "both"]),
    aggregation=st.sampled_from([None, AggregationWindowSpec()]),
)


def _check_assembly(source: FeatureSource, plan: FeaturePlan, batch, expected, alone) -> None:
    executor = FeaturePlanExecutor(plan, source)
    matrix = executor.assemble(batch, with_labels=True)
    values = matrix.values
    assert values.shape == (len(batch), plan.num_features)
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert matrix.feature_names == plan.feature_names
    assert matrix.row_ids == [txn.transaction_id for txn in batch]
    assert matrix.labels.tolist() == [float(txn.is_fraud) for txn in batch]
    assert [row.tobytes() for row in values] == expected
    for index in range(0, len(batch), 7):
        single = executor.assemble([batch[index]], with_labels=False).values[0]
        assert single.tobytes() == alone(index)


#: A payer and payee on both sides of one call, a self-transfer, cold
#: accounts (x0, x1) and u5, which has a profile but no embedding row.
EDGE_BATCH = [
    _transfer("u1", "u5", "a"),
    _transfer("u5", "u2", "b"),
    _transfer("x0", "x0", "c"),
    _transfer("u2", "x1", "d"),
    _transfer("u2", "u2", "e"),
]


def _full_plan(side: str) -> FeaturePlan:
    return FeaturePlan(
        embedding_blocks=(EmbeddingBlockSpec("dw", 3), EmbeddingBlockSpec("s2v", 2)),
        embedding_side=side,
        aggregation=AggregationWindowSpec(),
    )


class TestAssemblyMatchesRowOracle:
    @settings(max_examples=60, deadline=None)
    @given(batch=batches, plan=plans)
    @example(batch=EDGE_BATCH, plan=_full_plan("payer"))
    @example(batch=EDGE_BATCH, plan=_full_plan("payee"))
    @example(batch=EDGE_BATCH, plan=_full_plan("both"))
    def test_bytes_equal_to_oracle_and_batch_invariant(self, batch, plan):
        self._check_every_source(batch, plan)

    @pytest.mark.slow
    @settings(max_examples=600, deadline=None)
    @given(batch=batches, plan=plans)
    def test_bytes_equal_to_oracle_soak(self, batch, plan):
        self._check_every_source(batch, plan)

    @staticmethod
    def _check_every_source(batch, plan):
        expected = [oracle_row(txn, plan).tobytes() for txn in batch]
        for source in _sources():
            # Batch-composition invariance: what lets the coalescer regroup
            # requests without moving a probability.  A source on the old
            # contract (an ndarray per embedding block) gives the same bytes.
            for form in (source, NdarraySource(source)):
                _check_assembly(form, plan, batch, expected, expected.__getitem__)
        # The point-in-time source serves each row its aggregates as of the
        # instant before it, batch-mates included; a row alone sees none.
        profiles, embedding_sets, _, _ = _world()
        block = _point_in_time_block(batch) if plan.aggregation else [None] * len(batch)
        expected = [oracle_row(txn, plan, row).tobytes() for txn, row in zip(batch, block)]

        def alone(index: int) -> bytes:
            txn = batch[index]
            row = _point_in_time_block([txn])[0] if plan.aggregation else None
            return oracle_row(txn, plan, row).tobytes()

        point_in_time = InMemoryFeatureSource(
            profiles,
            embedding_sets,
            aggregates=PointInTimeAggregationSource(AggregationConfig(), HISTORY),
        )
        for form in (point_in_time, NdarraySource(point_in_time)):
            _check_assembly(form, plan, batch, expected, alone)

    def test_zero_denominator_stays_in_its_own_row(self):
        # payer_recent_amount is caller-supplied and unvalidated: -1 makes the
        # amount ratio's denominator zero.  That is an inf cell in that row —
        # not an exception that fails every request coalesced with it.
        bad = dataclasses.replace(_transfer("u1", "u2", "bad"), payer_recent_amount=-1.0)
        batch = [_transfer("u1", "u2", "a"), bad, _transfer("u3", "x0", "c")]
        ratio = FULL_PLAN.feature_names.index("amount_over_recent_amount")
        for source in _sources():
            executor = FeaturePlanExecutor(FULL_PLAN, source)
            with np.errstate(divide="ignore"):
                values = executor.assemble(batch, with_labels=False).values
            assert values[1, ratio] == np.inf
            for index in (0, 2):
                assert np.isfinite(values[index]).all()
                alone = executor.assemble([batch[index]], with_labels=False).values[0]
                assert values[index].tobytes() == alone.tobytes()

    def test_empty_batch(self):
        plan = FeaturePlan(
            embedding_blocks=(EmbeddingBlockSpec("dw", 3),),
            aggregation=AggregationWindowSpec(),
        )
        for source in _sources():
            matrix = FeaturePlanExecutor(plan, source).assemble([])
            assert matrix.values.shape == (0, plan.num_features)
            assert matrix.values.dtype == np.float64
            assert matrix.row_ids == [] and matrix.labels.shape == (0,)


class CountingSource(FeatureSource):
    """Records the ids of every read it forwards."""

    def __init__(self, inner: FeatureSource) -> None:
        self.inner = inner
        self.reads: List[Tuple[str, Tuple[str, ...]]] = []

    def profiles_for(self, user_ids: Sequence[str]):
        self.reads.append(("profiles", tuple(user_ids)))
        return self.inner.profiles_for(user_ids)

    def aggregate_rows(self, user_ids: Sequence[str]) -> Mapping[str, Mapping[str, object]]:
        self.reads.append(("aggregates", tuple(user_ids)))
        return self.inner.aggregate_rows(user_ids)

    def embedding_matrix(self, block: EmbeddingBlockSpec, user_ids: Sequence[str]) -> np.ndarray:
        self.reads.append((block.set_name, tuple(user_ids)))
        return self.inner.embedding_matrix(block, user_ids)


FULL_PLAN = _full_plan("both")


class ReshapedSource(CountingSource):
    """Serves one embedding block's rows through ``reshape`` (rows -> rows)."""

    def __init__(self, inner: FeatureSource, reshape) -> None:
        super().__init__(inner)
        self.reshape = reshape

    def embedding_matrix(self, block: EmbeddingBlockSpec, user_ids: Sequence[str]):
        return self.reshape(list(super().embedding_matrix(block, user_ids)))


class TestSourceContract:
    #: Rows a source must not return: a short row, a long one, a row missing,
    #: a row too many, and an ndarray block one column too wide.
    WRONG = {
        "short row": lambda rows: [rows[0][:-1], *rows[1:]],
        "long row": lambda rows: [*rows[:-1], (*rows[-1], 0.5)],
        "row missing": lambda rows: rows[1:],
        "extra row": lambda rows: [*rows, rows[0]],
        "wide ndarray": lambda rows: np.hstack([np.array(rows), np.ones((len(rows), 1))]),
    }

    @pytest.mark.parametrize("wrong", sorted(WRONG))
    def test_an_embedding_row_of_the_wrong_width_is_a_feature_error(self, wrong):
        batch = [_transfer("u1", "u2", "a"), _transfer("u3", "x0", "b")]
        for inner in _sources():
            executor = FeaturePlanExecutor(FULL_PLAN, ReshapedSource(inner, self.WRONG[wrong]))
            with pytest.raises(FeatureError, match="source's 'dw' block is not 4 rows of 3 cells"):
                executor.assemble(batch, with_labels=False)

    def test_the_executor_runs_on_the_three_methods_the_traced_harness_overrides(self):
        # The benchmark's traced pass wraps the serving source in a
        # ``TimedSource`` that overrides exactly these three reads, so the
        # executor may rely on no other source method (aggregation_block is
        # the base class's None through it).
        from benchmarks.titant_bench.trace import TimedSource, Tracer

        def overrides(cls: type) -> set:
            public = {name: value for name, value in vars(cls).items() if not name.startswith("_")}
            return {name for name, value in public.items() if callable(value)}

        three = {"profiles_for", "aggregate_rows", "embedding_matrix"}
        assert overrides(TimedSource) == overrides(CountingSource) == three
        for inner in _sources():
            expected = FeaturePlanExecutor(FULL_PLAN, inner).assemble(EDGE_BATCH).values.tobytes()
            for wrapper in (CountingSource(inner), TimedSource(inner, Tracer())):
                values = FeaturePlanExecutor(FULL_PLAN, wrapper).assemble(EDGE_BATCH).values
                assert values.tobytes() == expected


class TestLookupTables:
    """The hour, channel and transfer-city cells come from tables built once;
    every entry must read what the scalar reference computes."""

    #: Every member, plus a member's plain string: not the member, so the
    #: reference (which tests ``is``) scores it an all-zero one-hot.
    CHANNELS = list(TransactionChannel) + ["app"]
    #: Cities of the published profiles' form, and names no tier or bucket parses.
    CITIES = ["city_000", "city_003", "city_017", "city_x", "nowhere"]

    def _grid(self) -> List[Transaction]:
        grid = []
        for hour in range(24):
            for channel in self.CHANNELS:
                for city in self.CITIES:
                    payer, payee = (KNOWN + UNKNOWN)[hour % 8], (UNKNOWN + KNOWN)[len(grid) % 8]
                    grid.append(
                        dataclasses.replace(
                            _transfer(payer, payee, f"t{len(grid)}"),
                            hour=hour,
                            channel=channel,
                            trans_city=city,
                        )
                    )
        return grid

    def test_every_hour_channel_and_city_bytes_equal_to_extract_one(self):
        profiles = _world()[0]
        extractor = BasicFeatureExtractor(profiles)
        grid = self._grid()
        expected = [extractor.extract_one(txn).tobytes() for txn in grid]
        for index, txn in enumerate(grid):
            alone = extractor.extract([txn], with_labels=False).values[0]
            assert alone.tobytes() == expected[index]
        for start in range(0, len(grid), 64):
            block = extractor.extract(grid[start : start + 64], with_labels=False).values
            assert [row.tobytes() for row in block] == expected[start : start + 64]

    def test_a_non_member_channel_is_an_all_zero_one_hot(self):
        names = ("app", "web", "qr", "bank_card")
        columns = [BASIC_FEATURE_NAMES.index(f"channel_{name}") for name in names]
        extractor = BasicFeatureExtractor(_world()[0])
        for channel in ("app", "carrier_pigeon", None):
            txn = dataclasses.replace(_transfer("u1", "x0"), channel=channel)
            values = extractor.extract([txn], with_labels=False).values
            assert values[0, columns].tolist() == [0.0] * 4

    def test_an_hour_outside_the_day_is_a_feature_error_not_a_wrapped_index(self):
        extractor = BasicFeatureExtractor(_world()[0])
        for hour in (24, 30, -1, -5, 5.5, float("nan")):
            txn = dataclasses.replace(_transfer("u1", "x0"), hour=hour)
            with pytest.raises(FeatureError, match="hour must be an integer in 0-23"):
                extractor.extract([_transfer("u2", "u3"), txn], with_labels=False)


class TestOneReadPerFamilyPerCall:
    def test_each_family_read_once_over_distinct_accounts(self):
        # u1 pays twice, u2 is on both sides, x0 → x0 is a self-transfer.
        batch = [
            _transfer("u1", "u2", "a"),
            _transfer("u2", "u3", "b"),
            _transfer("u1", "x0", "c"),
            _transfer("x0", "x0", "d"),
        ]
        for inner in _sources():
            source = CountingSource(inner)
            FeaturePlanExecutor(FULL_PLAN, source).assemble(batch, with_labels=False)
            assert sorted(name for name, _ in source.reads) == [
                "aggregates",
                "dw",
                "profiles",
                "s2v",
            ]
            for _, user_ids in source.reads:
                assert len(set(user_ids)) == len(user_ids)
                assert set(user_ids) == {"u1", "u2", "u3", "x0"}

    def test_missing_embeddings_counts_user_block_pairs_not_sides(self):
        # u5 and x0 have no embedding row.  u5 is a payee then a payer, x0
        # transfers to itself: two unpublished accounts × two blocks, however
        # many sides they appear on.
        _, _, _, hbase = _world()
        source = HBaseFeatureSource(hbase.connection(), TABLE)
        executor = FeaturePlanExecutor(FULL_PLAN, source)
        executor.assemble(
            [_transfer("u1", "u5", "a"), _transfer("u5", "u2", "b"), _transfer("x0", "x0", "c")],
            with_labels=False,
        )
        assert source.missing_embeddings == 4
        executor.assemble([_transfer("x0", "x0")], with_labels=False)
        assert source.missing_embeddings == 6


class TestColdAccountDefault:
    """One definition of the cold-account default, read by both worlds."""

    def test_unpublished_account_is_bytes_equal_offline_and_online(self):
        txn = _transfer("never_seen", "also_never_seen")
        hbase = HBaseClient()
        hbase.create_feature_store(TABLE)
        _, embedding_sets, _, _ = _world()
        offline = FeaturePlanExecutor(
            FULL_PLAN, InMemoryFeatureSource({}, embedding_sets)
        ).assemble_single(txn)
        online = FeaturePlanExecutor(
            FULL_PLAN, HBaseFeatureSource(hbase, TABLE)
        ).assemble_single(txn)
        assert offline.tobytes() == online.tobytes()
        assert offline[:52].tobytes() == BasicFeatureExtractor({}).extract_one(txn).tobytes()

    def test_absent_cells_of_a_stored_row_read_the_same_default(self):
        hbase = HBaseClient()
        hbase.create_feature_store(TABLE)
        hbase.put(TABLE, "partial", BASIC_FEATURES_FAMILY, {"age": 61, "kyc_level": 1}, version=1)
        partial = dataclasses.replace(DEFAULT_PROFILE, user_id="partial", age=61, kyc_level=1)
        txn = _transfer("partial", "never_seen")
        online = FeaturePlanExecutor(
            FeaturePlan(), HBaseFeatureSource(hbase, TABLE)
        ).assemble_single(txn)
        offline = FeaturePlanExecutor(
            FeaturePlan(), InMemoryFeatureSource({"partial": partial})
        ).assemble_single(txn)
        assert online.tobytes() == offline.tobytes()
        assert online[0] == 61.0 and online[10] == float(DEFAULT_PROFILE.age)
        assert profile_from_row("partial", {"age": 61, "kyc_level": 1}) == partial
