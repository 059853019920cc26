"""Tests of the Ali-HBase substrate and the online serving path."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from repro.datagen.schema import TransactionChannel
from repro.exceptions import (
    ModelNotLoadedError,
    RowNotFoundError,
    ServingError,
    StorageError,
    TableNotFoundError,
)
from repro.hbase import HBaseClient, HBaseTable, WriteAheadLog
from repro.hbase.client import BASIC_FEATURES_FAMILY, EMBEDDINGS_FAMILY
from repro.hbase.region import RegionRouter
from repro.models.gbdt import GradientBoostingClassifier
from repro.serving import (
    AlipayServer,
    LatencyTracker,
    ModelServer,
    ModelServerConfig,
    TransactionRequest,
)
from repro.serving.alipay import TransactionOutcome


def _cache_read(cache, row_key, now, stored=None):
    """One ``RowCache.multi_get`` of one key whose store holds ``stored``:
    the value read (None when absent) and whether the cache probed the store."""
    rows = {row_key: None}
    probed = cache.multi_get("t", rows, "cf", None, now, lambda key, version: stored)
    return rows[row_key], probed == [row_key]


class TestHBaseTable:
    def test_put_get_latest_version(self):
        table = HBaseTable("features", ["cf"])
        table.put("zoe", "cf", {"age": 30}, version=1)
        table.put("zoe", "cf", {"age": 31}, version=2)
        assert table.get("zoe", "cf")["age"] == 31
        assert table.get("zoe", "cf", version=1)["age"] == 30

    def test_missing_row_raises(self):
        table = HBaseTable("features", ["cf"])
        with pytest.raises(RowNotFoundError):
            table.get("nobody", "cf")

    def test_version_pruning(self):
        table = HBaseTable("features", ["cf"], max_versions=2)
        for version in range(1, 5):
            table.put("zoe", "cf", {"age": version}, version=version)
        versions = table.family("cf").cell_versions("zoe", "age")
        assert versions == [3, 4]

    def test_unknown_family_rejected(self):
        table = HBaseTable("features", ["cf"])
        with pytest.raises(StorageError):
            table.get("zoe", "other")

    def test_scan_with_prefix_and_limit(self):
        table = HBaseTable("features", ["cf"])
        for index in range(10):
            table.put(f"u{index:02d}", "cf", {"x": index}, version=1)
        results = table.scan("cf", prefix="u0", limit=5)
        assert len(results) == 5
        assert all(key.startswith("u0") for key, _ in results)

    @pytest.mark.parametrize("through", ["table", "client"])
    def test_scan_limit_zero_returns_no_rows(self, through):
        """Regression: the limit was tested only after a row was appended, so
        ``limit=0`` returned the first row."""
        client = HBaseClient()
        table = client.create_table("features", ["cf"])
        for key in ("a", "b", "c"):
            client.put("features", key, "cf", {"x": 1}, version=1)
        scan = table.scan if through == "table" else functools.partial(client.scan, "features")
        assert scan("cf", limit=0) == []
        assert scan("cf", limit=1) == [("a", {"x": 1})]
        assert len(scan("cf", limit=3)) == 3

    @pytest.mark.parametrize("limit", [-1, -5])
    def test_scan_negative_limit_raises(self, limit):
        table = HBaseTable("features", ["cf"])
        table.put("a", "cf", {"x": 1}, version=1)
        with pytest.raises(StorageError, match="limit"):
            table.scan("cf", limit=limit)


class TestRegionsAndWAL:
    def test_routing_is_deterministic_and_spread(self):
        router = RegionRouter(num_regions=4)
        assert router.region_for("user_1").server_id == router.region_for("user_1").server_id
        for index in range(200):
            router.record_write(f"user_{index}")
        report = router.load_report()
        assert sum(stats["writes"] for stats in report.values()) == 200
        assert all(stats["writes"] > 0 for stats in report.values())

    def test_wal_replay_restores_table(self):
        wal = WriteAheadLog()
        original = HBaseTable("t", ["cf"])
        for index in range(5):
            wal.append("t", f"u{index}", "cf", {"x": index}, version=1)
            original.put(f"u{index}", "cf", {"x": index}, version=1)
        recovered = HBaseTable("t", ["cf"])
        assert wal.replay(recovered, table_name="t") == 5
        assert recovered.get("u3", "cf") == original.get("u3", "cf")

    @pytest.mark.parametrize("cap", [1, 3])
    def test_a_capped_wal_keeps_the_newest_entries(self, cap):
        wal = WriteAheadLog(max_entries=cap)
        for index in range(10):
            wal.append("t" if index % 2 else "s", f"u{index}", "cf", {"x": index}, version=index)
        newest = list(range(10 - cap, 10))
        assert len(wal) == cap
        assert [entry.sequence for entry in wal.entries()] == [i + 1 for i in newest]
        assert [entry.row_key for entry in wal.entries(table="t")] == [
            f"u{i}" for i in newest if i % 2
        ]
        recovered = HBaseTable("t", ["cf"])
        assert wal.replay(recovered, table_name="t") == sum(i % 2 for i in newest)
        assert recovered.row_keys() == [f"u{i}" for i in newest if i % 2]
        assert all(recovered.get(f"u{i}", "cf") == {"x": i} for i in newest if i % 2)

    def test_an_uncapped_wal_keeps_every_entry(self):
        wal = WriteAheadLog()
        for index in range(50):
            wal.append("t", f"u{index}", "cf", {"x": index}, version=1)
        assert [entry.sequence for entry in wal.entries()] == list(range(1, 51))
        recovered = HBaseTable("t", ["cf"])
        assert wal.replay(recovered) == 50
        assert len(recovered.row_keys()) == 50

    def test_client_end_to_end(self):
        client = HBaseClient()
        client.create_feature_store()
        client.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        assert client.get("titant_features", "u1", BASIC_FEATURES_FAMILY)["age"] == 30
        assert client.multi_get(
            "titant_features", ["ghost"], BASIC_FEATURES_FAMILY, default={"age": 0}
        )["ghost"] == {"age": 0}
        with pytest.raises(TableNotFoundError):
            client.get("missing_table", "u1", BASIC_FEATURES_FAMILY)
        assert client.wal_size() == 1

    def test_defaulted_read_raises_on_missing_table(self):
        client = HBaseClient()
        with pytest.raises(TableNotFoundError):
            client.multi_get("nope", ["u1"], BASIC_FEATURES_FAMILY, default={})

    def test_multi_get_batches_and_defaults(self):
        client = HBaseClient()
        client.create_feature_store()
        for index in range(8):
            client.put(
                "titant_features", f"u{index}", BASIC_FEATURES_FAMILY, {"age": index}, version=1
            )
        keys = [f"u{index}" for index in range(8)] + ["ghost", "u0"]  # dup + miss
        rows = client.multi_get(
            "titant_features", keys, BASIC_FEATURES_FAMILY, default={"age": -1}
        )
        assert len(rows) == 9
        assert rows["u3"]["age"] == 3
        assert rows["ghost"] == {"age": -1}
        with pytest.raises(TableNotFoundError):
            client.multi_get("missing", keys, BASIC_FEATURES_FAMILY)

    def test_row_cache_hits_and_write_invalidation(self):
        client = HBaseClient(row_cache_ttl_s=60.0)
        client.create_feature_store()
        client.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        assert client.get("titant_features", "u1", BASIC_FEATURES_FAMILY)["age"] == 30
        reads_before = sum(
            stats["reads"] for stats in client.region_load_report().values()
        )
        assert client.get("titant_features", "u1", BASIC_FEATURES_FAMILY)["age"] == 30
        reads_after = sum(
            stats["reads"] for stats in client.region_load_report().values()
        )
        assert reads_after == reads_before  # served from cache
        assert client.row_cache_stats()["hits"] >= 1
        # A write updates the cached row, so the next read sees it.
        client.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 31}, version=2)
        assert client.get("titant_features", "u1", BASIC_FEATURES_FAMILY)["age"] == 31

    def test_expired_rows_release_cache_capacity(self):
        """Regression: an expired row must not keep occupying max_rows.

        Before the fix, the cache deleted the expired (column family,
        version) sub-entry but left the empty row entry behind, so dead rows
        counted against capacity and could evict live rows.
        """
        from repro.hbase.cache import RowCache

        cache = RowCache(ttl_seconds=30.0, max_rows=2)
        assert _cache_read(cache, "stale", 0.0, {"v": 1}) == ({"v": 1}, True)
        assert _cache_read(cache, "live", 5.0, {"v": 2}) == ({"v": 2}, True)
        # A hit moves 'stale' behind 'live' in the LRU order...
        assert _cache_read(cache, "stale", 29.0) == ({"v": 1}, False)
        # ...then it expires; the empty row entry must be dropped entirely.
        assert _cache_read(cache, "stale", 31.0) == (None, True)
        assert len(cache) == 1
        assert cache.stats()["rows"] == 1.0
        # With capacity freed, inserting a new row must not evict the live one.
        _cache_read(cache, "new", 31.0, {"v": 3})
        assert _cache_read(cache, "live", 33.0) == ({"v": 2}, False)

    def test_cache_full_of_expired_rows_keeps_live_rows(self):
        from repro.hbase.cache import RowCache

        cache = RowCache(ttl_seconds=10.0, max_rows=4)
        for i in range(4):
            _cache_read(cache, f"stale{i}", 0.0, {"v": i})
        # Touch every expired row: each lookup must free its slot.
        for i in range(4):
            assert _cache_read(cache, f"stale{i}", 20.0) == (None, True)
        assert len(cache) == 0
        for i in range(4):
            _cache_read(cache, f"live{i}", 20.0, {"v": i})
        for i in range(4):
            assert _cache_read(cache, f"live{i}", 25.0) == ({"v": i}, False)

    def test_row_cache_disabled(self):
        client = HBaseClient(row_cache_ttl_s=0.0)
        client.create_feature_store()
        client.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        client.get("titant_features", "u1", BASIC_FEATURES_FAMILY)
        assert client.row_cache_stats() == {
            "rows": 0.0,
            "hits": 0.0,
            "misses": 0.0,
            "hit_rate": 0.0,
        }

    @pytest.mark.parametrize("ttl", [float("nan"), -1.0])
    def test_nan_or_negative_client_ttl_is_rejected(self, ttl):
        """A NaN TTL used to fail ``ttl > 0`` and build no cache, silently."""
        with pytest.raises(ValueError, match="ttl_seconds must be positive"):
            HBaseClient(row_cache_ttl_s=ttl)

    @pytest.mark.parametrize("ttl", [float("nan"), -1.0])
    def test_nan_or_negative_connection_ttl_is_rejected(self, ttl):
        parent = HBaseClient(row_cache_ttl_s=60.0)
        with pytest.raises(ValueError, match="ttl_seconds must be positive"):
            parent.connection(row_cache_ttl_s=ttl)
        assert parent.connection(row_cache_ttl_s=0.0).row_cache_stats()["rows"] == 0.0

    def test_nan_row_cache_ttl_is_rejected(self):
        """A NaN TTL used to be accepted, and then every read missed
        (``now < nan`` is False)."""
        from repro.hbase.cache import RowCache

        with pytest.raises(ValueError, match="ttl_seconds must be positive"):
            RowCache(ttl_seconds=float("nan"))


class TestLatencyTracker:
    def test_report_percentiles(self):
        tracker = LatencyTracker(sla_budget_ms=10.0)
        for value in (1.0, 2.0, 3.0, 20.0):
            tracker.record(value)
        report = LatencyTracker.merged_report([tracker])
        assert report.count == 4
        assert report.max_ms == 20.0
        assert report.sla_violations == 1
        assert report.p99_ms > tracker.sla_budget_ms

    def test_invalid_values_rejected(self):
        tracker = LatencyTracker()
        with pytest.raises(ServingError):
            tracker.record(-1.0)
        with pytest.raises(ServingError):
            LatencyTracker(sla_budget_ms=0.0)

    def test_a_nan_sample_is_rejected_and_leaves_the_report_intact(self):
        """A NaN sample used to pass ``latency_ms < 0`` and turn p50, p99 and
        max into NaN, with zero SLA violations."""
        tracker = LatencyTracker(sla_budget_ms=10.0)
        tracker.record(2.0)
        with pytest.raises(ServingError, match="non-negative"):
            tracker.record(float("nan"))
        report = LatencyTracker.merged_report([tracker])
        assert (report.count, report.p50_ms, report.p99_ms, report.max_ms) == (1, 2.0, 2.0, 2.0)
        assert report.sla_violations == 0

    def test_a_batch_record_stores_count_equal_samples(self):
        """One call per batch stores what one call per row stored."""
        batched, single = LatencyTracker(sla_budget_ms=2.0), LatencyTracker(sla_budget_ms=2.0)
        batched.record(1.0, 2)
        batched.record(3.0, 3)
        for value in (1.0, 1.0, 3.0, 3.0, 3.0):
            single.record(value)
        assert batched.latencies_ms == single.latencies_ms == [1.0, 1.0, 3.0, 3.0, 3.0]
        assert LatencyTracker.merged_report([batched]) == LatencyTracker.merged_report([single])

    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_a_nan_or_negative_batch_record_raises_and_stores_nothing(self, value):
        tracker = LatencyTracker()
        tracker.record(2.0)
        with pytest.raises(ServingError, match="non-negative"):
            tracker.record(value, 5)
        assert tracker.latencies_ms == [2.0]

    def test_a_batch_record_of_zero_rows_stores_nothing(self):
        tracker = LatencyTracker()
        tracker.record(4.0, 0)
        assert len(tracker) == 0
        empty = LatencyTracker.merged_report([LatencyTracker()])
        assert LatencyTracker.merged_report([tracker]) == empty


@pytest.fixture()
def serving_stack(world, dataset, feature_matrices):
    """An HBase store + Model Server loaded with a trained basic-features GBDT."""
    train, _ = feature_matrices
    model = GradientBoostingClassifier(num_trees=20, seed=0).fit(train.values, train.labels)
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
            version=dataset.spec.test_day,
        )
    server = ModelServer(hbase, ModelServerConfig())
    server.load_model(model, version="test_v1", threshold=0.5)
    return hbase, server


def _request(**overrides):
    fields = dict(
        transaction_id="t1",
        payer_id="a",
        payee_id="b",
        amount=10.0,
        hour=12,
        day=8,
        channel=TransactionChannel.APP,
        trans_city="city_001",
        device_id="d",
        is_new_device=False,
        ip_risk_score=0.1,
    )
    fields.update(overrides)
    return TransactionRequest(**fields)


class TestRequestHour:
    """An hour outside 0-23 used to be scored, and its ingest moved the
    window engine's watermark (a day-8 request at hour 30 set it to day 9.25)."""

    @pytest.mark.parametrize("hour", [24, 30, -1, -5, 5.5, float("nan")])
    def test_an_hour_outside_the_day_is_rejected_where_the_request_is_built(self, hour):
        with pytest.raises(ServingError, match="hour must be an integer in 0-23"):
            _request(hour=hour)
        with pytest.raises(ServingError, match="hour must be an integer in 0-23"):
            dataclasses.replace(_request(), hour=hour)

    def test_every_hour_of_the_day_is_accepted(self):
        assert [_request(hour=hour).hour for hour in range(24)] == list(range(24))


class TestModelServer:
    def test_predict_without_model_raises(self):
        server = ModelServer(HBaseClient())
        server.hbase.create_feature_store()
        request = TransactionRequest(
            transaction_id="t1",
            payer_id="a",
            payee_id="b",
            amount=10.0,
            hour=12,
            day=0,
            channel=list(__import__("repro.datagen.schema", fromlist=["TransactionChannel"]).TransactionChannel)[0],
            trans_city="city_001",
            device_id="d",
            is_new_device=False,
            ip_risk_score=0.1,
        )
        with pytest.raises(ModelNotLoadedError):
            server.predict_batch([request])

    def test_online_prediction_matches_offline_features(self, serving_stack, world, dataset):
        _, server = serving_stack
        from scalar_basic import ScalarBasicExtractor

        extractor = ScalarBasicExtractor(world.profiles_by_id)
        txn = dataset.test_transactions[0]
        offline_vector = extractor.extract_one(txn)
        online_vector = server.plan_executor.assemble_single(
            TransactionRequest.from_transaction(txn).to_transaction()
        )
        assert np.allclose(offline_vector, online_vector)

    def test_predict_batch_matches_scalar_predictions(self, serving_stack, dataset):
        _, server = serving_stack
        requests = [
            TransactionRequest.from_transaction(txn)
            for txn in dataset.test_transactions[:32]
        ]
        scalar = [server.predict_batch([request])[0].fraud_probability for request in requests]
        batch = [r.fraud_probability for r in server.predict_batch(requests)]
        assert np.allclose(scalar, batch)

    def test_load_model_does_not_mutate_shared_config(self, serving_stack, feature_matrices):
        hbase, first = serving_stack
        train, _ = feature_matrices
        shared = ModelServerConfig(alert_threshold=0.5)
        a = ModelServer(hbase, shared)
        b = ModelServer(hbase, shared)
        model = GradientBoostingClassifier(num_trees=5, seed=3).fit(train.values, train.labels)
        a.load_model(model, version="va", threshold=0.9)
        b.load_model(model, version="vb", threshold=0.1)
        assert shared.alert_threshold == pytest.approx(0.5)
        assert a.alert_threshold == pytest.approx(0.9)
        assert b.alert_threshold == pytest.approx(0.1)

    def test_latency_is_milliseconds_scale(self, serving_stack, dataset):
        _, server = serving_stack
        for txn in dataset.test_transactions[:30]:
            server.predict_batch([TransactionRequest.from_transaction(txn)])
        report = LatencyTracker.merged_report([server.latency])
        assert report.count == 30
        assert report.p99_ms < 50.0  # the paper's "tens of milliseconds" budget

    def test_model_hot_reload_changes_version(self, serving_stack, feature_matrices):
        _, server = serving_stack
        train, _ = feature_matrices
        new_model = GradientBoostingClassifier(num_trees=5, seed=1).fit(train.values, train.labels)
        server.load_model(new_model, version="test_v2", threshold=0.7)
        assert server.model_version == "test_v2"
        assert server.alert_threshold == pytest.approx(0.7)

    def test_unfitted_model_rejected(self, serving_stack):
        _, server = serving_stack
        with pytest.raises(ServingError):
            server.load_model(GradientBoostingClassifier(), version="bad")


class TestAlipayServer:
    def test_interruption_flow_and_report(self, serving_stack, dataset):
        _, server = serving_stack
        alipay = AlipayServer(server)
        report = alipay.replay_transactions(dataset.test_transactions[:200])
        assert report.total == 200
        assert report.approved + report.interrupted == 200
        # Every interruption generated a user notification.
        assert len(alipay.notifications) == report.interrupted
        assert 0.0 <= report.alert_precision <= 1.0
        assert 0.0 <= report.alert_recall <= 1.0

    def test_fleet_shards_requests_by_payer(self, serving_stack, feature_matrices, dataset):
        """Without a router the front end shards: one payer → one replica."""
        hbase, first = serving_stack
        train, _ = feature_matrices
        second = ModelServer(hbase, ModelServerConfig())
        second.load_model(
            GradientBoostingClassifier(num_trees=5, seed=9).fit(train.values, train.labels),
            version="replica",
        )
        alipay = AlipayServer([first, second])
        before = first.requests_served + second.requests_served
        requests = [
            TransactionRequest.from_transaction(txn)
            for txn in dataset.test_transactions[:40]
        ]
        replicas_by_payer = {}
        for request in requests:
            version = alipay.process(request).response.model_version
            replicas_by_payer.setdefault(request.payer_id, set()).add(version)
        assert all(len(replicas) == 1 for replicas in replicas_by_payer.values())
        assert {v for replicas in replicas_by_payer.values() for v in replicas} == {
            first.model_version,
            "replica",
        }
        assert first.requests_served + second.requests_served - before == len(requests)

    def test_latency_report_aggregates(self, serving_stack, dataset):
        _, server = serving_stack
        alipay = AlipayServer(server)
        alipay.replay_transactions(dataset.test_transactions[:20])
        summary = alipay.latency_report()
        assert summary["count"] >= 20.0
        assert summary["mean_ms"] > 0.0

    def test_fleet_p99_merges_raw_samples(self):
        # Two servers with very different loads: pooling the samples gives the
        # true fleet p99; max(per-server p99) would report ~10 ms instead.
        fast = LatencyTracker(sla_budget_ms=50.0)
        slow = LatencyTracker(sla_budget_ms=50.0)
        for _ in range(99):
            fast.record(1.0)
        slow.record(10.0)
        merged = LatencyTracker.merged_report([fast, slow])
        assert merged.count == 100
        assert merged.p99_ms < 10.0
        alone = [LatencyTracker.merged_report([tracker]).p99_ms for tracker in (fast, slow)]
        assert merged.p99_ms < max(alone) + 1e-9

    def test_replay_batched_matches_scalar_outcomes(self, serving_stack, dataset):
        hbase, server = serving_stack
        transactions = dataset.test_transactions[:64]
        scalar = AlipayServer(server)
        scalar_report = scalar.replay_transactions(transactions)
        batched = AlipayServer(server)
        batched_report = batched.replay_transactions(transactions, batch_size=16)
        assert batched_report.total == scalar_report.total == 64
        assert batched_report.interrupted == scalar_report.interrupted
        assert batched_report.true_alerts == scalar_report.true_alerts
        assert [s.response.fraud_probability for s in batched.served] == pytest.approx(
            [s.response.fraud_probability for s in scalar.served]
        )

    def test_process_batch_spreads_over_fleet(self, serving_stack, feature_matrices, dataset):
        hbase, first = serving_stack
        train, _ = feature_matrices
        second = ModelServer(hbase, ModelServerConfig())
        second.load_model(
            GradientBoostingClassifier(num_trees=5, seed=9).fit(train.values, train.labels),
            version="replica",
        )
        alipay = AlipayServer([first, second])
        first_before = first.requests_served
        requests = [
            TransactionRequest.from_transaction(txn)
            for txn in dataset.test_transactions[:40]
        ]
        served = alipay.process_batch(requests)
        assert len(served) == 40
        assert [s.request.transaction_id for s in served] == [
            r.transaction_id for r in requests
        ]
        # Sharded, not chunked: both replicas take part and nothing is lost.
        assert first.requests_served > first_before and second.requests_served > 0
        assert first.requests_served - first_before + second.requests_served == 40


class TestEmbeddingWriteThrough:
    """A refresh write updates exactly the embedding CF, fleet-wide."""

    def _storage_reads(self, client: HBaseClient) -> int:
        return sum(stats["reads"] for stats in client.region_load_report().values())

    def test_embedding_put_updates_only_embedding_family_on_every_connection(self):
        from repro.hbase.client import AGGREGATES_FAMILY

        parent = HBaseClient(row_cache_ttl_s=60.0)
        parent.create_feature_store()
        families = {
            BASIC_FEATURES_FAMILY: {"age": 30},
            AGGREGATES_FAMILY: {"out_count_7d": 2.0},
            EMBEDDINGS_FAMILY: {"s2v": (1.0, 2.0, 3.0)},
        }
        for family, values in families.items():
            parent.put("titant_features", "u1", family, values, version=1)
        # A three-handle fleet: the parent plus two Model-Server-style
        # connections, each with a private row cache over shared storage.
        fleet = [parent, parent.connection(), parent.connection()]
        for handle in fleet:
            for family in families:
                handle.get("titant_features", "u1", family)

        # Fully warm: every (handle, family) read is now served from cache.
        before = self._storage_reads(parent)
        for handle in fleet:
            for family in families:
                handle.get("titant_features", "u1", family)
        assert self._storage_reads(parent) == before

        # An embedding write-through — the same put the refresh pass issues.
        parent.put(
            "titant_features", "u1", EMBEDDINGS_FAMILY, {"s2v": (9.0, 9.0, 9.0)}, version=2
        )
        for handle in fleet:
            # The embedding row was updated in this handle's cache: the read
            # is a hit on the refreshed vector, with no storage read.
            reads = self._storage_reads(parent)
            row = handle.get("titant_features", "u1", EMBEDDINGS_FAMILY)
            assert tuple(row["s2v"]) == (9.0, 9.0, 9.0)
            assert self._storage_reads(parent) == reads
            # Profile and aggregate rows were untouched: still cached.
            reads = self._storage_reads(parent)
            assert handle.get("titant_features", "u1", BASIC_FEATURES_FAMILY)["age"] == 30
            assert handle.get("titant_features", "u1", AGGREGATES_FAMILY)["out_count_7d"] == 2.0
            assert self._storage_reads(parent) == reads


class TestMissingEmbeddingDefault:
    """PR 10 satellite: missing embedding rows get an explicit, counted default."""

    @pytest.fixture()
    def embedding_server(self, serving_stack):
        from repro.features.plan import EmbeddingBlockSpec, FeaturePlan

        hbase, _ = serving_stack
        plan = FeaturePlan(embedding_blocks=(EmbeddingBlockSpec("s2v", 4),))
        rng = np.random.default_rng(0)
        model = GradientBoostingClassifier(num_trees=5, seed=0).fit(
            rng.normal(size=(64, plan.num_features)),
            (rng.random(64) < 0.5).astype(np.float64),
        )
        server = ModelServer(hbase, ModelServerConfig())
        server.load_model(model, version="s2v_v1", threshold=0.5, plan=plan)
        return hbase, server, model, plan

    def test_missing_row_counted_stored_zero_row_not(self, embedding_server, dataset):
        hbase, server, _, _ = embedding_server
        txn = dataset.test_transactions[0]
        # The payer has an explicitly published all-zero embedding; the payee
        # has no embedding row at all.  Both score as the zero vector, but
        # only the payee's read is a *missing* embedding.
        hbase.put(
            "titant_features",
            txn.payer_id,
            EMBEDDINGS_FAMILY,
            {"s2v": (0.0, 0.0, 0.0, 0.0)},
            version=1,
        )
        assert server.missing_embeddings == 0
        server.predict_batch([TransactionRequest.from_transaction(txn)])
        assert server.missing_embeddings == 1

    def test_counter_accumulates_across_model_rotations(self, embedding_server, dataset):
        _, server, model, plan = embedding_server
        txn = dataset.test_transactions[1]
        server.predict_batch([TransactionRequest.from_transaction(txn)])
        first = server.missing_embeddings
        assert first == 2  # both sides unpublished
        server.load_model(model, version="s2v_v2", threshold=0.5, plan=plan)
        server.predict_batch([TransactionRequest.from_transaction(txn)])
        assert server.missing_embeddings == first + 2

    def test_serving_report_carries_missing_embeddings(self, embedding_server, dataset):
        _, server, _, _ = embedding_server
        alipay = AlipayServer(server)
        report = alipay.replay_transactions(dataset.test_transactions[:25])
        assert report.total == 25
        assert report.missing_embeddings == server.missing_embeddings
        assert report.missing_embeddings > 0
