"""Tests of the sharded serving runtime: routing, coalescing, rotation,
admission control and the registry ordering underneath hot rotation."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.registry import ModelRegistry, ModelVersion
from repro.exceptions import ServingError
from repro.hbase import HBaseClient
from repro.hbase.client import BASIC_FEATURES_FAMILY
from repro.models.gbdt import GradientBoostingClassifier
import repro.serving.router as router_module
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    AlipayServer,
    CoalescerConfig,
    FleetController,
    LatencyTracker,
    ModelServer,
    ModelServerConfig,
    RequestCoalescer,
    RuleBasedFallback,
    ServingRouter,
    TransactionRequest,
    default_fraud_rules,
    fleet_cache_stats,
)

NAN = float("nan")


def _publish_profiles(hbase, world, version):
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
            version=version,
        )


@pytest.fixture(scope="module")
def champion_challenger(feature_matrices):
    """Two differently-seeded GBDTs over the session basic-feature matrices."""
    train, _ = feature_matrices
    champion = GradientBoostingClassifier(num_trees=20, seed=0).fit(train.values, train.labels)
    challenger = GradientBoostingClassifier(num_trees=8, seed=5).fit(train.values, train.labels)
    return champion, challenger


@pytest.fixture()
def fleet_stack(world, dataset, champion_challenger):
    """Root HBase store + a 3-replica fleet on per-connection caches +
    a registry holding champion (v1) and challenger (v2)."""
    champion, challenger = champion_challenger
    hbase = HBaseClient()
    _publish_profiles(hbase, world, dataset.spec.test_day)
    fleet = [
        ModelServer(hbase.connection(), ModelServerConfig()) for _ in range(3)
    ]
    registry = ModelRegistry()
    registry.register(
        ModelVersion(version="v1", model=champion, threshold=0.5, feature_names=[])
    )
    registry.register(
        ModelVersion(version="v2", model=challenger, threshold=0.5, feature_names=[])
    )
    controller = FleetController(fleet, registry)
    controller.deploy("v1")
    return hbase, fleet, registry, controller


def shard_map(router, accounts):
    """Accounts grouped by the replica that owns them."""
    shards = {}
    for account in accounts:
        shards.setdefault(router.route(account), []).append(account)
    return shards


def _requests(dataset, count, *, offset=0):
    return [
        TransactionRequest.from_transaction(txn)
        for txn in dataset.test_transactions[offset : offset + count]
    ]


class TestServingRouter:
    def test_routing_is_deterministic_and_balanced(self):
        router = ServingRouter(4)
        accounts = [f"user_{i}" for i in range(2000)]
        first = [router.route(a) for a in accounts]
        second = [router.route(a) for a in accounts]
        assert first == second
        shards = shard_map(router, accounts)
        assert set(shards) == {0, 1, 2, 3}
        sizes = [len(shards[r]) for r in sorted(shards)]
        # Virtual nodes keep shard shares within a reasonable band of uniform.
        assert min(sizes) > 0.5 * len(accounts) / 4
        assert max(sizes) < 2.0 * len(accounts) / 4

    def test_add_replica_remaps_only_the_accounts_it_takes(self):
        router = ServingRouter(3)
        accounts = [f"user_{i}" for i in range(1000)]
        before = {a: router.route(a) for a in accounts}
        router.add_replica(3)
        after = {a: router.route(a) for a in accounts}
        moved = [a for a in accounts if before[a] != after[a]]
        # Every account that moved went to the new replica, nothing else moved.
        assert moved and all(after[a] == 3 for a in moved)
        assert set(moved) == {a for a in accounts if after[a] == 3}

    def test_the_ring_does_not_depend_on_the_order_replicas_joined(self):
        accounts = [f"user_{i}" for i in range(500)]
        router = ServingRouter(2)
        router.add_replica(3)
        router.add_replica(2)
        assert {a: router.route(a) for a in accounts} == {
            a: ServingRouter(4).route(a) for a in accounts
        }

    def test_the_route_memo_leaves_the_shard_map_unchanged(self):
        """The ring-hash memo only makes a repeated account cheaper: these
        ``shard_map`` digests were recorded before the memo existed."""
        accounts = [f"u{index:07d}" for index in range(10_000)]
        four = "89dd7d1f0897bd11c87148b077f415a31f8bf276f1a638cc10ac63176cdb7830"
        without_two = "062b40f6f044d171691e68eabfede2f26289c43c3ea69f55afbd8a53caee5adb"

        def digest(router: ServingRouter) -> str:
            shards = sorted(shard_map(router, accounts).items())
            return hashlib.sha256(repr(shards).encode()).hexdigest()

        router_module._stable_hash.cache_clear()
        router = ServingRouter(4)
        assert digest(router) == four  # cold memo
        assert digest(router) == four  # warm memo
        assert router_module._stable_hash.cache_info().hits >= len(accounts)
        router = ServingRouter(2)
        router.add_replica(3)
        assert digest(router) == without_two
        router.add_replica(2)
        assert digest(router) == four
        assert digest(ServingRouter(4)) == four

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ServingError):
            ServingRouter(0)
        router = ServingRouter(2)
        with pytest.raises(ServingError):
            router.add_replica(0)


class _RoundRobinRouter:
    """The baseline sharding exists to beat: ignores the account, cycles replicas."""

    def __init__(self, num_replicas: int) -> None:
        self.num_replicas = num_replicas
        self._calls = itertools.count()

    def route(self, account_id: str) -> int:
        return next(self._calls) % self.num_replicas


class TestShardedFrontEnd:
    def test_account_affinity(self, fleet_stack, dataset):
        hbase, fleet, _, _ = fleet_stack
        router = ServingRouter(len(fleet))
        alipay = AlipayServer(fleet, router=router)
        requests = _requests(dataset, 60)
        for request in requests:
            alipay.process(request)
        # Every request of one payer landed on the replica the ring assigns it.
        for request, served in zip(requests, alipay.served):
            assert served.response is not None
        by_payer = {}
        for request in requests:
            by_payer.setdefault(request.payer_id, set()).add(router.route(request.payer_id))
        assert all(len(replicas) == 1 for replicas in by_payer.values())

    def test_routed_batch_matches_scalar_outcomes(self, fleet_stack, dataset):
        hbase, fleet, _, _ = fleet_stack
        requests = _requests(dataset, 48)
        scalar = AlipayServer(fleet[0])
        scalar_served = [scalar.process(r) for r in requests]
        routed = AlipayServer(fleet, router=ServingRouter(len(fleet)))
        routed_served = routed.process_batch(requests)
        assert [s.request.transaction_id for s in routed_served] == [
            r.transaction_id for r in requests
        ]
        assert [s.response.fraud_probability for s in routed_served] == pytest.approx(
            [s.response.fraud_probability for s in scalar_served]
        )

    def test_sharding_beats_round_robin_on_cache_hits(self, world, dataset, champion_challenger):
        champion, _ = champion_challenger
        hbase = HBaseClient()
        _publish_profiles(hbase, world, dataset.spec.test_day)

        def build_fleet():
            fleet = [
                ModelServer(hbase.connection(row_cache_ttl_s=3600.0), ModelServerConfig())
                for _ in range(3)
            ]
            for server in fleet:
                server.load_model(champion, version="v1", threshold=0.5)
            return fleet

        transactions = dataset.test_transactions
        rr_fleet = build_fleet()
        AlipayServer(rr_fleet, router=_RoundRobinRouter(3)).replay_transactions(transactions)
        rr_stats = fleet_cache_stats(rr_fleet)

        sharded_fleet = build_fleet()
        AlipayServer(sharded_fleet, router=ServingRouter(3)).replay_transactions(transactions)
        sharded_stats = fleet_cache_stats(sharded_fleet)

        # Account affinity turns each payer's repeat requests into cache hits
        # on one replica; round-robin re-misses them on every other replica.
        assert sharded_stats["hit_rate"] > rr_stats["hit_rate"]

    def test_router_fleet_size_mismatch_rejected(self, fleet_stack):
        _, fleet, _, _ = fleet_stack
        with pytest.raises(ServingError):
            AlipayServer(fleet, router=ServingRouter(2))


class TestConnectionCaches:
    def test_cross_connection_write_invalidation(self):
        root = HBaseClient()
        root.create_feature_store()
        root.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        reader = root.connection()
        assert reader.get("titant_features", "u1", BASIC_FEATURES_FAMILY)["age"] == 30
        # A write through a *different* connection must invalidate the
        # reader's private cache — no stale serve across the fleet.
        writer = root.connection()
        writer.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 31}, version=2)
        assert reader.get("titant_features", "u1", BASIC_FEATURES_FAMILY)["age"] == 31

    def test_write_invalidates_only_its_column_family(self):
        """Streaming aggregate write-through must not evict the row's cached
        profile/embedding reads — only the written family goes stale."""
        from repro.hbase.client import AGGREGATES_FAMILY

        root = HBaseClient()
        root.create_feature_store()
        root.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        root.put("titant_features", "u1", AGGREGATES_FAMILY, {"count": 1}, version=1)
        root.get("titant_features", "u1", BASIC_FEATURES_FAMILY)
        root.get("titant_features", "u1", AGGREGATES_FAMILY)
        hits_before = root.row_cache_stats()["hits"]
        root.put("titant_features", "u1", AGGREGATES_FAMILY, {"count": 2}, version=2)
        # Basic-features read still hits; aggregates read sees the new value.
        assert root.get("titant_features", "u1", BASIC_FEATURES_FAMILY)["age"] == 30
        assert root.row_cache_stats()["hits"] == hits_before + 1
        assert root.get("titant_features", "u1", AGGREGATES_FAMILY)["count"] == 2

    def test_connections_share_tables_but_not_caches(self):
        root = HBaseClient()
        conn = root.connection()
        conn.create_feature_store()
        root.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 1}, version=1)
        conn.get("titant_features", "u1", BASIC_FEATURES_FAMILY)
        assert conn.row_cache_stats()["misses"] == 1.0
        assert root.row_cache_stats()["misses"] == 0.0

    def test_discarded_connections_do_not_leak_caches(self):
        """Regression: a dropped connection's cache must leave the shared
        invalidation registry (else every future put pays for dead fleets)."""
        import gc

        root = HBaseClient()
        root.create_feature_store()
        for _ in range(4):
            root.connection()
        gc.collect()
        # The next write prunes the dead weak references.
        root.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 1}, version=1)
        assert len(root._cache_registry) == 1  # only the root's own cache
        # A live connection stays registered and keeps being invalidated.
        live = root.connection()
        live.get("titant_features", "u1", BASIC_FEATURES_FAMILY)
        root.put("titant_features", "u1", BASIC_FEATURES_FAMILY, {"age": 2}, version=2)
        assert live.get("titant_features", "u1", BASIC_FEATURES_FAMILY)["age"] == 2


class TestRequestCoalescer:
    def test_full_flush_at_max_batch(self, fleet_stack, dataset):
        _, fleet, _, _ = fleet_stack
        alipay = AlipayServer(fleet[0])
        coalescer = RequestCoalescer(alipay, CoalescerConfig(max_batch=4, max_delay_ms=50.0))
        requests = _requests(dataset, 4)
        flushed = []
        for index, request in enumerate(requests):
            flushed.extend(coalescer.submit(request, now_ms=float(index)))
        assert len(flushed) == 4
        assert coalescer.full_flushes == 1
        assert coalescer.deadline_flushes == 0
        assert len(coalescer) == 0

    def test_deadline_flush_bounds_waiting(self, fleet_stack, dataset):
        _, fleet, _, _ = fleet_stack
        alipay = AlipayServer(fleet[0])
        coalescer = RequestCoalescer(alipay, CoalescerConfig(max_batch=64, max_delay_ms=5.0))
        request = _requests(dataset, 1)[0]
        coalescer.submit(request, now_ms=0.0)
        assert coalescer.advance(4.0) == []  # budget not yet exhausted
        flushed = coalescer.advance(5.0)
        assert len(flushed) == 1
        assert coalescer.deadline_flushes == 1
        stats = coalescer.stats()
        assert stats["max_wait_ms"] == pytest.approx(5.0)

    def test_forced_flush_drains_stragglers(self, fleet_stack, dataset):
        _, fleet, _, _ = fleet_stack
        alipay = AlipayServer(fleet[0])
        coalescer = RequestCoalescer(alipay, CoalescerConfig(max_batch=64, max_delay_ms=50.0))
        for index, request in enumerate(_requests(dataset, 3)):
            coalescer.submit(request, now_ms=float(index))
        assert len(coalescer.flush()) == 3
        assert coalescer.forced_flushes == 1

    def test_long_replay_keeps_no_per_request_state(self):
        """Stats are running sums: 50k requests leave nothing that grew with them."""

        class _CountingFrontEnd:
            batches = 0

            def process_batch(self, requests, *, was_fraud=None):
                self.batches += 1
                return []

        front_end = _CountingFrontEnd()
        config = CoalescerConfig(max_batch=64, max_delay_ms=5.0)
        coalescer = RequestCoalescer(front_end, config)
        total = 50_000
        for index in range(total):
            coalescer.submit(object(), now_ms=index * 0.5)
        coalescer.flush()
        for name, value in vars(coalescer).items():
            if isinstance(value, (list, tuple, dict, set)):
                assert len(value) <= config.max_batch, f"{name} grew with the stream"
        # Arrivals 0.5 ms apart under a 5 ms budget: every flush is a deadline
        # flush of 10 requests that waited 5.0, 4.5, ... 0.5 ms (27.5 in all),
        # except the final drain, stamped at the last arrival (4.5 ... 0.0).
        stats = coalescer.stats()
        assert stats["requests"] == total
        assert stats["batches"] == front_end.batches == total / 10
        assert stats["mean_batch"] == 10.0
        assert stats["forced_flushes"] == 1.0
        assert stats["max_wait_ms"] == 5.0
        assert stats["mean_wait_ms"] == pytest.approx(
            ((total / 10 - 1) * 27.5 + 22.5) / total, rel=1e-12
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(ServingError):
            CoalescerConfig(max_batch=0)
        with pytest.raises(ServingError):
            CoalescerConfig(max_delay_ms=-1.0)

    def test_coalesced_replay_matches_scalar_outcomes(self, fleet_stack, dataset):
        _, fleet, _, _ = fleet_stack
        transactions = dataset.test_transactions[:120]
        scalar = AlipayServer(fleet[0])
        scalar_report = scalar.replay_transactions(transactions)
        coalesced = AlipayServer(fleet[0])
        coalesced_report = coalesced.replay_transactions(
            transactions,
            arrival_rate_per_s=2000.0,
            coalescer=CoalescerConfig(max_batch=32, max_delay_ms=5.0),
        )
        assert coalesced_report.total == scalar_report.total == 120
        assert coalesced_report.interrupted == scalar_report.interrupted
        assert coalesced.last_coalescer_stats is not None
        assert coalesced.last_coalescer_stats["mean_batch"] > 1.0
        # Deadline flushes are timestamped at the deadline, so no request's
        # recorded wait ever exceeds the max_delay_ms budget.
        assert coalesced.last_coalescer_stats["max_wait_ms"] <= 5.0

    def test_replay_rejects_inconsistent_modes(self, fleet_stack, dataset):
        _, fleet, _, _ = fleet_stack
        alipay = AlipayServer(fleet[0])
        with pytest.raises(ServingError):
            alipay.replay_transactions(
                dataset.test_transactions[:4],
                batch_size=2,
                coalescer=CoalescerConfig(),
                arrival_rate_per_s=100.0,
            )
        with pytest.raises(ServingError):
            alipay.replay_transactions(
                dataset.test_transactions[:4], coalescer=CoalescerConfig()
            )
        # Fixed-size batching cannot run under an arrival clock — rejecting it
        # beats silently degrading to the scalar path.
        with pytest.raises(ServingError):
            alipay.replay_transactions(
                dataset.test_transactions[:4], batch_size=2, arrival_rate_per_s=100.0
            )

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("arrival_rate_per_s", float("nan")),
            ("arrival_rate_per_s", float("inf")),
            ("arrival_rate_per_s", 0.0),
            ("batch_size", 2.5),
            ("batch_size", True),
            ("batch_size", 0),
            ("clock", "sundial"),
        ],
    )
    def test_replay_names_the_argument_it_rejects(self, fleet_stack, dataset, argument, value):
        """A NaN rate was accepted and flushed every request alone as a
        "deadline flush"; an infinite one put every arrival at t = 0; a
        fractional or bool batch size was reported as ``max_batch``."""
        _, fleet, _, _ = fleet_stack
        alipay = AlipayServer(fleet[0])
        kwargs = {"coalescer": CoalescerConfig()} if argument == "arrival_rate_per_s" else {}
        with pytest.raises(ServingError, match=f"^{argument} must be"):
            alipay.replay_transactions(dataset.test_transactions[:20], **kwargs, **{argument: value})
        assert alipay.report().total == 0


class TestAdmissionControl:
    def test_fluid_queue_admits_under_capacity(self):
        controller = AdmissionController(AdmissionConfig(capacity_rps=1000.0, max_queue_depth=8))
        # Arrivals at exactly capacity never build a backlog.
        decisions = [controller.on_arrival(i * 1.0) for i in range(50)]
        assert all(d is AdmissionDecision.ADMIT for d in decisions)
        assert controller.peak_queue_depth <= 2.0

    def test_sheds_above_bound_and_resumes_with_hysteresis(self):
        config = AdmissionConfig(capacity_rps=100.0, max_queue_depth=10, resume_queue_depth=2)
        controller = AdmissionController(config)
        decisions = [controller.on_arrival(i * 1.0) for i in range(200)]  # 1000 rps arrival
        assert AdmissionDecision.DEGRADE in decisions
        assert controller.peak_queue_depth <= config.max_queue_depth
        # Hysteresis: shedding happens in contiguous runs, not flapping.
        assert controller.shed_intervals < decisions.count(AdmissionDecision.DEGRADE)
        stats = controller.stats()
        assert stats["admitted"] + stats["degraded"] == 200

    def test_clock_must_be_monotonic(self):
        controller = AdmissionController(AdmissionConfig(capacity_rps=10.0))
        controller.on_arrival(100.0)
        with pytest.raises(ServingError):
            controller.on_arrival(50.0)

    def test_a_non_finite_arrival_is_rejected_and_keeps_the_clock_check_on(self):
        controller = AdmissionController(AdmissionConfig(capacity_rps=10.0))
        controller.on_arrival(0.0)
        for bad in (NAN, float("inf")):
            with pytest.raises(ServingError):
                controller.on_arrival(bad)
        with pytest.raises(ServingError):  # still ordered against the arrival at 0
            controller.on_arrival(-1.0)
        assert controller.admitted == 1

    def test_a_non_finite_arrival_time_is_rejected_by_the_replay(self, fleet_stack, dataset):
        _, fleet, _, _ = fleet_stack
        alipay = AlipayServer(fleet)
        with pytest.raises(ServingError, match="finite"):
            alipay.replay_transactions(
                dataset.test_transactions[:3],
                arrival_times_s=[0.0, NAN, 0.001],
                coalescer=CoalescerConfig(),
            )

    def test_invalid_configs_rejected(self):
        with pytest.raises(ServingError):
            AdmissionConfig(capacity_rps=0.0)
        with pytest.raises(ServingError):
            AdmissionConfig(capacity_rps=1.0, max_queue_depth=0)
        with pytest.raises(ServingError):
            AdmissionConfig(capacity_rps=1.0, max_queue_depth=4, resume_queue_depth=9)

    def test_rule_fallback_scores_without_feature_store(self, dataset):
        fallback = RuleBasedFallback()
        request = TransactionRequest.from_transaction(dataset.test_transactions[0])
        response = fallback.respond(request)
        assert response.model_version == "rules-fallback"
        assert 0.0 <= response.fraud_probability <= 1.0
        assert fallback.requests_served == 1

    def test_default_rules_flag_risky_requests(self):
        rules = default_fraud_rules()
        risky = np.array([5000.0, 1.0, 1.0, 0.9, 0.0])  # amount, night, new dev, ip risk
        benign = np.array([25.0, 0.0, 0.0, 0.05, 3.0])
        assert rules.predict_row(risky) > 0.5
        assert rules.predict_row(benign) < 0.5


@pytest.mark.parametrize(
    "setting",
    [
        lambda: CoalescerConfig(max_delay_ms=NAN),
        lambda: AdmissionConfig(capacity_rps=NAN),
        lambda: ModelServerConfig(sla_budget_ms=NAN),
        lambda: LatencyTracker(sla_budget_ms=NAN),
    ],
    ids=["max_delay_ms", "capacity_rps", "ModelServerConfig.sla_budget_ms", "LatencyTracker"],
)
def test_nan_serving_settings_are_rejected(setting):
    """NaN passed every ``<= 0`` check: a NaN SLA budget counted no violation
    for any sample."""
    with pytest.raises(ServingError, match="number"):
        setting()


class TestOverloadReplay:
    def test_overload_sheds_to_rules_with_bounded_queue(self, fleet_stack, dataset):
        _, fleet, _, _ = fleet_stack
        config = AdmissionConfig(capacity_rps=200.0, max_queue_depth=16, resume_queue_depth=8)
        admission = AdmissionController(config)
        alipay = AlipayServer(fleet[0], admission=admission)
        transactions = dataset.test_transactions[:200]
        # Arrivals at 10x the fleet's capacity.
        report = alipay.replay_transactions(transactions, arrival_rate_per_s=2000.0)

        # Zero dropped on the floor: every arrival got an answer.
        assert report.total == len(transactions)
        assert all(s.response is not None for s in alipay.served)
        # The backlog never exceeded its bound.
        assert 0.0 < report.peak_queue_depth <= config.max_queue_depth
        # A meaningful fraction was degraded to rules, and the report says so.
        assert report.degraded > 0
        assert report.shed_to_rules_fraction == pytest.approx(
            report.degraded / report.total
        )
        degraded = [s for s in alipay.served if s.degraded]
        assert len(degraded) == report.degraded
        assert all(s.response.model_version == "rules-fallback" for s in degraded)
        # Admitted requests still went through the full ML path.
        assert any(s.response.model_version == "v1" for s in alipay.served)

    def test_no_shedding_at_sustainable_rate(self, fleet_stack, dataset):
        _, fleet, _, _ = fleet_stack
        admission = AdmissionController(
            AdmissionConfig(capacity_rps=5000.0, max_queue_depth=32)
        )
        alipay = AlipayServer(fleet[0], admission=admission)
        report = alipay.replay_transactions(
            dataset.test_transactions[:100], arrival_rate_per_s=1000.0
        )
        assert report.degraded == 0
        assert report.shed_to_rules_fraction == 0.0

    def test_admission_requires_arrival_clock(self, fleet_stack, dataset):
        _, fleet, _, _ = fleet_stack
        alipay = AlipayServer(
            fleet[0],
            admission=AdmissionController(AdmissionConfig(capacity_rps=100.0)),
        )
        with pytest.raises(ServingError):
            alipay.replay_transactions(dataset.test_transactions[:10])


class TestRegistrySequenceOrdering:
    def _version(self, feature_matrices, name, *, trees=5, seed=2):
        train, _ = feature_matrices
        model = GradientBoostingClassifier(num_trees=trees, seed=seed).fit(
            train.values, train.labels
        )
        return ModelVersion(version=name, model=model, threshold=0.5, feature_names=[])

    def test_overwrite_reregistration_becomes_latest(self, feature_matrices):
        """Regression: latest() must follow registration sequence.

        Under the old insertion-order list, re-registering 'v1' left it in
        its original slot and latest() kept answering 'v2' — the retrained
        model was silently never served.
        """
        registry = ModelRegistry()
        registry.register(self._version(feature_matrices, "v1"))
        registry.register(self._version(feature_matrices, "v2"))
        retrained = self._version(feature_matrices, "v1", seed=9)
        registry.register(retrained, overwrite=True)
        assert registry.latest().version == "v1"
        assert registry.latest() is retrained
        assert registry.versions() == ["v2", "v1"]
        assert registry.rollback().version == "v2"

    def test_history_reports_sequence(self, feature_matrices):
        registry = ModelRegistry()
        registry.register(self._version(feature_matrices, "a"))
        registry.register(self._version(feature_matrices, "b"))
        registry.register(self._version(feature_matrices, "a", seed=3), overwrite=True)
        history = registry.history()
        assert [entry["version"] for entry in history] == ["b", "a"]
        sequences = [entry["sequence"] for entry in history]
        assert sequences == sorted(sequences)


class TestFleetRotation:
    def test_deploy_swaps_whole_fleet(self, fleet_stack):
        _, fleet, _, controller = fleet_stack
        assert controller.fleet_versions() == ["v1", "v1", "v1"]
        report = controller.deploy("v2")
        assert report.version == "v2"
        assert len(set(report.fleet_versions)) == 1
        assert controller.fleet_versions() == ["v2", "v2", "v2"]

    def test_canary_then_promote(self, fleet_stack):
        _, fleet, _, controller = fleet_stack
        report = controller.deploy("v2", canary_fraction=0.3)
        assert len(set(report.fleet_versions)) > 1
        assert controller.fleet_versions() == ["v2", "v1", "v1"]
        promoted = controller.promote()
        assert promoted.replicas_updated == [1, 2]
        assert controller.fleet_versions() == ["v2", "v2", "v2"]
        with pytest.raises(ServingError, match="no canary"):
            controller.promote()

    def test_rollback_restores_previous_version(self, fleet_stack):
        _, fleet, _, controller = fleet_stack
        controller.deploy("v2")
        report = controller.rollback()
        assert report.version == "v1"
        assert controller.fleet_versions() == ["v1", "v1", "v1"]

    def test_rollback_clears_canary(self, fleet_stack):
        _, fleet, _, controller = fleet_stack
        controller.deploy("v2", canary_fraction=0.5)
        controller.rollback()
        assert controller.fleet_versions() == ["v1", "v1", "v1"]
        with pytest.raises(ServingError, match="no canary"):
            controller.promote()

    def test_live_rotation_zero_failed_requests(self, fleet_stack, dataset):
        """A mid-stream hot rotation: every request before, during and after
        the swap is answered, and both versions appear in the responses."""
        _, fleet, _, controller = fleet_stack
        alipay = AlipayServer(fleet, router=ServingRouter(len(fleet)))
        first_half = dataset.test_transactions[:80]
        second_half = dataset.test_transactions[80:160]
        alipay.replay_transactions(first_half, batch_size=16)
        controller.deploy("v2")
        report = alipay.replay_transactions(second_half, batch_size=16)
        assert report.total == 160
        assert all(s.response is not None for s in alipay.served)
        versions = {s.response.model_version for s in alipay.served}
        assert versions == {"v1", "v2"}
        # The swap point is clean: v1 answers strictly precede v2 answers.
        versions_in_order = [s.response.model_version for s in alipay.served]
        assert versions_in_order.index("v2") == 80

    def test_shadow_scoring_reports_divergence(self, fleet_stack, dataset):
        _, fleet, _, controller = fleet_stack
        alipay = AlipayServer(fleet, router=ServingRouter(len(fleet)))
        controller.start_shadow("v2")
        alipay.replay_transactions(dataset.test_transactions[:90], batch_size=16)
        live = controller.shadow_report()
        assert live is not None and live.requests == 90
        report = controller.stop_shadow()
        assert report.champion_version == "v1"
        assert report.challenger_version == "v2"
        assert report.requests == 90
        # Differently-seeded models must actually diverge somewhere.
        assert report.mean_abs_divergence > 0.0
        assert report.max_abs_divergence >= report.mean_abs_divergence
        # The pooled running sums equal the per-request differences.
        challenger = ModelServer(fleet[0].hbase, ModelServerConfig())
        challenger.load_model(controller.registry.get("v2").model, version="v2")
        diffs = [
            abs(shadow.fraud_probability - served.response.fraud_probability)
            for served, shadow in zip(
                alipay.served, challenger.predict_batch([s.request for s in alipay.served])
            )
        ]
        assert report.mean_abs_divergence == pytest.approx(np.mean(diffs), rel=1e-12)
        assert report.max_abs_divergence == max(diffs)
        assert 0 <= report.decision_flips <= report.requests
        # Shadow scoring never leaked into the served decisions.
        assert all(s.response.model_version == "v1" for s in alipay.served)
        # After stop_shadow the divergence accounting is gone.
        assert controller.shadow_report() is None

    def test_shadow_identical_model_has_zero_divergence(self, fleet_stack, dataset):
        _, fleet, registry, controller = fleet_stack
        registry.register(
            ModelVersion(
                version="v1-copy",
                model=registry.get("v1").model,
                threshold=0.5,
                feature_names=[],
            )
        )
        controller.deploy("v1")
        controller.start_shadow("v1-copy")
        alipay = AlipayServer(fleet)
        alipay.replay_transactions(dataset.test_transactions[:30])
        report = controller.stop_shadow()
        assert report.mean_abs_divergence == 0.0
        assert report.decision_flips == 0

    def test_empty_fleet_rejected(self, fleet_stack):
        _, _, registry, _ = fleet_stack
        with pytest.raises(ServingError):
            FleetController([], registry)
