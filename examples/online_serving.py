"""End-to-end TitAnt deployment: offline training, HBase upload, online serving.

Reproduces the full system of the paper's Figure 3 / Figure 5 on the
simulated substrates, then walks the production serving runtime:

1. offline T+1 training (transaction network → DeepWalk embeddings → GBDT),
2. registry-driven deployment to a sharded Model Server fleet — per-user
   features/embeddings to Ali-HBase, each replica on its own HBase
   connection (private row cache), the model loaded through the
   ``FleetController``,
3. the Alipay server replaying transfer requests through consistent-hash
   account sharding with deadline-bounded request coalescing,
4. a hot model rotation on the live fleet: shadow-score a challenger,
   canary it onto part of the fleet, promote — then roll back,
5. an overload burst: admission control sheds past-capacity arrivals to the
   rule-based fallback instead of queueing unboundedly, and
6. latency / alert-quality / cache reports of the online path.

Run with:  python examples/online_serving.py
"""

from __future__ import annotations

from repro.core import ExperimentConfig, ExperimentRunner, ModelHyperparameters, ModelRegistry
from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
from repro.features import AggregationConfig
from repro.datagen import generate_world
from repro.datagen.profiles import ProfileConfig
from repro.datagen.transactions import WorldConfig
from repro.hbase import HBaseClient
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    AlipayServer,
    CoalescerConfig,
    FleetController,
    ModelServer,
    ModelServerConfig,
    fleet_cache_stats,
)

FLEET_SIZE = 3


def main() -> None:
    print("1. Offline: generating data and training the day's model ...")
    world = generate_world(
        WorldConfig(
            profile=ProfileConfig(num_users=900, num_communities=10, fraudster_fraction=0.03, seed=19),
            num_days=40,
            transactions_per_user_per_day=0.45,
            seed=19,
        )
    )
    runner = ExperimentRunner(
        world,
        ExperimentConfig(
            num_datasets=1,
            network_days=25,
            train_days=7,
            hyperparameters=ModelHyperparameters.laptop_scale(),
            # Sliding-window aggregation features: trained point-in-time and
            # kept fresh online by the streaming feature updater.
            aggregation=AggregationConfig(window_days=14),
        ),
    )
    dataset = runner.datasets()[0]
    preparation = runner.pipeline.prepare(dataset, need_deepwalk=True, need_structure2vec=False)
    champion = runner.pipeline.train(
        preparation, Table1Configuration(9, DetectorName.GBDT, FeatureSetName.BASIC_DW)
    )

    print("2. Deploying to a sharded Model Server fleet via the registry ...")
    # Bound WAL retention: the streaming updater writes two aggregate rows
    # per processed transfer, and a long-running front end would otherwise
    # retain every entry (a real region server rotates its WALs the same way).
    hbase = HBaseClient(num_regions=4, wal_max_entries=50_000)
    # One HBase connection per replica: each Model Server process owns a
    # private client-side row cache over the shared store (the fleet shape
    # that account-sharded routing keeps hot).
    fleet = [
        ModelServer(hbase.connection(), ModelServerConfig(sla_budget_ms=50.0))
        for _ in range(FLEET_SIZE)
    ]
    registry = ModelRegistry()
    updater = runner.pipeline.deploy_fleet(
        champion, preparation, hbase, fleet, registry=registry
    )
    controller = FleetController(fleet, registry)
    print(f"   registered model       : {registry.latest().describe()}")
    print(f"   fleet versions         : {controller.fleet_versions()}")
    print(f"   exported feature plan  : {len(champion.plan.feature_names)} features, "
          f"window {champion.plan.aggregation}")

    print("3. Online: coalesced replay through the account-sharded fleet ...")
    alipay = AlipayServer(fleet, feature_updater=updater)
    test_transactions = dataset.test_transactions
    half = len(test_transactions) // 2
    report = alipay.replay_transactions(
        test_transactions[:half],
        arrival_rate_per_s=2000.0,
        coalescer=CoalescerConfig(max_batch=64, max_delay_ms=5.0),
    )
    latency = alipay.latency_report()
    stats = alipay.last_coalescer_stats
    print(f"   transactions processed : {report.total}")
    print(f"   interrupted (alerts)   : {report.interrupted} "
          f"(precision {report.alert_precision:.2%}, recall {report.alert_recall:.2%})")
    print(f"   mean / p99 latency     : {latency['mean_ms']:.3f} ms / {latency['p99_ms']:.3f} ms "
          "(amortised per request)")
    print(f"   coalescing             : {stats['batches']:.0f} batches, "
          f"mean size {stats['mean_batch']:.1f}, max wait {stats['max_wait_ms']:.1f} ms")
    print(f"   fleet row caches       : {fleet_cache_stats(fleet)}")

    print("4. Hot rotation: shadow a challenger, canary it, promote, roll back ...")
    challenger = runner.pipeline.train(
        preparation, Table1Configuration(7, DetectorName.LOGISTIC_REGRESSION, FeatureSetName.BASIC_DW)
    )
    runner.pipeline.register_model(registry, challenger)
    controller.start_shadow(challenger.version)
    alipay.replay_transactions(
        test_transactions[half:],
        arrival_rate_per_s=2000.0,
        coalescer=CoalescerConfig(max_batch=64, max_delay_ms=5.0),
    )
    divergence = controller.stop_shadow()
    print(f"   shadow divergence      : mean |Δp| {divergence.mean_abs_divergence:.4f}, "
          f"decision flips {divergence.decision_flips}/{divergence.requests}")
    canary = controller.deploy(challenger.version, canary_fraction=1 / FLEET_SIZE)
    print(f"   canary fleet           : {canary.fleet_versions}")
    promoted = controller.promote()
    print(f"   promoted fleet         : {promoted.fleet_versions}")
    rolled_back = controller.rollback()
    print(f"   rolled-back fleet      : {rolled_back.fleet_versions} "
          "(zero requests dropped throughout)")

    print("5. Overload: a 10x-capacity burst sheds to the rule-based fallback ...")
    admission = AdmissionController(
        AdmissionConfig(capacity_rps=300.0, max_queue_depth=32, resume_queue_depth=16)
    )
    # No feature updater here: sections 3-4 already streamed this test day
    # into the shared window engine, and re-ingesting the same transactions
    # would double-count every account's aggregates.
    burst_front = AlipayServer(fleet, admission=admission)
    burst_report = burst_front.replay_transactions(
        test_transactions, arrival_rate_per_s=3000.0
    )
    print(f"   burst answered         : {burst_report.total} of {len(test_transactions)} "
          "(zero dropped)")
    print(f"   shed to rules          : {burst_report.degraded} "
          f"({burst_report.shed_to_rules_fraction:.1%})")
    print(f"   peak queue depth       : {burst_report.peak_queue_depth:.1f} "
          f"(bound {admission.config.max_queue_depth})")
    if burst_front.notifications:
        print("   example notification   :", burst_front.notifications[0])


if __name__ == "__main__":
    main()
