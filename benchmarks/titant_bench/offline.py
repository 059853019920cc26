"""The offline workload: one whole T+1 job per round.

``prepare`` (network + DeepWalk) → SQL aggregate backfill → ``train``
(point-in-time assembly + GBDT fit) → ``deploy_fleet`` to a fresh
``HBaseClient`` and four servers.  The four public calls are timed one by
one, so each has its own floor across rounds and the job's time is their
sum; the decomposed ops run the same stages through the layers' public
functions, one span each.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from benchmarks.titant_bench.base import Outcome, Workload
from benchmarks.titant_bench.inputs import Inputs
from benchmarks.titant_bench.serving import (
    FLEET_SIZE,
    FULL_PLAN,
    TABLE,
    WINDOW_DAYS,
    hyperparameters,
    new_fleet,
)
from benchmarks.titant_bench.trace import TimedHBase, Tracer
from repro.core.evaluation import select_threshold
from repro.core.pipeline import (
    OfflineTrainingPipeline,
    SlicePreparation,
    TrainedModelBundle,
    build_detector,
)
from repro.features.aggregation import (
    SECONDS_PER_DAY,
    AggregationConfig,
    TransactionAggregator,
)
from repro.graph.builder import build_network
from repro.graph.random_walk import RandomWalkConfig
from repro.hbase.client import HBaseClient
from repro.nrl.deepwalk import DeepWalk, DeepWalkConfig
from repro.nrl.word2vec import SkipGramConfig
from repro.rng import derive_seed
from repro.serving import AlipayServer, ModelServer, ServingRouter, TransactionRequest

AGGREGATION = AggregationConfig(window_days=WINDOW_DAYS)


STAGES = ("prepare", "backfill", "train", "deploy")


class Job:
    """The state one T+1 job carries from stage to stage."""

    pipeline: OfflineTrainingPipeline
    preparation: SlicePreparation
    aggregator: TransactionAggregator
    bundle: TrainedModelBundle
    hbase: HBaseClient
    fleet: List[ModelServer]


class OfflineT1(Workload):
    """History in → published feature rows + model out."""

    name = "offline_t1"
    stateless = True
    one_job = True

    def __init__(self, inputs: Inputs, tracer: Optional[Tracer] = None) -> None:
        super().__init__(inputs, tracer)
        self.history = inputs.history
        self.test_day = inputs.sizing.test_day
        self.hyper = hyperparameters(inputs.seed)
        self.probe = TransactionRequest.from_transaction(inputs.serve_transactions[0])
        self.loop_aggregator = TransactionAggregator(AGGREGATION).fit(
            self.history, as_of_day=self.test_day
        )
        self.job = Job()
        self.last_backfill_stats = None
        self.last_rows_published = 0

    def round_ops(self, index: int) -> Sequence[object]:
        self.job = Job()
        return STAGES

    def work(self, item: object) -> int:
        return len(self.history) if item == "deploy" else 0

    def _start(self) -> Job:
        job = self.job
        job.pipeline = OfflineTrainingPipeline(
            self.inputs.profiles, self.hyper, aggregation=AGGREGATION
        )
        return job

    def _fresh_fleet(self) -> None:
        self.job.hbase = HBaseClient(num_regions=4)
        self.job.fleet = new_fleet(self.job.hbase)

    def op(self, item: object) -> Job:
        job = self.job
        if item == "prepare":
            job = self._start()
            job.preparation = job.pipeline.prepare(
                self.inputs.dataset, need_deepwalk=True, need_structure2vec=False
            )
        elif item == "backfill":
            job.aggregator = TransactionAggregator(AGGREGATION).fit(
                self.history, as_of_day=self.test_day, engine="sql"
            )
        elif item == "train":
            job.bundle = job.pipeline.train(job.preparation, FULL_PLAN)
        else:
            self._fresh_fleet()
            job.pipeline.deploy_fleet(job.bundle, job.preparation, job.hbase, job.fleet)
        return job

    def decomposed_op(self, item: object) -> Job:
        with self.tracer.span("alipay.op"):
            getattr(self, f"_decomposed_{item}")()
        return self.job

    def _decomposed_prepare(self) -> None:
        tracer, hyper, job = self.tracer, self.hyper, self._start()
        with tracer.span("graph.build_network"):
            network = build_network(self.inputs.dataset.network_transactions)
        with tracer.span("nrl.deepwalk"):
            deepwalk = DeepWalk(
                DeepWalkConfig(
                    walk=RandomWalkConfig(
                        walk_length=hyper.deepwalk_walk_length,
                        num_walks_per_node=hyper.deepwalk_num_walks,
                    ),
                    skipgram=SkipGramConfig(
                        dimension=hyper.embedding_dimension,
                        window=hyper.deepwalk_window,
                        epochs=hyper.deepwalk_epochs,
                    ),
                    seed=derive_seed(hyper.seed, f"deepwalk_day{self.test_day}"),
                )
            )
            deepwalk.fit(network)
            embeddings = deepwalk.embeddings()
            embeddings.name = "dw"
        job.preparation = SlicePreparation(
            dataset=self.inputs.dataset, network=network, embeddings={"dw": embeddings}
        )

    def _decomposed_backfill(self) -> None:
        with self.tracer.span("maxcompute.backfill_sql"):
            self.job.aggregator = TransactionAggregator(AGGREGATION).fit(
                self.history, as_of_day=self.test_day, engine="sql"
            )

    def _decomposed_train(self) -> None:
        tracer, job = self.tracer, self.job
        with tracer.span("features.assemble_train"):
            assembler = job.pipeline.assembler_for(job.preparation, FULL_PLAN.feature_set)
            train = assembler.assemble(self.inputs.dataset.train_transactions)
        with tracer.span("gbdt.fit"):
            detector = build_detector(FULL_PLAN.detector, self.hyper)
            detector.fit(train.values, train.labels)
        with tracer.span("gbdt.predict"):
            scores = detector.predict_proba(train.values)
        plan = assembler.plan
        job.bundle = TrainedModelBundle(
            configuration=FULL_PLAN,
            detector=detector,
            threshold=select_threshold(train.labels, scores),
            feature_names=train.feature_names,
            plan=plan,
            embedding_specs=plan.embedding_specs,
            embedding_side=plan.embedding_side,
            training_day=self.test_day,
            train_rows=train.num_rows,
            train_frauds=int(train.labels.sum()),
        )

    def _decomposed_deploy(self) -> None:
        tracer, job = self.tracer, self.job
        self._fresh_fleet()
        timed = TimedHBase(job.hbase, tracer)
        with tracer.span("streaming.seed_updater"):
            updater = job.pipeline.build_streaming_updater(
                job.preparation, timed, table_name=TABLE
            )
        with tracer.span("features.publish_rows"):
            job.pipeline.publish_features(
                job.preparation, timed, table_name=TABLE, include_aggregates=False
            )
            updater.publish_snapshot(
                as_of=self.test_day * SECONDS_PER_DAY - 1, version=self.test_day
            )
        bundle = job.bundle
        for server in job.fleet:
            server.feature_table = TABLE
            server.load_model(
                bundle.detector, version=bundle.version, threshold=bundle.threshold, plan=bundle.plan
            )

    def outcomes(self, raw: object, item: object) -> List[Outcome]:
        if item != "deploy":
            return []
        job: Job = raw
        self.last_backfill_stats = job.aggregator.last_backfill_stats
        self.last_rows_published = job.hbase.wal_size()
        loop, sql = self.loop_aggregator, job.aggregator
        backfill_differs = loop.account_ids() != sql.account_ids() or any(
            loop.hbase_row(account) != sql.hbase_row(account) for account in loop.account_ids()
        )
        front = AlipayServer(job.fleet, router=ServingRouter(FLEET_SIZE))
        probability = front.process(self.probe).response.fraud_probability
        return [
            ("sql_backfill_accounts", float(len(sql.account_ids())), backfill_differs),
            ("threshold", job.bundle.threshold, False),
            ("train_rows", float(job.bundle.train_rows), False),
            ("rows_published", float(self.last_rows_published), False),
            ("probe_probability", probability, not 0.0 <= probability <= 1.0),
        ]

    def verify(self) -> None:
        """Nothing sampled: every round's outputs were checked in ``outcomes``."""

    def counts(self) -> Dict[str, float]:
        stats = self.last_backfill_stats
        return {
            "maxcompute.partitions_scanned": float(stats.partitions_scanned),
            "maxcompute.partitions_skipped": float(stats.partitions_skipped),
            "maxcompute.rows_scanned": float(stats.rows_scanned),
            "hbase.rows_published": float(self.last_rows_published),
        }
