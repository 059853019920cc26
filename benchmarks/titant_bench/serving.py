"""The three serving workloads and the decomposed front end that traces them.

Each workload builds its stack through the public offline pipeline
(``prepare`` / ``train`` / ``deploy_fleet``), drives it through one
``AlipayServer`` entry point, and recomputes a seeded sample of the served
probabilities through the offline path (``FeaturePlanExecutor`` over an
``InMemoryFeatureSource``) to check them bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from benchmarks.titant_bench.base import Outcome, Workload
from benchmarks.titant_bench.inputs import Inputs
from benchmarks.titant_bench.trace import TimedHBase, TimedSource, Tracer
from repro.core.config import (
    DetectorName,
    FeatureSetName,
    ModelHyperparameters,
    Table1Configuration,
)
from repro.core.pipeline import OfflineTrainingPipeline
from repro.datagen.schema import Transaction
from repro.features.aggregation import SECONDS_PER_DAY, AggregationConfig
from repro.features.plan import FeaturePlanExecutor, InMemoryFeatureSource
from repro.features.streaming import SlidingWindowAggregator
from repro.hbase.client import BASIC_FEATURES_FAMILY, HBaseClient
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    AlipayServer,
    CoalescerConfig,
    HBaseFeatureSource,
    ModelServer,
    ModelServerConfig,
    PredictionResponse,
    RequestCoalescer,
    ServedTransaction,
    ServingRouter,
    TransactionOutcome,
    TransactionRequest,
    fleet_cache_stats,
)
from repro.serving.feature_source import profile_from_row

FLEET_SIZE = 4
TABLE = "titant_features"
WINDOW_DAYS = 14
#: Requests recomputed offline per run.
SAMPLE_SIZE = 256

#: Coalesced workload: the simulated arrival schedule and the policy under it.
ARRIVAL_RATE_PER_S = 2000.0
COALESCER = CoalescerConfig(max_batch=64, max_delay_ms=4.0)
#: Twice the offered rate: sheds nothing unless something breaks.
ADMISSION = AdmissionConfig(capacity_rps=2.0 * ARRIVAL_RATE_PER_S, max_queue_depth=256)

FULL_PLAN = Table1Configuration(9, DetectorName.GBDT, FeatureSetName.BASIC_DW)
BASIC_PLAN = Table1Configuration(5, DetectorName.GBDT, FeatureSetName.BASIC)


def hyperparameters(seed: int) -> ModelHyperparameters:
    """Small enough that a whole set-up takes about two seconds."""
    return ModelHyperparameters.fast_test_scale(seed=seed).with_overrides(
        embedding_dimension=16, gbdt_num_trees=40
    )


def new_fleet(hbase: HBaseClient) -> List[ModelServer]:
    """Four replicas, each on its own connection (a private row cache)."""
    return [ModelServer(hbase.connection(), ModelServerConfig()) for _ in range(FLEET_SIZE)]


class DecomposedFrontEnd:
    """``AlipayServer``'s request path, one public layer call at a time.

    Calls each layer in the order the top-level entry point does and records
    a span per call; the model-server step runs a harness-built
    ``FeaturePlanExecutor`` over a :class:`TimedSource` so the three HBase
    reads inside ``assemble`` get their own spans.  ``process_batch`` has the
    signature :class:`RequestCoalescer` flushes into, so the coalesced replay
    nests it under the coalescer's spans.
    """

    def __init__(self, alipay: AlipayServer, tracer: Tracer) -> None:
        self.tracer = tracer
        self.servers = alipay.model_servers
        self.router = alipay.router
        self.updater = alipay.feature_updater
        self.admission = alipay.admission
        self.fallback = alipay.fallback
        self.executors = [
            FeaturePlanExecutor(
                server.active_model.plan,
                TimedSource(HBaseFeatureSource(server.hbase, server.feature_table), tracer),
            )
            for server in self.servers
        ]
        self.last_coalescer_stats: Optional[Dict[str, float]] = None

    # -- model server -----------------------------------------------------
    def _predict(self, replica: int, requests: Sequence[TransactionRequest]) -> List[PredictionResponse]:
        tracer = self.tracer
        active = self.servers[replica].active_model
        with tracer.span("model_server.predict"):
            with tracer.span("model_server.to_transaction"):
                transactions = [request.to_transaction() for request in requests]
            with tracer.span("plan.assemble"):
                matrix = self.executors[replica].assemble(transactions, with_labels=False)
            with tracer.span("gbdt.predict"):
                probabilities = active.model.predict_proba(matrix.values)
            responses = [
                PredictionResponse(
                    transaction_id=request.transaction_id,
                    fraud_probability=float(probability),
                    is_fraud_alert=float(probability) >= active.threshold,
                    threshold=active.threshold,
                    model_version=active.version,
                    latency_ms=0.0,
                )
                for request, probability in zip(requests, probabilities)
            ]
        tracer.counts["router.model_calls"] += 1
        tracer.counts["router.model_rows"] += len(requests)
        return responses

    @staticmethod
    def _record(
        request: TransactionRequest,
        response: PredictionResponse,
        was_fraud: Optional[bool],
        degraded: bool = False,
    ) -> ServedTransaction:
        outcome = (
            TransactionOutcome.INTERRUPTED
            if response.is_fraud_alert
            else TransactionOutcome.APPROVED
        )
        return ServedTransaction(
            request=request,
            response=response,
            outcome=outcome,
            was_fraud=was_fraud,
            degraded=degraded,
        )

    def _observe(self, request: TransactionRequest) -> None:
        if self.updater is not None:
            with self.tracer.span("streaming.observe"):
                self.updater.observe_request(request)
            self.tracer.counts["streaming.requests_observed"] += 1

    # -- the three entry points -------------------------------------------
    def process(self, request: TransactionRequest) -> ServedTransaction:
        tracer = self.tracer
        with tracer.span("alipay.op"):
            with tracer.span("router.route"):
                replica = self.router.route(request.payer_id)
            response = self._predict(replica, [request])[0]
            self._observe(request)
            return self._record(request, response, None)

    def process_batch(
        self,
        requests: Sequence[TransactionRequest],
        *,
        was_fraud: Optional[Sequence[Optional[bool]]] = None,
    ) -> List[ServedTransaction]:
        tracer = self.tracer
        requests = list(requests)
        labels = list(was_fraud) if was_fraud is not None else [None] * len(requests)
        with tracer.span("alipay.process_batch"):
            groups: Dict[int, List[int]] = {}
            with tracer.span("router.route"):
                for index, request in enumerate(requests):
                    groups.setdefault(self.router.route(request.payer_id), []).append(index)
            responses: List[Optional[PredictionResponse]] = [None] * len(requests)
            for replica, indices in groups.items():
                batch = self._predict(replica, [requests[index] for index in indices])
                for index, response in zip(indices, batch):
                    responses[index] = response
            served = []
            for request, response, label in zip(requests, responses, labels):
                self._observe(request)
                served.append(self._record(request, response, label))
            return served

    def replay(
        self,
        transactions: Sequence[Transaction],
        arrival_times_s: Sequence[float],
        config: CoalescerConfig,
    ) -> List[ServedTransaction]:
        tracer = self.tracer
        served: List[ServedTransaction] = []
        with tracer.span("alipay.op"):
            coalescer = RequestCoalescer(self, config)
            for transaction, arrival_s in zip(transactions, arrival_times_s):
                now_ms = float(arrival_s) * 1000.0
                request = TransactionRequest.from_transaction(transaction)
                with tracer.span("admission.on_arrival"):
                    decision = self.admission.on_arrival(now_ms)
                if decision is AdmissionDecision.DEGRADE:
                    response = self.fallback.respond(request)
                    self._observe(request)
                    served.append(self._record(request, response, transaction.is_fraud, True))
                    continue
                with tracer.span("coalescer.submit"):
                    flushed = coalescer.submit(
                        request, now_ms=now_ms, was_fraud=transaction.is_fraud
                    )
                served.extend(flushed)
            with tracer.span("coalescer.submit"):
                served.extend(coalescer.flush())
            self.last_coalescer_stats = coalescer.stats()
        return served


class ServingWorkload(Workload):
    """Shared set-up and checks of the three serving workloads."""

    aggregation: Optional[AggregationConfig] = AggregationConfig(window_days=WINDOW_DAYS)
    configuration = FULL_PLAN
    row_cache_rows = 4096
    streaming_updater = False

    def __init__(self, inputs: Inputs, tracer: Optional[Tracer] = None) -> None:
        super().__init__(inputs, tracer)
        sizing = inputs.sizing
        self.per_round = sizing.ops_per_round * sizing.requests_per_op
        self.pipeline = OfflineTrainingPipeline(
            inputs.profiles, hyperparameters(inputs.seed), aggregation=self.aggregation
        )
        self.preparation = self.pipeline.prepare(
            inputs.dataset,
            need_deepwalk=self.configuration.feature_set.uses_deepwalk,
            need_structure2vec=False,
        )
        self.bundle = self.pipeline.train(self.preparation, self.configuration)
        # The WAL is capped (as a region server rotates it) so memory does not
        # grow with the number of rounds a run happens to fit.
        self.hbase = HBaseClient(
            num_regions=4,
            row_cache_ttl_s=3600.0,
            row_cache_rows=self.row_cache_rows,
            wal_max_entries=10_000,
        )
        self.fleet = new_fleet(self.hbase)
        self.updater = self.pipeline.deploy_fleet(
            self.bundle,
            self.preparation,
            self.hbase,
            self.fleet,
            streaming_updater=self.streaming_updater,
        )
        self.publish_extra_rows()
        self.alipay = self.front_end()
        self.requests = [
            TransactionRequest.from_transaction(txn) for txn in inputs.serve_transactions
        ]
        #: Served probabilities in serving order (first round only when
        #: every round must repeat it).
        self.served_probabilities: List[float] = []
        self.decomposed = DecomposedFrontEnd(self.alipay, tracer) if tracer else None
        self._cache_before = fleet_cache_stats(self.fleet)

    def publish_extra_rows(self) -> None:
        """Rows published beyond ``deploy_fleet``'s (default: none)."""

    def front_end(self) -> AlipayServer:
        return AlipayServer(
            self.fleet,
            feature_updater=self.updater,
            router=ServingRouter(FLEET_SIZE),
            retain_served=False,
        )

    def between_rounds(self) -> None:
        # The trackers keep every raw latency sample; reset them so memory
        # does not grow with the number of rounds a run happens to fit.
        for server in self.fleet:
            server.latency.reset()

    def work(self, item: object) -> int:
        return self.inputs.sizing.requests_per_op

    def _outcomes(self, served: Sequence[ServedTransaction]) -> List[Outcome]:
        result = [
            (entry.request.transaction_id, entry.response.fraud_probability, entry.degraded)
            for entry in served
        ]
        if not self.stateless or len(self.served_probabilities) < self.per_round:
            self.served_probabilities.extend(value for _, value, _ in result)
        return result

    # -- offline recompute --------------------------------------------------
    def sample_positions(self) -> List[int]:
        """Seeded sample of positions in the sequence of served requests."""
        served = len(self.served_probabilities)
        rng = np.random.default_rng(self.inputs.seed)
        return sorted(
            int(i) for i in rng.choice(served, size=min(SAMPLE_SIZE, served), replace=False)
        )

    def offline_source(self, aggregates: Optional[object]) -> InMemoryFeatureSource:
        return InMemoryFeatureSource(
            self.inputs.profiles, self.preparation.embeddings, aggregates=aggregates
        )

    def expected_probabilities(self, positions: Sequence[int]) -> List[float]:
        """The sample's probabilities through the offline path, one batch."""
        executor = FeaturePlanExecutor(
            self.bundle.plan, self.offline_source(self.pipeline.aggregator_for(self.preparation))
        )
        transactions = [self.inputs.serve_transactions[i] for i in positions]
        matrix = executor.assemble(transactions, with_labels=False)
        return [float(p) for p in self.bundle.detector.predict_proba(matrix.values)]

    def verify(self) -> None:
        positions = self.sample_positions()
        for position, expected in zip(positions, self.expected_probabilities(positions)):
            served = self.served_probabilities[position]
            if served != expected:
                self.failed += 1
                self.problems.append(
                    f"request {position}: served {served!r}, offline recompute {expected!r}"
                )

    def counts(self) -> Dict[str, float]:
        after = fleet_cache_stats(self.fleet)
        hits = after["hits"] - self._cache_before["hits"]
        misses = after["misses"] - self._cache_before["misses"]
        references = [
            account
            for txn in self.inputs.serve_transactions[: self.per_round]
            for account in (txn.payer_id, txn.payee_id)
        ]
        published = self.published_accounts()
        return {
            "hbase.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "hbase.default_row_fraction": sum(a not in published for a in references)
            / len(references),
        }

    def published_accounts(self) -> Mapping[str, object]:
        return self.inputs.profiles


class ServeScalarFull(ServingWorkload):
    """One caller, one ``process(request)`` at a time, writes beside reads.

    Every round replays the same day of requests, so each op has one sample
    per round to take its floor from.  The replays are late duplicates to the
    window engine: they land in the buckets the first pass created (counts
    grow, the number of buckets and the payer sets do not), so an op costs
    the same in every round while its served probability moves with the
    counts — the outputs differ per round and are checked per position.
    """

    name = "serve_scalar_full"
    stateless = False
    streaming_updater = True

    def __init__(self, inputs: Inputs, tracer: Optional[Tracer] = None) -> None:
        super().__init__(inputs, tracer)
        self._plain_hbase = self.updater.hbase
        self._timed_hbase = TimedHBase(self.updater.hbase, tracer) if tracer else None

    def round_ops(self, index: int) -> Sequence[object]:
        return self.requests[: self.per_round]

    def op(self, item: object) -> object:
        return self.alipay.process(item)

    def decomposed_op(self, item: object) -> object:
        return self.decomposed.process(item)

    def begin_decomposed_round(self) -> None:
        self.updater.hbase = self._timed_hbase

    def end_decomposed_round(self) -> None:
        self.updater.hbase = self._plain_hbase

    def outcomes(self, raw: object, item: object) -> List[Outcome]:
        return self._outcomes([raw])

    def expected_probabilities(self, positions: Sequence[int]) -> List[float]:
        """Recompute with an independent window engine, request by request.

        A served aggregate row is anchored at the account's latest write
        (the publish snapshot, or its last scored transfer), so the mirror
        engine reads each sampled account's row right after the event that
        last touched it — the state the request must have been scored on.
        """
        segment = self.inputs.serve_transactions[: self.per_round]
        wanted = set(positions)
        last_touch: Dict[str, int] = {}
        #: (position of the touching request) -> accounts whose row to keep.
        keep: Dict[int, List[Tuple[int, str]]] = {}
        for position in range(positions[-1] + 1):
            txn = segment[position % self.per_round]
            if position in wanted:
                for account in (txn.payer_id, txn.payee_id):
                    keep.setdefault(last_touch.get(account, -1), []).append((position, account))
            last_touch[txn.payer_id] = last_touch[txn.payee_id] = position

        mirror = SlidingWindowAggregator(self.aggregation).replay(self.inputs.history)
        publish_as_of = self.inputs.sizing.test_day * SECONDS_PER_DAY - 1
        snapshot = mirror.snapshot_rows(as_of=publish_as_of)
        rows: Dict[Tuple[int, str], Mapping[str, object]] = {
            key: snapshot.get(key[1], {}) for key in keep.get(-1, [])
        }
        expected: List[float] = []
        for position in range(positions[-1] + 1):
            txn = segment[position % self.per_round]
            if position in wanted:
                aggregates = {
                    account: rows[(position, account)]
                    for account in (txn.payer_id, txn.payee_id)
                }
                executor = FeaturePlanExecutor(self.bundle.plan, self.offline_source(aggregates))
                vector = executor.assemble([txn], with_labels=False).values
                expected.append(float(self.bundle.detector.predict_proba(vector)[0]))
            mirror.ingest(txn)
            for key in keep.get(position, []):
                rows[key] = mirror.hbase_row(key[1])
        return expected

    def counts(self) -> Dict[str, float]:
        counts = super().counts()
        counts["streaming.events_observed"] = float(self.updater.events_observed)
        return counts


class ServeBatchBasicCold(ServingWorkload):
    """256-request ``process_batch`` calls over a population the caches cannot hold."""

    name = "serve_batch_basic_cold"
    stateless = True
    aggregation = None
    configuration = BASIC_PLAN
    row_cache_rows = 1024

    def publish_extra_rows(self) -> None:
        self.hbase.bulk_load(TABLE, BASIC_FEATURES_FAMILY, self.inputs.hot_rows, version=10_000)

    def round_ops(self, index: int) -> Sequence[object]:
        size = self.inputs.sizing.requests_per_op
        return [self.requests[start : start + size] for start in range(0, self.per_round, size)]

    def op(self, item: object) -> object:
        return self.alipay.process_batch(item)

    def decomposed_op(self, item: object) -> object:
        with self.tracer.span("alipay.op"):
            return self.decomposed.process_batch(item)

    def outcomes(self, raw: object, item: object) -> List[Outcome]:
        return self._outcomes(raw)

    def offline_source(self, aggregates: Optional[object]) -> InMemoryFeatureSource:
        # The store holds the training world's rows (deploy_fleet published
        # them; streamed ids u0000000.. overlap theirs) under the newer hot rows.
        hot = self.inputs.hot_rows
        profiles = dict(self.inputs.profiles)
        for txn in self.inputs.serve_transactions:
            for account in (txn.payer_id, txn.payee_id):
                if account in hot:
                    profiles[account] = profile_from_row(account, hot[account])
        return InMemoryFeatureSource(profiles)

    def published_accounts(self) -> Mapping[str, object]:
        return {**self.inputs.profiles, **self.inputs.hot_rows}


class ServeCoalescedFull(ServingWorkload):
    """32-request replays on the simulated clock: admission, coalescer, routing."""

    name = "serve_coalesced_full"
    stateless = True

    def __init__(self, inputs: Inputs, tracer: Optional[Tracer] = None) -> None:
        super().__init__(inputs, tracer)
        self._clock_s = 0.0
        self.coalescer_stats: List[Dict[str, float]] = []

    def front_end(self) -> AlipayServer:
        return AlipayServer(
            self.fleet,
            router=ServingRouter(FLEET_SIZE),
            admission=AdmissionController(ADMISSION),
        )

    def round_ops(self, index: int) -> Sequence[object]:
        size = self.inputs.sizing.requests_per_op
        ops = []
        for start in range(0, self.per_round, size):
            chunk = self.inputs.serve_transactions[start : start + size]
            # The admission clock rejects a restart, so the schedule keeps
            # advancing from op to op and from round to round.
            times = [self._clock_s + k / ARRIVAL_RATE_PER_S for k in range(len(chunk))]
            self._clock_s = times[-1] + 1.0 / ARRIVAL_RATE_PER_S
            ops.append((chunk, times))
        return ops

    def op(self, item: object) -> object:
        chunk, times = item
        return self.alipay.replay_transactions(
            chunk, arrival_times_s=times, coalescer=COALESCER, presorted=True
        )

    def decomposed_op(self, item: object) -> object:
        chunk, times = item
        return self.decomposed.replay(chunk, times, COALESCER)

    def outcomes(self, raw: object, item: object) -> List[Outcome]:
        if isinstance(raw, list):  # the decomposed replay returns what it served
            self.coalescer_stats.append(self.decomposed.last_coalescer_stats)
            return self._outcomes(raw)
        served = list(self.alipay.served)
        self.alipay.served.clear()
        self.alipay.notifications.clear()
        self.coalescer_stats.append(self.alipay.last_coalescer_stats)
        return self._outcomes(served)

    def counts(self) -> Dict[str, float]:
        counts = super().counts()
        stats = self.coalescer_stats
        batches = sum(s["batches"] for s in stats)
        requests = sum(s["requests"] for s in stats)
        admission = self.alipay.admission.stats()
        counts.update(
            {
                "coalescer.flushes_per_op": batches / len(stats),
                "coalescer.mean_batch": requests / batches,
                "coalescer.deadline_flush_fraction": sum(s["deadline_flushes"] for s in stats)
                / batches,
                "coalescer.mean_wait_ms": sum(s["mean_wait_ms"] * s["requests"] for s in stats)
                / requests,
                "admission.degraded_fraction": admission["degraded_fraction"],
                "admission.peak_queue_depth": admission["peak_queue_depth"],
            }
        )
        return counts
