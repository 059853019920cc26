"""Rolling T+1 experiment harness.

Regenerates the paper's GBDT sweeps: Figure 11 (embedding dimension),
Figure 12 (tree count) and Table 2 (DeepWalk node sampling), and owns how a
trained configuration is scored on its test day.  Table 1 and Figure 9, which
also train the IF, ID3 and C5.0 baselines, are driven from
``benchmarks/paper/table1.py`` through the same runner.  Absolute numbers
depend on the synthetic world; the harness is written so the orderings and
trends the paper reports can be checked programmatically.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.config import (
    DetectorName,
    ExperimentConfig,
    FeatureSetName,
    Table1Configuration,
)
from repro.core.evaluation import EvaluationMetrics, evaluate_scores, select_threshold
from repro.core.pipeline import (
    OfflineTrainingPipeline,
    SlicePreparation,
    TrainedModelBundle,
    build_detector,
)
from repro.datagen.datasets import RollingDatasets
from repro.exceptions import ConfigurationError
from repro.hbase.client import HBaseClient
from repro.serving.alipay import AlipayServer
from repro.serving.model_server import ModelServer, ModelServerConfig


class ExperimentRunner:
    """Runs the rolling evaluation on a generated transaction world.

    Accepts either a materialized
    :class:`~repro.datagen.transactions.TransactionWorld` or a
    :class:`~repro.datagen.stream.WorldStream` (positioned at its start).
    With a stream, dataset slices are assembled in a single streaming pass
    (:meth:`RollingDatasets.from_stream`) and cached, so the full
    transaction list is never materialized outside the slice windows the
    evaluation actually needs.
    """

    def __init__(self, world, config: Optional[ExperimentConfig] = None):
        from repro.datagen.stream import ScalableWorldStream, WorldStream

        if isinstance(world, ScalableWorldStream):
            raise ConfigurationError(
                "ExperimentRunner needs per-user profiles for the offline "
                "pipeline; columnar ScalableWorldStream populations are for "
                "the serving/load path — use a WorldStream (or materialized "
                "TransactionWorld) for experiments"
            )
        self._stream = world if isinstance(world, WorldStream) else None
        self.world = world
        self.config = config or ExperimentConfig.laptop_scale()
        self.pipeline = OfflineTrainingPipeline(
            world.profiles_by_id,
            self.config.hyperparameters,
            embedding_side=self.config.embedding_side,
            aggregation=self.config.aggregation,
        )
        self._preparations: Dict[int, SlicePreparation] = {}
        self._stream_datasets: Optional[RollingDatasets] = None

    # ------------------------------------------------------------------
    def datasets(self) -> RollingDatasets:
        """The configured rolling T+1 dataset slices of the world."""
        if self._stream is not None:
            if self._stream_datasets is None:
                self._stream_datasets = RollingDatasets.from_stream(
                    self._stream,
                    num_datasets=self.config.num_datasets,
                    network_days=self.config.network_days,
                    train_days=self.config.train_days,
                    first_test_day=self.config.first_test_day,
                )
            return self._stream_datasets
        return RollingDatasets.build(
            self.world,
            num_datasets=self.config.num_datasets,
            network_days=self.config.network_days,
            train_days=self.config.train_days,
            first_test_day=self.config.first_test_day,
        )

    def preparation_for(self, dataset, **overrides) -> SlicePreparation:
        """Prepare (and cache) the network + embeddings of one dataset slice."""
        key = dataset.spec.test_day
        if overrides:
            return self._prepare(dataset, **overrides)
        if key not in self._preparations:
            needs = self.config.feature_sets_required()
            self._preparations[key] = self._prepare(
                dataset,
                need_deepwalk=needs["deepwalk"],
                need_structure2vec=needs["structure2vec"],
            )
        return self._preparations[key]

    def _prepare(self, dataset, **kwargs) -> SlicePreparation:
        return self.pipeline.prepare(dataset, **kwargs)

    def score_test_day(
        self, preparation: SlicePreparation, bundle: TrainedModelBundle
    ) -> EvaluationMetrics:
        """Score a trained bundle on its slice's test day.

        The paper does not state how the F1 decision threshold is chosen, and
        several detectors produce very differently calibrated scores (IF
        anomaly scores concentrate near 0.5, boosted trees can be near-perfect
        on the training window).  To compare methods on equal footing we
        report the best attainable F1 over thresholds on the test scores —
        a threshold-free ranking-quality metric — while the production
        deployment path (ModelServer) keeps using the threshold calibrated on
        the training window (``bundle.threshold``).
        """
        test_matrix = self.pipeline.evaluate(preparation, bundle)
        scores = bundle.detector.predict_proba(test_matrix.values)
        return evaluate_scores(test_matrix.labels, scores, threshold=None)

    # ------------------------------------------------------------------
    # Online serving stack (used by the latency benchmark and examples)
    # ------------------------------------------------------------------
    def build_serving_stack(
        self,
        preparation: SlicePreparation,
        configuration: Table1Configuration,
        *,
        num_servers: int = 1,
        sla_budget_ms: float = 50.0,
        row_cache_ttl_s: Optional[float] = None,
        row_cache_rows: Optional[int] = None,
        router=None,
        registry=None,
    ):
        """Train one configuration and deploy it to a fresh online stack.

        Returns ``(bundle, hbase, servers, alipay)``: the trained bundle, the
        Ali-HBase store populated with per-user features and embeddings, the
        Model Server fleet with the model + exported FeaturePlan hot-loaded,
        and an Alipay front end sharding requests across the fleet.  With sliding
        window aggregation configured, the front end comes wired to the
        pre-seeded streaming feature updater, so replayed transactions keep
        the served aggregates fresh.

        Each server runs on its own :meth:`HBaseClient.connection` (a private
        client-side row cache over the shared store — the real fleet shape;
        size it with ``row_cache_ttl_s``/``row_cache_rows``).  ``router``
        replaces the front end's default policy (a
        :class:`~repro.serving.router.ServingRouter` sharding by account);
        ``registry`` is where the fleet load registers the bundle (a private
        registry when omitted).
        """
        bundle = self.pipeline.train(preparation, configuration)
        hbase = HBaseClient()
        servers = [
            ModelServer(
                hbase.connection(
                    row_cache_ttl_s=row_cache_ttl_s, row_cache_rows=row_cache_rows
                ),
                ModelServerConfig(sla_budget_ms=sla_budget_ms),
            )
            for _ in range(num_servers)
        ]
        updater = self.pipeline.deploy_fleet(
            bundle, preparation, hbase, servers, registry=registry
        )
        return bundle, hbase, servers, AlipayServer(
            servers, feature_updater=updater, router=router
        )

    # ------------------------------------------------------------------
    # Figure 11: embedding-dimension sweep
    # ------------------------------------------------------------------
    def run_dimension_sweep(
        self,
        dimensions: Sequence[int] = (8, 16, 32, 64),
        *,
        feature_sets: Sequence[FeatureSetName] = (
            FeatureSetName.BASIC_S2V,
            FeatureSetName.BASIC_DW,
            FeatureSetName.BASIC_DW_S2V,
        ),
    ) -> Dict[str, Dict[int, float]]:
        """F1 of GBDT versus the embedding dimension, on Dataset 1."""
        dataset = self.datasets()[0]
        results: Dict[str, Dict[int, float]] = {fs.value: {} for fs in feature_sets}
        for dimension in dimensions:
            preparation = self.pipeline.prepare(
                dataset,
                need_deepwalk=any(fs.uses_deepwalk for fs in feature_sets),
                need_structure2vec=any(fs.uses_structure2vec for fs in feature_sets),
                embedding_dimension=int(dimension),
            )
            for feature_set in feature_sets:
                configuration = Table1Configuration(0, DetectorName.GBDT, feature_set)
                bundle = self.pipeline.train(preparation, configuration)
                metrics = self.score_test_day(preparation, bundle)
                results[feature_set.value][int(dimension)] = metrics.f1
        return results

    # ------------------------------------------------------------------
    # Figure 12: GBDT tree-count sweep
    # ------------------------------------------------------------------
    def run_tree_sweep(
        self,
        tree_counts: Sequence[int] = (100, 200, 400, 800),
        *,
        feature_sets: Sequence[FeatureSetName] = (
            FeatureSetName.BASIC,
            FeatureSetName.BASIC_S2V,
            FeatureSetName.BASIC_DW,
            FeatureSetName.BASIC_DW_S2V,
        ),
    ) -> Dict[str, Dict[int, float]]:
        """F1 versus the number of GBDT trees.

        A single model with ``max(tree_counts)`` trees is fitted per feature
        set; the smaller tree counts are evaluated from its staged predictions
        (identical to fitting separately, far cheaper).
        """
        tree_counts = sorted(int(t) for t in tree_counts)
        if not tree_counts:
            raise ConfigurationError("tree_counts must not be empty")
        dataset = self.datasets()[0]
        preparation = self.preparation_for(dataset)
        hp = self.config.hyperparameters
        results: Dict[str, Dict[int, float]] = {}
        for feature_set in feature_sets:
            assembler = self.pipeline.assembler_for(preparation, feature_set)
            train_matrix = assembler.assemble(dataset.train_transactions)
            test_matrix = assembler.assemble(dataset.test_transactions)
            model = build_detector(
                DetectorName.GBDT, hp.with_overrides(gbdt_num_trees=tree_counts[-1])
            )
            model.fit(train_matrix.values, train_matrix.labels)
            per_count: Dict[int, float] = {}
            staged_train = {
                count: scores
                for count, scores in model.staged_predict_proba(train_matrix.values, every=1)
                if count in tree_counts
            }
            for count, scores in model.staged_predict_proba(test_matrix.values, every=1):
                if count not in tree_counts:
                    continue
                threshold = select_threshold(train_matrix.labels, staged_train[count])
                metrics = evaluate_scores(test_matrix.labels, scores, threshold=threshold)
                per_count[count] = metrics.f1
            results[feature_set.value] = per_count
        return results

    # ------------------------------------------------------------------
    # Table 2: DeepWalk node-sampling sweep
    # ------------------------------------------------------------------
    def run_node_sampling_sweep(
        self, sampling_counts: Sequence[int] = (25, 50, 100, 200)
    ) -> Dict[int, float]:
        """F1 of Basic+DW+GBDT versus the number of walks per node (Dataset 1)."""
        dataset = self.datasets()[0]
        results: Dict[int, float] = {}
        for count in sampling_counts:
            preparation = self.pipeline.prepare(
                dataset,
                need_deepwalk=True,
                need_structure2vec=False,
                deepwalk_num_walks=int(count),
            )
            configuration = Table1Configuration(0, DetectorName.GBDT, FeatureSetName.BASIC_DW)
            bundle = self.pipeline.train(preparation, configuration)
            metrics = self.score_test_day(preparation, bundle)
            results[int(count)] = metrics.f1
        return results
