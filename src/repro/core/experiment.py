"""Rolling T+1 experiment harness.

Regenerates the paper's evaluation: Table 1 (eleven configurations × seven
consecutive test days), Figure 9 (rec@top 1 % per detector), Figure 11
(embedding-dimension sweep), Figure 12 (GBDT tree-count sweep) and Table 2
(DeepWalk node-sampling sweep).  Absolute numbers depend on the synthetic
world; the harness is written so the orderings and trends the paper reports
can be checked programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import (
    DetectorName,
    ExperimentConfig,
    FeatureSetName,
    Table1Configuration,
    TABLE1_CONFIGURATIONS,
)
from repro.core.evaluation import (
    EvaluationMetrics,
    evaluate_scores,
    recall_at_top_percent,
    select_threshold,
)
from repro.core.pipeline import OfflineTrainingPipeline, SlicePreparation, build_detector
from repro.datagen.datasets import RollingDatasets
from repro.datagen.transactions import TransactionWorld
from repro.exceptions import ConfigurationError
from repro.hbase.client import HBaseClient
from repro.logging_utils import get_logger
from repro.serving.alipay import AlipayServer
from repro.serving.model_server import ModelServer, ModelServerConfig

logger = get_logger("core.experiment")


@dataclass
class DailyResult:
    """Metrics of one configuration on one test day."""

    test_day: int
    metrics: EvaluationMetrics

    @property
    def f1(self) -> float:
        return self.metrics.f1


@dataclass
class ConfigurationResult:
    """One row of Table 1: per-day metrics plus the average."""

    configuration: Table1Configuration
    daily: List[DailyResult] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.configuration.label

    @property
    def mean_f1(self) -> float:
        return float(np.mean([d.f1 for d in self.daily])) if self.daily else 0.0

    def f1_by_day(self) -> Dict[int, float]:
        return {d.test_day: d.f1 for d in self.daily}


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
        self.config.validate()
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

    # ------------------------------------------------------------------
    # Table 1
    # ------------------------------------------------------------------
    def run_table1(
        self,
        *,
        configurations: Optional[Sequence[Table1Configuration]] = None,
    ) -> List[ConfigurationResult]:
        """Run every configuration over every rolling dataset."""
        configurations = list(configurations or self.config.configurations)
        results = [ConfigurationResult(configuration=c) for c in configurations]
        for dataset in self.datasets():
            preparation = self.preparation_for(dataset)
            for result in results:
                metrics = self._run_configuration(preparation, result.configuration)
                result.daily.append(DailyResult(test_day=dataset.spec.test_day, metrics=metrics))
                logger.debug(
                    "day %d %s F1=%.4f",
                    dataset.spec.test_day,
                    result.label,
                    metrics.f1,
                )
        return results

    def _run_configuration(
        self,
        preparation: SlicePreparation,
        configuration: Table1Configuration,
    ) -> EvaluationMetrics:
        """Train one configuration and score the test day.

        The paper does not state how the F1 decision threshold is chosen, and
        several detectors produce very differently calibrated scores (IF
        anomaly scores concentrate near 0.5, boosted trees can be near-perfect
        on the training window).  To compare methods on equal footing we
        report the best attainable F1 over thresholds on the test scores —
        a threshold-free ranking-quality metric — while the production
        deployment path (ModelServer) keeps using the threshold calibrated on
        the training window (``bundle.threshold``).
        """
        bundle = self.pipeline.train(preparation, configuration)
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
    # Figure 9: rec@top 1 % per detection method
    # ------------------------------------------------------------------
    def run_recall_at_top(
        self,
        *,
        percent: float = 1.0,
        detectors: Sequence[DetectorName] = (
            DetectorName.ISOLATION_FOREST,
            DetectorName.ID3,
            DetectorName.C50,
            DetectorName.LOGISTIC_REGRESSION,
            DetectorName.GBDT,
        ),
        feature_set: FeatureSetName = FeatureSetName.BASIC_DW,
    ) -> Dict[str, float]:
        """rec@top percent for each detector on Dataset 1.

        IF, ID3 and C5.0 are always evaluated on basic features only (as in
        Table 1); LR and GBDT use ``feature_set``.
        """
        dataset = self.datasets()[0]
        preparation = self.preparation_for(dataset)
        results: Dict[str, float] = {}
        for detector_name in detectors:
            if detector_name in (
                DetectorName.ISOLATION_FOREST,
                DetectorName.ID3,
                DetectorName.C50,
            ):
                configuration = Table1Configuration(0, detector_name, FeatureSetName.BASIC)
            else:
                configuration = Table1Configuration(0, detector_name, feature_set)
            bundle = self.pipeline.train(preparation, configuration)
            test_matrix = self.pipeline.evaluate(preparation, bundle)
            scores = bundle.detector.predict_proba(test_matrix.values)
            results[detector_name.value] = recall_at_top_percent(
                test_matrix.labels, scores, percent=percent
            )
        return results

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
                metrics = self._run_configuration(preparation, configuration)
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
            metrics = self._run_configuration(preparation, configuration)
            results[int(count)] = metrics.f1
        return results

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @staticmethod
    def format_table1(results: Sequence[ConfigurationResult]) -> str:
        """Render Table 1 as fixed-width text (rows = configurations, columns = days)."""
        if not results:
            return "(no results)"
        days = sorted({d.test_day for r in results for d in r.daily})
        header = ["#", "Configuration"] + [f"day {d}" for d in days] + ["mean"]
        lines = ["  ".join(f"{h:>18}" if i > 1 else f"{h:<28}" for i, h in enumerate(header))]
        for result in results:
            by_day = result.f1_by_day()
            cells = [f"{result.configuration.number}", result.label]
            cells += [f"{by_day.get(d, float('nan')):.2%}" for d in days]
            cells += [f"{result.mean_f1:.2%}"]
            lines.append(
                "  ".join(f"{c:>18}" if i > 1 else f"{c:<28}" for i, c in enumerate(cells))
            )
        return "\n".join(lines)
