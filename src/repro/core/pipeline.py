"""The offline T+1 training pipeline.

For every training day the production flow of Figure 3 is:

1. transaction logs are loaded into MaxCompute; SQL / MapReduce jobs extract
   the labelled training window and aggregate the 90-day history into the
   weighted transaction-network edge list,
2. user node embeddings are learned on KunPeng (DeepWalk and/or
   Structure2Vec),
3. the detector is trained on basic features ⊕ embeddings, and the alert
   threshold is calibrated on the training window,
4. the model file goes to the model registry and the per-user features +
   embeddings are uploaded to Ali-HBase (a new version per run), ready for the
   Model Server.

:class:`OfflineTrainingPipeline` implements those steps against the simulated
substrates.  Embedding training is done once per dataset slice and shared by
every Table 1 configuration that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import (
    DetectorName,
    FeatureSetName,
    ModelHyperparameters,
    Table1Configuration,
)
from repro.core.evaluation import select_threshold
from repro.core.registry import ModelRegistry, ModelVersion
from repro.datagen.datasets import DatasetSlice
from repro.datagen.schema import UserProfile
from repro.exceptions import ConfigurationError
from repro.features.aggregation import (
    SECONDS_PER_DAY,
    AggregationConfig,
    TransactionAggregator,
    batch_as_of_time,
)
from repro.features.assembler import EmbeddingSide, FeatureAssembler
from repro.features.matrix import FeatureMatrix
from repro.features.plan import FeaturePlan
from repro.features.streaming import PointInTimeAggregationSource
from repro.graph.builder import build_network
from repro.graph.network import TransactionNetwork
from repro.hbase.client import (
    AGGREGATES_FAMILY,
    BASIC_FEATURES_FAMILY,
    DEFAULT_FEATURE_TABLE,
    EMBEDDINGS_FAMILY,
    HBaseClient,
)
from repro.logging_utils import get_logger
from repro.maxcompute.client import MaxComputeClient
from repro.maxcompute.mapreduce import transaction_edge_job
from repro.models.base import BaseDetector
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.logistic_regression import LogisticRegression
from repro.nrl.deepwalk import DeepWalk, DeepWalkConfig
from repro.nrl.embeddings import EmbeddingSet
from repro.nrl.structure2vec import (
    Structure2Vec,
    Structure2VecConfig,
    node_labels_from_transactions,
)
from repro.nrl.word2vec import SkipGramConfig
from repro.graph.random_walk import RandomWalkConfig
from repro.rng import derive_seed
from repro.serving.feature_source import embedding_cell, profile_row
from repro.serving.model_server import ModelServer
from repro.serving.rotation import FleetController
from repro.serving.streaming import StreamingFeatureUpdater

logger = get_logger("core.pipeline")


def build_detector(name: DetectorName, hyperparameters: ModelHyperparameters) -> BaseDetector:
    """Instantiate GBDT or LR with the configured hyperparameters.

    Table 1's IF, ID3 and C5.0 baselines are built in ``benchmarks/paper``
    and handed to :meth:`OfflineTrainingPipeline.train` as its ``detector``.
    """
    if name is DetectorName.LOGISTIC_REGRESSION:
        return LogisticRegression(
            l1=hyperparameters.lr_l1,
            iterations=hyperparameters.lr_iterations,
            discretize_bins=hyperparameters.lr_discretize_bins,
        )
    if name is DetectorName.GBDT:
        return GradientBoostingClassifier(
            num_trees=hyperparameters.gbdt_num_trees,
            max_depth=hyperparameters.gbdt_max_depth,
            subsample_rows=hyperparameters.gbdt_subsample,
            subsample_features=hyperparameters.gbdt_subsample,
            seed=hyperparameters.seed,
        )
    raise ConfigurationError(
        f"build_detector builds GBDT and LR only, not {name!r}; Table 1's "
        "baselines are built by build_table1_detector in benchmarks/paper/table1.py"
    )


@dataclass
class SlicePreparation:
    """Per-slice artefacts shared across Table 1 configurations."""

    dataset: DatasetSlice
    network: TransactionNetwork
    embeddings: Dict[str, EmbeddingSet] = field(default_factory=dict)
    #: Batch sliding-window aggregator fitted on the slice history (lazily
    #: built when the pipeline has an aggregation window configured).
    aggregator: Optional[TransactionAggregator] = None
    #: Point-in-time aggregation provider shared by every assembler of this
    #: slice (holds the pre-sorted history once, and at most one engine that
    #: replayed it, until ``deploy_fleet`` takes that engine).
    aggregation_source: Optional[PointInTimeAggregationSource] = None

    def embedding_sets_for(self, feature_set: FeatureSetName) -> Dict[str, EmbeddingSet]:
        """Ordered embedding blocks for a feature-set configuration."""
        selected: Dict[str, EmbeddingSet] = {}
        if feature_set.uses_deepwalk:
            selected["dw"] = self.embeddings["dw"]
        if feature_set.uses_structure2vec:
            selected["s2v"] = self.embeddings["s2v"]
        return selected


@dataclass
class TrainedModelBundle:
    """Everything the online side needs about one trained model.

    ``plan`` is the serialisable :class:`FeaturePlan` the trainer exports
    alongside the model file — the Model Server executes it verbatim, so the
    online feature vector cannot drift from the training one.  The
    ``embedding_specs`` / ``embedding_side`` fields are the legacy view of
    the same information, kept for audit metadata.
    """

    configuration: Table1Configuration
    detector: BaseDetector
    threshold: float
    feature_names: List[str]
    plan: FeaturePlan
    embedding_specs: List[tuple]
    embedding_side: str
    training_day: int
    train_rows: int
    train_frauds: int

    @property
    def version(self) -> str:
        """Registry version string: training day ⊕ detector ⊕ feature set."""
        return f"day{self.training_day}_{self.configuration.detector.value}_{self.configuration.feature_set.value}"


class OfflineTrainingPipeline:
    """Offline half of TitAnt, on the simulated substrates."""

    def __init__(
        self,
        profiles: Dict[str, UserProfile],
        hyperparameters: Optional[ModelHyperparameters] = None,
        *,
        embedding_side: str = "both",
        aggregation: Optional[AggregationConfig] = None,
        use_maxcompute: bool = False,
    ) -> None:
        self.profiles = profiles
        self.hyperparameters = hyperparameters or ModelHyperparameters.laptop_scale()
        self.embedding_side = embedding_side
        self.aggregation = aggregation
        self.maxcompute = MaxComputeClient() if use_maxcompute else None
        #: Highest version bulk-loaded per table by publish_features, so the
        #: streaming updater's write versions always supersede the snapshot.
        self._published_versions: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Step 1+2: network construction and embedding training
    # ------------------------------------------------------------------
    def prepare(
        self,
        dataset: DatasetSlice,
        *,
        need_deepwalk: bool = True,
        need_structure2vec: bool = True,
        embedding_dimension: Optional[int] = None,
        deepwalk_num_walks: Optional[int] = None,
    ) -> SlicePreparation:
        """Build the transaction network and train the requested embeddings."""
        hp = self.hyperparameters
        dimension = embedding_dimension or hp.embedding_dimension
        network = self._build_network(dataset)
        preparation = SlicePreparation(dataset=dataset, network=network)

        if need_deepwalk:
            deepwalk = DeepWalk(
                DeepWalkConfig(
                    walk=RandomWalkConfig(
                        walk_length=hp.deepwalk_walk_length,
                        num_walks_per_node=deepwalk_num_walks or hp.deepwalk_num_walks,
                    ),
                    skipgram=SkipGramConfig(
                        dimension=dimension,
                        window=hp.deepwalk_window,
                        epochs=hp.deepwalk_epochs,
                    ),
                    seed=derive_seed(hp.seed, f"deepwalk_day{dataset.spec.test_day}"),
                )
            )
            deepwalk.fit(network)
            embeddings = deepwalk.embeddings()
            embeddings.name = "dw"
            preparation.embeddings["dw"] = embeddings
        if need_structure2vec:
            labels = node_labels_from_transactions(dataset.network_transactions)
            s2v = Structure2Vec(
                Structure2VecConfig(
                    dimension=dimension,
                    epochs=hp.s2v_epochs,
                    propagation_rounds=hp.s2v_propagation_rounds,
                    seed=derive_seed(hp.seed, f"s2v_day{dataset.spec.test_day}"),
                )
            )
            s2v.fit(network, node_labels=labels)
            embeddings = s2v.embeddings()
            embeddings.name = "s2v"
            preparation.embeddings["s2v"] = embeddings
        return preparation

    def _build_network(self, dataset: DatasetSlice) -> TransactionNetwork:
        """Aggregate the 90-day history into the transaction network.

        With ``use_maxcompute`` the aggregation runs as a MapReduce job over a
        MaxCompute table (the production path); otherwise the network is built
        directly in memory (identical result, used by the fast harness).
        """
        if self.maxcompute is None:
            return build_network(dataset.network_transactions)
        table_name = f"transactions_day{dataset.spec.test_day}"
        self.maxcompute.load_records(
            table_name, [txn.to_row() for txn in dataset.network_transactions]
        )
        result = self.maxcompute.submit_mapreduce(
            transaction_edge_job(), table_name, result_table=f"edges_day{dataset.spec.test_day}"
        )
        if not result.succeeded or result.result_table is None:
            raise ConfigurationError(f"edge aggregation job failed: {result.error}")
        network = TransactionNetwork()
        for row in result.result_table.rows():
            network.add_edge(str(row["payer_id"]), str(row["payee_id"]), float(row["weight"]))
        return network

    # ------------------------------------------------------------------
    # Step 3: detector training
    # ------------------------------------------------------------------
    def aggregator_for(
        self, preparation: SlicePreparation
    ) -> Optional[TransactionAggregator]:
        """The slice's batch aggregator (None when aggregation is off).

        Fitted once per slice on the full pre-test-day history with the
        configured window, as of the test day — this is what seeds the
        published HBase rows.  Feature *assembly* does not use this frozen
        state; see :meth:`aggregation_source_for`.
        """
        if self.aggregation is None:
            return None
        cached = preparation.aggregator
        if cached is None or cached.config != self.aggregation:
            # Preparations are shared across pipelines (embeddings are the
            # expensive part); rebuild when this pipeline's window differs.
            preparation.aggregator = TransactionAggregator(self.aggregation).fit(
                self._slice_history(preparation),
                as_of_day=preparation.dataset.spec.test_day,
            )
        return preparation.aggregator

    @staticmethod
    def _slice_history(preparation: SlicePreparation) -> List:
        """The slice's full pre-test-day event stream (network + train)."""
        return (
            preparation.dataset.network_transactions
            + preparation.dataset.train_transactions
        )

    def aggregation_source_for(
        self, preparation: SlicePreparation
    ) -> Optional[PointInTimeAggregationSource]:
        """Point-in-time aggregation provider for training/evaluation matrices.

        Every assembled transaction sees the aggregates *as of the instant
        before it happened* (score-then-ingest over the merged event-time
        stream) — the same contract online serving applies — so training rows
        carry no look-ahead into their own window.  Built once per slice; the
        source holds the history pre-sorted.
        """
        if self.aggregation is None:
            return None
        cached = preparation.aggregation_source
        if cached is None or cached.config != self.aggregation:
            preparation.aggregation_source = PointInTimeAggregationSource(
                self.aggregation, self._slice_history(preparation)
            )
        return preparation.aggregation_source

    def assembler_for(
        self, preparation: SlicePreparation, feature_set: FeatureSetName
    ) -> FeatureAssembler:
        """Offline feature assembler for one feature-set configuration."""
        return FeatureAssembler(
            self.profiles,
            preparation.embedding_sets_for(feature_set),
            embedding_side=EmbeddingSide(self.embedding_side),
            aggregator=self.aggregation_source_for(preparation),
        )

    def train(
        self,
        preparation: SlicePreparation,
        configuration: Table1Configuration,
        *,
        detector: Optional[BaseDetector] = None,
    ) -> TrainedModelBundle:
        """Train one Table 1 configuration on the slice's training window.

        ``detector`` is an unfitted model to train instead of
        :func:`build_detector`'s — how the Table 1 baselines of
        ``benchmarks/paper`` get trained.
        """
        assembler = self.assembler_for(preparation, configuration.feature_set)
        train_matrix = assembler.assemble(preparation.dataset.train_transactions)
        detector = detector or build_detector(configuration.detector, self.hyperparameters)
        detector.fit(train_matrix.values, train_matrix.labels)
        train_scores = detector.predict_proba(train_matrix.values)
        threshold = select_threshold(train_matrix.labels, train_scores)
        plan = assembler.plan
        return TrainedModelBundle(
            configuration=configuration,
            detector=detector,
            threshold=threshold,
            feature_names=train_matrix.feature_names,
            plan=plan,
            embedding_specs=plan.embedding_specs,
            embedding_side=plan.embedding_side,
            training_day=preparation.dataset.spec.test_day,
            train_rows=train_matrix.num_rows,
            train_frauds=int(train_matrix.labels.sum()) if train_matrix.labels is not None else 0,
        )

    def evaluate(self, preparation: SlicePreparation, bundle: TrainedModelBundle) -> FeatureMatrix:
        """Assemble the test-day feature matrix for a trained bundle."""
        assembler = self.assembler_for(preparation, bundle.configuration.feature_set)
        return assembler.assemble(preparation.dataset.test_transactions)

    # ------------------------------------------------------------------
    # Step 4: publication to the online side
    # ------------------------------------------------------------------
    def register_model(
        self,
        registry: ModelRegistry,
        bundle: TrainedModelBundle,
        *,
        overwrite: bool = False,
    ) -> ModelVersion:
        """Register a trained bundle (model ⊕ threshold ⊕ plan) as a version."""
        version = ModelVersion(
            version=bundle.version,
            model=bundle.detector,
            threshold=bundle.threshold,
            feature_names=bundle.feature_names,
            plan=bundle.plan,
            training_day=bundle.training_day,
        )
        registry.register(version, overwrite=overwrite)
        return version

    def publish_features(
        self,
        preparation: SlicePreparation,
        hbase: HBaseClient,
        *,
        table_name: str = DEFAULT_FEATURE_TABLE,
        version: Optional[int] = None,
        include_aggregates: bool = True,
    ) -> int:
        """Upload per-user profile rows and embeddings to Ali-HBase.

        ``include_aggregates=False`` skips the aggregate-family seed when the
        caller publishes it from a seeded streaming engine instead
        (:meth:`deploy_fleet`), avoiding a second full-history aggregation.
        """
        hbase.create_feature_store(table_name)
        version = preparation.dataset.spec.test_day if version is None else version
        self._published_versions[table_name] = max(
            version, self._published_versions.get(table_name, 0)
        )
        profile_rows = {
            user_id: profile_row(profile) for user_id, profile in self.profiles.items()
        }
        written = hbase.bulk_load(table_name, BASIC_FEATURES_FAMILY, profile_rows, version=version)

        embedding_rows: Dict[str, Dict[str, object]] = {}
        for set_name, embeddings in preparation.embeddings.items():
            for node in embeddings.node_ids():
                row = embedding_rows.setdefault(node, {})
                row[set_name] = embedding_cell(embeddings[node])
        if embedding_rows:
            written += hbase.bulk_load(
                table_name, EMBEDDINGS_FAMILY, embedding_rows, version=version
            )

        # With an aggregation window configured, seed the streaming family
        # from the batch aggregator so day-one serving starts warm; the
        # online StreamingFeatureUpdater takes over from this exact state.
        if include_aggregates:
            aggregator = self.aggregator_for(preparation)
            if aggregator is not None:
                written += hbase.bulk_load(
                    table_name, AGGREGATES_FAMILY, aggregator.snapshot_rows(), version=version
                )
        logger.info("published %d HBase rows at version %s", written, version)
        return written

    def build_streaming_updater(
        self,
        preparation: SlicePreparation,
        hbase: HBaseClient,
        *,
        table_name: str = DEFAULT_FEATURE_TABLE,
    ) -> StreamingFeatureUpdater:
        """The online half of the windowing definition exported with the plan.

        Its engine is the slice's pre-test-day history replayed under the
        *same* :class:`AggregationConfig` the offline assembler used — the
        training pass's own engine when it kept one, handed over by
        :meth:`PointInTimeAggregationSource.seeded_engine`.  Querying the
        seeded engine at the batch as-of instant —
        ``batch_as_of_time(test_day)``, one second before test-day
        midnight (``aggregator_for(...).as_of_time``; at midnight itself the
        left-open window already drops events exactly one window old) —
        reproduces the batch aggregator's published rows, and from the first
        online ingest onwards every written row is anchored at the live
        watermark — one windowing definition for both worlds.

        Write-throughs start at the highest version ``publish_features``
        bulk-loaded at (or the test day), so they always supersede the
        published snapshot.

        The refresh interval is the window length for sub-day windows — idle
        accounts' rows decay fast there, so the periodic re-anchoring sweep
        is on — and off for day-scale windows, where decay between publishes
        is negligible.
        """
        source = self.aggregation_source_for(preparation)
        if source is None:
            raise ConfigurationError(
                "pipeline has no aggregation window configured; pass "
                "aggregation=AggregationConfig(...) to enable streaming features"
            )
        hbase.create_feature_store(table_name)
        window_seconds = source.config.effective_window_seconds
        return StreamingFeatureUpdater(
            source.seeded_engine(),
            hbase,
            table_name,
            start_version=max(
                preparation.dataset.spec.test_day,
                self._published_versions.get(table_name, 0),
            ),
            refresh_interval_seconds=window_seconds if window_seconds < SECONDS_PER_DAY else None,
        )

    def deploy_fleet(
        self,
        bundle: TrainedModelBundle,
        preparation: SlicePreparation,
        hbase: HBaseClient,
        model_servers: List[ModelServer],
        *,
        table_name: str = DEFAULT_FEATURE_TABLE,
        streaming_updater: bool = True,
        registry: Optional[ModelRegistry] = None,
    ) -> Optional[StreamingFeatureUpdater]:
        """Publish features once and hot-load the model into a whole MS fleet.

        When the pipeline has an aggregation window configured, also returns
        the pre-seeded :class:`StreamingFeatureUpdater` the front end should
        attach (``AlipayServer(fleet, feature_updater=...)``) so online
        ingest keeps the served aggregates fresh.  Callers that intentionally
        serve the frozen published rows can skip the updater build with
        ``streaming_updater=False``.  Either way the engine the training pass
        kept on the preparation is taken: the updater adopts it, or it is
        released.

        The bundle is registered (if its version is not yet known) in
        ``registry`` — a private one when the caller passes none — and the
        fleet load runs through a
        :class:`~repro.serving.rotation.FleetController` deploy: the same
        registry-driven path later hot rotations (``deploy``/``rollback``/
        canary/shadow on the live fleet) use, so day-one deployment and every
        subsequent T+1 rotation exercise one code path.  An unfitted detector
        is therefore rejected by :meth:`ModelRegistry.register`
        (:class:`~repro.exceptions.ModelError`) after the rows are published
        and before any server is touched, and an empty fleet by
        :class:`FleetController` (:class:`~repro.exceptions.ServingError`).
        """
        updater: Optional[StreamingFeatureUpdater] = None
        if self.aggregation is not None and streaming_updater:
            updater = self.build_streaming_updater(
                preparation, hbase, table_name=table_name
            )
        elif preparation.aggregation_source is not None:
            preparation.aggregation_source.release_engine()
        # When the updater exists, its seeded engine publishes the aggregate
        # snapshot (anchored at the batch as-of instant) — one history walk
        # instead of fitting a second, throwaway batch aggregator.
        self.publish_features(
            preparation, hbase, table_name=table_name, include_aggregates=updater is None
        )
        if updater is not None:
            test_day = preparation.dataset.spec.test_day
            updater.publish_snapshot(as_of=batch_as_of_time(test_day), version=test_day)
        for model_server in model_servers:
            model_server.feature_table = table_name
        if registry is None:
            registry = ModelRegistry()
        # Re-register (superseding) when the registry holds a *different*
        # trained detector under this version string — e.g. the same
        # day/configuration retrained — so the fleet always gets the
        # bundle the caller just trained, never a stale registration.
        if (
            bundle.version not in registry
            or registry.get(bundle.version).model is not bundle.detector
        ):
            self.register_model(registry, bundle, overwrite=bundle.version in registry)
        FleetController(model_servers, registry).deploy(bundle.version)
        return updater
