"""Rolling T+1 experiment harness.

Builds the rolling dataset slices of a world, prepares (and caches) each
slice's network and embeddings, and owns how a trained configuration is
scored on its test day.  The paper's experiments drive it from
``benchmarks/paper/``: Table 1 and Figure 9 from ``table1.py``, and the
Figure 11 (embedding dimension), Figure 12 (tree count) and Table 2
(DeepWalk node sampling) sweeps from ``sweeps.py``.  Absolute numbers depend
on the synthetic world; the harness is written so the orderings and trends
the paper reports can be checked programmatically.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import ExperimentConfig
from repro.core.evaluation import EvaluationMetrics, evaluate_scores
from repro.core.pipeline import OfflineTrainingPipeline, SlicePreparation, TrainedModelBundle
from repro.datagen.datasets import RollingDatasets
from repro.exceptions import ConfigurationError


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
