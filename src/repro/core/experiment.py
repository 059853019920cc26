"""Rolling T+1 experiment harness.

Builds the rolling dataset slices of a world and the offline pipeline that
prepares, trains and evaluates each one.  The paper's experiments drive it
from ``benchmarks/paper/``: ``table1.py`` prepares (and caches) each slice
and scores each test day for Table 1 and Figure 9, and ``sweeps.py`` runs the
Figure 11 (embedding dimension), Figure 12 (tree count) and Table 2
(DeepWalk node sampling) sweeps.  Absolute numbers depend on the synthetic
world; the harness is written so the orderings and trends the paper reports
can be checked programmatically.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ExperimentConfig
from repro.core.pipeline import OfflineTrainingPipeline
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
