"""Experiment configuration objects.

Section 5.1 of the paper fixes the hyperparameters of every component; this
module encodes them once so that the pipeline, the experiment harness and the
benchmarks all agree.  It also enumerates the eleven configurations of
Table 1 (detector × feature set) by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.features.aggregation import AggregationConfig
from repro.features.plan import EMBEDDING_SIDES


class FeatureSetName(str, Enum):
    """Which feature blocks are concatenated into the design matrix."""

    BASIC = "basic"
    BASIC_S2V = "basic+s2v"
    BASIC_DW = "basic+dw"
    BASIC_DW_S2V = "basic+dw+s2v"

    @property
    def uses_deepwalk(self) -> bool:
        return self in (FeatureSetName.BASIC_DW, FeatureSetName.BASIC_DW_S2V)

    @property
    def uses_structure2vec(self) -> bool:
        return self in (FeatureSetName.BASIC_S2V, FeatureSetName.BASIC_DW_S2V)


class DetectorName(str, Enum):
    """The five detection methods compared in the paper."""

    ISOLATION_FOREST = "if"
    ID3 = "id3"
    C50 = "c50"
    LOGISTIC_REGRESSION = "lr"
    GBDT = "gbdt"


@dataclass(frozen=True)
class Table1Configuration:
    """One row of Table 1: a detector applied to a feature set."""

    number: int
    detector: DetectorName
    feature_set: FeatureSetName

    @property
    def label(self) -> str:
        """Human-readable row label matching the paper's wording."""
        feature_label = {
            FeatureSetName.BASIC: "Basic Features",
            FeatureSetName.BASIC_S2V: "Basic Features+S2V",
            FeatureSetName.BASIC_DW: "Basic Features+DW",
            FeatureSetName.BASIC_DW_S2V: "Basic Features+DW+S2V",
        }[self.feature_set]
        detector_label = {
            DetectorName.ISOLATION_FOREST: "IF",
            DetectorName.ID3: "ID3",
            DetectorName.C50: "C5.0",
            DetectorName.LOGISTIC_REGRESSION: "LR",
            DetectorName.GBDT: "GBDT",
        }[self.detector]
        return f"{feature_label}+{detector_label}"


#: The eleven configurations of Table 1, in the paper's row order.
TABLE1_CONFIGURATIONS: List[Table1Configuration] = [
    Table1Configuration(1, DetectorName.ISOLATION_FOREST, FeatureSetName.BASIC),
    Table1Configuration(2, DetectorName.ID3, FeatureSetName.BASIC),
    Table1Configuration(3, DetectorName.C50, FeatureSetName.BASIC),
    Table1Configuration(4, DetectorName.LOGISTIC_REGRESSION, FeatureSetName.BASIC),
    Table1Configuration(5, DetectorName.GBDT, FeatureSetName.BASIC),
    Table1Configuration(6, DetectorName.LOGISTIC_REGRESSION, FeatureSetName.BASIC_S2V),
    Table1Configuration(7, DetectorName.GBDT, FeatureSetName.BASIC_S2V),
    Table1Configuration(8, DetectorName.LOGISTIC_REGRESSION, FeatureSetName.BASIC_DW),
    Table1Configuration(9, DetectorName.GBDT, FeatureSetName.BASIC_DW),
    Table1Configuration(10, DetectorName.LOGISTIC_REGRESSION, FeatureSetName.BASIC_DW_S2V),
    Table1Configuration(11, DetectorName.GBDT, FeatureSetName.BASIC_DW_S2V),
]


@dataclass
class ModelHyperparameters:
    """Hyperparameters of every component, defaulting to Section 5.1's values.

    ``scaled_down`` produces a configuration with the same structure but
    smaller iteration counts so that the full evaluation runs on a laptop in
    seconds; the benchmarks use it by default and the paper-scale values stay
    one call away.
    """

    # NRL
    embedding_dimension: int = 32
    deepwalk_walk_length: int = 50
    deepwalk_num_walks: int = 100
    deepwalk_window: int = 5
    deepwalk_epochs: int = 2
    s2v_epochs: int = 150
    s2v_propagation_rounds: int = 2
    # Isolation Forest
    if_num_trees: int = 100
    # Logistic Regression
    lr_l1: float = 0.1
    lr_iterations: int = 300
    lr_discretize_bins: int = 200
    # GBDT
    gbdt_num_trees: int = 400
    gbdt_max_depth: int = 3
    gbdt_subsample: float = 0.4
    # Rule-based trees
    id3_max_depth: int = 6
    id3_bins: int = 10
    c50_max_depth: int = 8
    seed: int = 17

    def validate(self) -> None:
        if self.embedding_dimension <= 0:
            raise ConfigurationError("embedding_dimension must be positive")
        if not 0.0 < self.gbdt_subsample <= 1.0:
            raise ConfigurationError("gbdt_subsample must be in (0, 1]")
        for name in (
            "deepwalk_walk_length",
            "deepwalk_num_walks",
            "deepwalk_epochs",
            "s2v_epochs",
            "if_num_trees",
            "lr_iterations",
            "gbdt_num_trees",
            "gbdt_max_depth",
            "id3_max_depth",
            "c50_max_depth",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")

    @classmethod
    def paper_scale(cls) -> "ModelHyperparameters":
        """The exact values reported in Section 5.1."""
        return cls()

    @classmethod
    def laptop_scale(cls, *, seed: int = 17) -> "ModelHyperparameters":
        """Reduced iteration counts for the synthetic laptop-scale worlds."""
        return cls(
            deepwalk_walk_length=30,
            deepwalk_num_walks=15,
            deepwalk_window=5,
            deepwalk_epochs=2,
            s2v_epochs=80,
            if_num_trees=60,
            lr_iterations=150,
            lr_discretize_bins=30,
            gbdt_num_trees=80,
            seed=seed,
        )

    @classmethod
    def fast_test_scale(cls, *, seed: int = 17) -> "ModelHyperparameters":
        """Minimal settings for unit tests: every component runs in well under a second."""
        return cls(
            embedding_dimension=8,
            deepwalk_walk_length=10,
            deepwalk_num_walks=3,
            deepwalk_window=3,
            deepwalk_epochs=1,
            s2v_epochs=15,
            if_num_trees=20,
            lr_iterations=40,
            lr_discretize_bins=8,
            gbdt_num_trees=15,
            seed=seed,
        )

    def with_overrides(self, **overrides: object) -> "ModelHyperparameters":
        """Copy with selected fields replaced (used by the sweep benchmarks)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass
class ExperimentConfig:
    """Configuration of a rolling T+1 experiment."""

    num_datasets: int = 7
    network_days: int = 90
    train_days: int = 14
    first_test_day: Optional[int] = None
    hyperparameters: ModelHyperparameters = field(default_factory=ModelHyperparameters)
    configurations: List[Table1Configuration] = field(
        default_factory=lambda: list(TABLE1_CONFIGURATIONS)
    )
    #: Attach embeddings of the payer, payee or both transaction endpoints.
    embedding_side: str = "both"
    #: Optional sliding-window aggregation features (window definition shared
    #: by training matrices, the exported plan, and online streaming serving).
    aggregation: Optional[AggregationConfig] = None

    def validate(self) -> None:
        if self.num_datasets < 1:
            raise ConfigurationError("num_datasets must be at least 1")
        if self.network_days < 1 or self.train_days < 1:
            raise ConfigurationError("network_days and train_days must be positive")
        if self.embedding_side not in EMBEDDING_SIDES:
            raise ConfigurationError(f"embedding_side must be one of {EMBEDDING_SIDES}")
        if self.aggregation is not None:
            self.aggregation.validate()
        self.hyperparameters.validate()
        numbers = [c.number for c in self.configurations]
        if len(set(numbers)) != len(numbers):
            raise ConfigurationError("configuration numbers must be unique")

    @classmethod
    def laptop_scale(
        cls,
        *,
        num_datasets: int = 3,
        network_days: int = 25,
        train_days: int = 7,
        seed: int = 17,
    ) -> "ExperimentConfig":
        """A compact rolling evaluation used by tests and default benchmarks."""
        return cls(
            num_datasets=num_datasets,
            network_days=network_days,
            train_days=train_days,
            hyperparameters=ModelHyperparameters.laptop_scale(seed=seed),
        )

    def feature_sets_required(self) -> Dict[str, bool]:
        """Which embedding models the selected configurations need."""
        return {
            "deepwalk": any(c.feature_set.uses_deepwalk for c in self.configurations),
            "structure2vec": any(
                c.feature_set.uses_structure2vec for c in self.configurations
            ),
        }
