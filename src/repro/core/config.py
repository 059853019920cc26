"""Experiment configuration objects.

Section 5.1 of the paper fixes the hyperparameters of every component; this
module encodes them once so that the pipeline, the experiment harness and the
benchmarks all agree.  It also enumerates the eleven configurations of
Table 1 (detector × feature set) by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.contracts import check_fields, checked, contracts_of, integer, one_of, optional
from repro.exceptions import ConfigurationError
from repro.features.aggregation import AggregationConfig
from repro.features.plan import EMBEDDING_SIDES
from repro.graph.random_walk import RandomWalkConfig
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.logistic_regression import LogisticRegression
from repro.nrl.structure2vec import Structure2VecConfig
from repro.nrl.word2vec import SkipGramConfig


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


#: The contracts of the settings each hyperparameter is passed to.
_WALK = contracts_of(RandomWalkConfig)
_SKIPGRAM = contracts_of(SkipGramConfig)
_S2V = contracts_of(Structure2VecConfig)
_LR = contracts_of(LogisticRegression)
_GBDT = contracts_of(GradientBoostingClassifier)


@dataclass(frozen=True)
class ModelHyperparameters:
    """Hyperparameters of every component, defaulting to Section 5.1's values.

    ``laptop_scale`` produces a configuration with the same structure but
    smaller iteration counts so that the full evaluation runs on a laptop in
    seconds; the benchmarks use it by default and the paper-scale values stay
    one call away.  Each field takes the contract of the setting it is passed
    to, so a value its consumer would reject is rejected here.
    """

    # NRL
    embedding_dimension: int = checked(_SKIPGRAM["dimension"], 32)
    deepwalk_walk_length: int = checked(_WALK["walk_length"], 50)
    deepwalk_num_walks: int = checked(_WALK["num_walks_per_node"], 100)
    deepwalk_window: int = checked(_SKIPGRAM["window"], 5)
    deepwalk_epochs: int = checked(_SKIPGRAM["epochs"], 2)
    s2v_epochs: int = checked(_S2V["epochs"], 150)
    s2v_propagation_rounds: int = checked(_S2V["propagation_rounds"], 2)
    # Logistic Regression
    lr_l1: float = checked(_LR["l1"], 0.1)
    lr_iterations: int = checked(_LR["iterations"], 300)
    lr_discretize_bins: int = checked(_LR["discretize_bins"], 200)
    # GBDT
    gbdt_num_trees: int = checked(_GBDT["num_trees"], 400)
    gbdt_max_depth: int = checked(_GBDT["max_depth"], 3)
    gbdt_subsample: float = checked(_GBDT["subsample_rows"], 0.4)
    seed: int = checked(_GBDT["seed"], 17)

    def __post_init__(self) -> None:
        check_fields(self, ConfigurationError)

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
            lr_iterations=40,
            lr_discretize_bins=8,
            gbdt_num_trees=15,
            seed=seed,
        )

    def with_overrides(self, **overrides: object) -> "ModelHyperparameters":
        """Copy with selected fields replaced (used by the sweep benchmarks)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of a rolling T+1 experiment."""

    num_datasets: int = checked(integer(1), 7)
    network_days: int = checked(integer(1), 90)
    train_days: int = checked(integer(1), 14)
    first_test_day: Optional[int] = checked(optional(integer(0)), None)
    hyperparameters: ModelHyperparameters = field(default_factory=ModelHyperparameters)
    #: Kept as a tuple, so the checked numbers cannot be edited in place.
    configurations: Sequence[Table1Configuration] = tuple(TABLE1_CONFIGURATIONS)
    #: Attach embeddings of the payer, payee or both transaction endpoints.
    embedding_side: str = checked(one_of(EMBEDDING_SIDES), "both")
    #: Optional sliding-window aggregation features (window definition shared
    #: by training matrices, the exported plan, and online streaming serving).
    aggregation: Optional[AggregationConfig] = None

    def __post_init__(self) -> None:
        check_fields(self, ConfigurationError)
        object.__setattr__(self, "configurations", tuple(self.configurations))
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
