"""Feature extraction layer.

The paper distinguishes two feature families:

* **basic features** — about fifty carefully engineered attributes from the
  user profile and the transfer environment (age, gender, transfer city,
  amount, hour, device, recent activity, ...), also usable as rules/attributes
  by the rule-based and anomaly-detection baselines of Table 1,
* **aggregated features** — the user node embeddings learned from the
  transaction network, concatenated with the basic features.

This package implements the 52 basic features used throughout the
reproduction, LR's quantile discretisation (and the one owner of quantile
cut points), windowed transaction-aggregation features, and the
:class:`FeatureAssembler` that concatenates basic features with any number of
embedding sets to build the final design matrix.
"""

from repro.features.matrix import FeatureMatrix
from repro.features.basic import BasicFeatureExtractor, BASIC_FEATURE_NAMES
from repro.features.discretization import QuantileBinner, Discretizer
from repro.features.aggregation import (
    AGGREGATION_FEATURE_NAMES,
    AggregationConfig,
    AggregationWindowSpec,
    TransactionAggregator,
    aggregation_vector,
    transaction_event_time,
)
from repro.features.streaming import PointInTimeAggregationSource, SlidingWindowAggregator
from repro.features.plan import (
    EmbeddingBlockSpec,
    FeaturePlan,
    FeaturePlanExecutor,
    FeatureSource,
    InMemoryFeatureSource,
)
from repro.features.assembler import FeatureAssembler, EmbeddingSide

__all__ = [
    "EmbeddingBlockSpec",
    "FeaturePlan",
    "FeaturePlanExecutor",
    "FeatureSource",
    "InMemoryFeatureSource",
    "FeatureMatrix",
    "BasicFeatureExtractor",
    "BASIC_FEATURE_NAMES",
    "QuantileBinner",
    "Discretizer",
    "TransactionAggregator",
    "AggregationConfig",
    "AggregationWindowSpec",
    "AGGREGATION_FEATURE_NAMES",
    "aggregation_vector",
    "transaction_event_time",
    "SlidingWindowAggregator",
    "PointInTimeAggregationSource",
    "FeatureAssembler",
    "EmbeddingSide",
]
