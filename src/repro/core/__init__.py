"""TitAnt core: the offline-training / online-prediction pipeline.

This package ties every substrate together into the system of Figure 3:

* :mod:`repro.core.evaluation` — F1, precision/recall, rec@top-k% (Figure 9),
  threshold selection on the training window,
* :mod:`repro.core.config` — configuration objects naming the eleven Table 1
  configurations and the model hyperparameters of Section 5.1,
* :mod:`repro.core.pipeline` — the offline T+1 training pipeline
  (MaxCompute ETL → transaction network → NRL on KunPeng → classifier →
  upload to Ali-HBase / Model Server),
* :mod:`repro.core.experiment` — the rolling-evaluation harness that
  regenerates the paper's GBDT sweeps and scores a configuration on its test
  day (the Table 1 / Figure 9 drivers in ``benchmarks/paper`` call it),
* :mod:`repro.core.registry` — versioned model registry shared by the offline
  trainer and the online Model Server.
"""

from repro.core.evaluation import (
    EvaluationMetrics,
    SliceRecall,
    confusion_counts,
    f1_score,
    precision_recall,
    recall_at_top_percent,
    recall_by_slice,
    select_threshold,
    typology_recall_report,
)
from repro.core.config import (
    FeatureSetName,
    DetectorName,
    ExperimentConfig,
    ModelHyperparameters,
    TABLE1_CONFIGURATIONS,
    Table1Configuration,
)
from repro.core.pipeline import OfflineTrainingPipeline, TrainedModelBundle
from repro.core.experiment import ExperimentRunner
from repro.core.registry import ModelRegistry, ModelVersion

__all__ = [
    "EvaluationMetrics",
    "SliceRecall",
    "confusion_counts",
    "f1_score",
    "precision_recall",
    "recall_at_top_percent",
    "recall_by_slice",
    "select_threshold",
    "typology_recall_report",
    "FeatureSetName",
    "DetectorName",
    "ExperimentConfig",
    "ModelHyperparameters",
    "TABLE1_CONFIGURATIONS",
    "Table1Configuration",
    "OfflineTrainingPipeline",
    "TrainedModelBundle",
    "ExperimentRunner",
    "ModelRegistry",
    "ModelVersion",
]
