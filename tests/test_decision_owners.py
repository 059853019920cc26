"""One owner per decision (docs/ARCHITECTURE.md, "Decisions and their owners").

A rule both halves of the system apply is defined once and imported; these
assertions fail when a module grows its own spelling again.  The function
bodies and constants the linter can see are covered by its
``duplicate-definition`` rule (tests/test_analysis.py); what is pinned here is
what an AST comparison cannot see — that two names are the same object, and
that a default argument is the shared constant rather than an equal literal.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

from benchmarks.paper.table1 import build_table1_detector
from repro.core import config as core_config
from repro.core.config import DetectorName, ExperimentConfig, ModelHyperparameters
from repro.core.pipeline import OfflineTrainingPipeline, build_detector
from repro.datagen import schema
from repro.exceptions import ConfigurationError
from repro.features import aggregation, assembler, plan, streaming
from repro.hbase.client import DEFAULT_FEATURE_TABLE, HBaseClient
from repro import models
from repro.models import tree
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.tree import splitter
from repro.serving.embedding_refresh import EmbeddingRefreshConfig, EmbeddingRefresher
from repro.serving.feature_source import HBaseFeatureSource
from repro.serving.model_server import ModelServerConfig
from repro.serving.streaming import StreamingFeatureUpdater

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_time_rules_are_the_schemas_objects():
    assert aggregation.SECONDS_PER_DAY is schema.SECONDS_PER_DAY
    assert aggregation.SECONDS_PER_HOUR is schema.SECONDS_PER_HOUR
    assert aggregation.transaction_event_time is schema.transaction_event_time
    assert streaming.event_order is schema.transaction_sort_key


def test_batch_as_of_time_is_the_last_second_of_the_day_before():
    assert aggregation.batch_as_of_time(3) == 3 * schema.SECONDS_PER_DAY - 1


def test_embedding_sides_are_the_enums_values():
    assert assembler.EmbeddingSide is plan.EmbeddingSide
    assert plan.EMBEDDING_SIDES == tuple(side.value for side in plan.EmbeddingSide)
    assert core_config.EMBEDDING_SIDES is plan.EMBEDDING_SIDES
    assert "EMBEDDING_SIDES" in inspect.getsource(ExperimentConfig.validate)


def test_a_late_label_is_hidden_in_one_place():
    """Row 26: the delayed-label rule and the relabelled copy are spelled only
    in ``schema.label_as_of``; the world and the streamed slices call it."""
    spellings = ("label_available_day >", '"is_fraud": False')
    spelled = [
        path.relative_to(REPO_ROOT).as_posix()
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if any(text in path.read_text() for text in spellings)
    ]
    assert spelled == ["src/repro/datagen/schema.py"]


TABLE1_BASELINES = ("IsolationForest", "ID3Classifier", "C45Classifier")


@pytest.mark.parametrize(
    "name", [DetectorName.ISOLATION_FOREST, DetectorName.ID3, DetectorName.C50]
)
def test_build_detector_sends_the_baselines_to_benchmarks(name):
    """``src/`` builds the detectors TitAnt deploys; Table 1's baselines are
    built beside the benchmark that compares them."""
    with pytest.raises(ConfigurationError, match="benchmarks/paper"):
        build_detector(name, ModelHyperparameters.fast_test_scale())


def test_no_baseline_is_defined_in_src():
    defined = [
        f"{path.relative_to(REPO_ROOT).as_posix()}:{node.name}"
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name in TABLE1_BASELINES
    ]
    assert defined == []


def test_the_table1_factory_builds_every_detector():
    hp = ModelHyperparameters.fast_test_scale()
    built = {name: build_table1_detector(name, hp) for name in DetectorName}
    assert [type(built[name]).__name__ for name in DetectorName] == [
        *TABLE1_BASELINES,
        "LogisticRegression",
        "GradientBoostingClassifier",
    ]
    assert not any(detector.is_fitted for detector in built.values())


def test_the_gbdt_is_built_only_from_hyperparameters():
    """Row 27: ``GradientBoostingClassifier(...)`` is called in ``src/`` only
    inside ``build_detector``; the tree-count sweep overrides ``gbdt_num_trees``."""
    assert _calls_outside("GradientBoostingClassifier", "build_detector") == []


TABLE_NAME_SITES = [
    (ModelServerConfig, "feature_table"),
    (HBaseFeatureSource, "table_name"),
    (StreamingFeatureUpdater, "table_name"),
    (EmbeddingRefresher, "table_name"),
    (HBaseClient.create_feature_store, "name"),
    (OfflineTrainingPipeline.publish_features, "table_name"),
    (OfflineTrainingPipeline.build_streaming_updater, "table_name"),
    (OfflineTrainingPipeline.deploy_fleet, "table_name"),
]


@pytest.mark.parametrize(
    "site, parameter", TABLE_NAME_SITES, ids=[site.__qualname__ for site, _ in TABLE_NAME_SITES]
)
def test_default_table_name_is_the_one_constant(site, parameter):
    assert inspect.signature(site).parameters[parameter].default is DEFAULT_FEATURE_TABLE


def test_the_table_name_literal_is_written_once():
    """CPython interns equal literals, so the ``is`` above cannot tell a second
    spelling from an import; the source can."""
    spelled = [
        path.relative_to(REPO_ROOT).as_posix()
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if f'"{DEFAULT_FEATURE_TABLE}"' in path.read_text()
    ]
    assert spelled == ["src/repro/hbase/client.py"]


def test_row_scatters_go_through_scatter_add_rows():
    """Row 24: the SGNS trainer and the PS update accumulate rows only via
    ``numerics.scatter_add_rows``, never by their own ``ufunc.at`` call."""
    spelled = [
        path.relative_to(REPO_ROOT).as_posix()
        for tree in ("nrl", "kunpeng")
        for path in sorted((REPO_ROOT / "src" / "repro" / tree).rglob("*.py"))
        if ".add.at(" in path.read_text() or ".subtract.at(" in path.read_text()
    ]
    assert spelled == []


def _calls_outside(name: str, owner: str):
    """``src/`` call sites of ``name(...)`` outside the class or function ``owner``."""
    found = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == owner:
                inside.update(id(child) for child in ast.walk(node))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == name
                and id(node) not in inside
            ):
                found.append(f"{path.relative_to(REPO_ROOT).as_posix()}:{node.lineno}")
    return found


def test_only_the_point_in_time_source_replays_a_history():
    """Row 25: a window engine is built (and fed a slice's history) only by
    ``PointInTimeAggregationSource`` — its pass, or ``seeded_engine``."""
    assert _calls_outside("SlidingWindowAggregator", "PointInTimeAggregationSource") == []
    assert inspect.getsource(OfflineTrainingPipeline).count(".seeded_engine()") == 1


def test_quantiles_are_taken_only_in_discretization():
    """Row 11: every quantile cut point in ``src/`` comes from one module."""
    spelled = [
        path.relative_to(REPO_ROOT).as_posix()
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if "np.quantile(" in path.read_text()
    ]
    assert spelled == ["src/repro/features/discretization.py"]


def test_best_histogram_split_is_the_level_searchs_one_node_view(monkeypatch):
    calls = []
    level_search = splitter.best_histogram_splits

    def spy(*histograms, **kwargs):
        calls.append([hist.shape for hist in histograms])
        return level_search(*histograms, **kwargs)

    monkeypatch.setattr(splitter, "best_histogram_splits", spy)
    grad = np.array([[-1.0, 1.0]])
    count = np.array([[3.0, 3.0]])
    split = splitter.best_histogram_split(grad, count, count)
    assert calls == [[(1, 1, 2)] * 3]
    assert split is not None and split.bin_index == 0


#: What a second way of doing one thing in ``src/`` was spelled with: the
#: exact tree grower, the ``retrain`` embedding refresh and the scalar basic
#: row.  They are the oracles of ``benchmarks/paper/exact.py`` and
#: ``tests/scalar_basic.py`` now.
SECOND_PATHS = (
    "tree_method",
    "RegressionTree",
    "best_regression_split",
    "REFRESH_MODES",
    '"retrain"',
    "extract_one",
)


def test_src_has_one_grower_one_refresh_and_one_basic_row_builder():
    spelled = [
        f"{path.relative_to(REPO_ROOT).as_posix()}: {name}"
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for name in SECOND_PATHS
        if name in path.read_text()
    ]
    assert spelled == []
    assert "RegressionTree" not in models.__all__ + tree.__all__
    assert not hasattr(models, "RegressionTree")
    with pytest.raises(TypeError, match="tree_method"):
        GradientBoostingClassifier(tree_method="exact")  # type: ignore[call-arg]
    assert "mode" not in {field.name for field in dataclasses.fields(EmbeddingRefreshConfig)}
