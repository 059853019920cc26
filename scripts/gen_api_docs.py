#!/usr/bin/env python
"""Render docs/API.md from the public surface's docstrings.

The reference is *generated*, never hand-edited: this script introspects the
curated public API below (classes and functions), renders each signature plus
the first docstring paragraph to Markdown, and writes ``docs/API.md``.

Any covered public symbol or method *without* a docstring fails the run —
the generator doubles as the docstring linter for the public surface, so a
new public method cannot land undocumented.

Usage::

    PYTHONPATH=src python scripts/gen_api_docs.py           # (re)write docs/API.md
    PYTHONPATH=src python scripts/gen_api_docs.py --check   # CI: fail on drift

``--check`` regenerates in memory and fails when the committed docs/API.md
differs — the docs CI job runs it so the reference cannot rot.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "docs" / "API.md"

#: The curated public surface: (section title, module, names, blurb).
PUBLIC_API = [
    (
        "Streaming data layer",
        "repro.datagen.stream",
        ["TransactionStream", "WorldStream", "ScalableWorldStream", "StreamCheckpoint"],
        "Seeded, resumable, event-time-ordered transaction streams: the "
        "legacy world as a lazy iterator (bit-identical to materialization) "
        "and the columnar million-account generator with bounded state.",
    ),
    (
        "Arrival process",
        "repro.datagen.transactions",
        ["ArrivalConfig", "BurstSpec"],
        "Non-homogeneous arrivals for the scalable stream: the diurnal load "
        "curve plus transient bursts, budget-validated per day.",
    ),
    (
        "Progress tracking",
        "repro.logging_utils",
        ["ProgressTracker"],
        "Throttled rate/ETA logging for long generation and load runs; "
        "quiet unless logging is configured.",
    ),
    (
        "Offline pipeline and experiments",
        "repro.core.pipeline",
        ["OfflineTrainingPipeline", "TrainedModelBundle", "build_detector"],
        "The T+1 training flow: network construction, embeddings, detector "
        "training/calibration, and publication to the online side.",
    ),
    (
        "Experiment harness",
        "repro.core.experiment",
        ["ExperimentRunner"],
        "Regenerates the paper's GBDT sweeps, scores a trained configuration "
        "on its test day (the Table 1 / Figure 9 drivers in benchmarks/paper "
        "call it), and builds ready-wired online serving stacks for the "
        "benchmarks.",
    ),
    (
        "Model registry",
        "repro.core.registry",
        ["ModelRegistry", "ModelVersion"],
        "Sequence-ordered version store shared by the offline trainer and the "
        "fleet rotation control plane.",
    ),
    (
        "Feature plan",
        "repro.features.plan",
        ["FeaturePlan", "FeaturePlanExecutor", "FeatureSource"],
        "The serialisable feature-vector spec exported with every model; one "
        "executor runs it offline and online so the two cannot drift.",
    ),
    (
        "Streaming feature engine",
        "repro.features.streaming",
        ["SlidingWindowAggregator", "PointInTimeAggregationSource"],
        "Event-time sliding-window aggregates with exact batch parity, and "
        "the point-in-time training source that owns replaying a slice's "
        "history (its training pass's engine seeds the streaming updater).",
    ),
    (
        "SQL backfill engine",
        "repro.features.sql_backfill",
        ["SQLBackfillEngine", "BackfillStats"],
        "The T+1 aggregate backfill as three generated GROUP BY statements "
        "over a day-partitioned staging table, bit-identical to the Python loop.",
    ),
    (
        "MaxCompute SQL engine",
        "repro.maxcompute.sql",
        ["parse_sql", "SQLExecutor", "QueryStats"],
        "The mini SQL dialect the backfill issues (column and COUNT / SUM / MAX "
        "select items, a conjunctive WHERE, GROUP BY): parser, executor and "
        "per-query scan/pruning statistics.",
    ),
    (
        "Partitioned tables",
        "repro.maxcompute.partitioned",
        ["PartitionedTable", "ZoneMap", "ColumnZone", "condition_may_match"],
        "Key-partitioned columnar tables with per-partition zone maps; the "
        "executor consults them to skip provably non-matching partitions.",
    ),
    (
        "Model Server",
        "repro.serving.model_server",
        [
            "ModelServer",
            "ModelServerConfig",
            "ServingModel",
            "ShadowReport",
            "TransactionRequest",
            "PredictionResponse",
        ],
        "The online scorer: HBase reads, plan execution, batched prediction, "
        "hot model swap and challenger shadow scoring.",
    ),
    (
        "Alipay front end",
        "repro.serving.alipay",
        ["AlipayServer", "ServingReport", "ServedTransaction"],
        "Replays transfer streams through the fleet and reports outcomes, "
        "latency, shedding and queue depth.",
    ),
    (
        "Request routing",
        "repro.serving.router",
        ["ServingRouter", "fleet_cache_stats"],
        "Consistent-hash account sharding that keeps each replica's row cache "
        "and window state hot.",
    ),
    (
        "Request coalescing",
        "repro.serving.coalescer",
        ["RequestCoalescer", "CoalescerConfig"],
        "Deadline-bounded micro-batching of concurrent requests into "
        "vectorised predict_batch calls.",
    ),
    (
        "Admission control",
        "repro.serving.admission",
        ["AdmissionController", "AdmissionConfig", "RuleBasedFallback", "default_fraud_rules"],
        "Bounded-backlog overload behaviour: shed to the rule-based model "
        "instead of queueing unboundedly.",
    ),
    (
        "Fleet rotation",
        "repro.serving.rotation",
        ["FleetController", "RolloutReport"],
        "Registry-driven zero-downtime deploys, canaries, rollbacks and "
        "shadow scoring on a live fleet.",
    ),
    (
        "Streaming write-through",
        "repro.serving.streaming",
        ["StreamingFeatureUpdater"],
        "Folds served transactions into the window engine and writes fresh "
        "aggregate rows to Ali-HBase.",
    ),
    (
        "Dynamic embedding refresh",
        "repro.serving.embedding_refresh",
        [
            "EmbeddingRefresher",
            "EmbeddingRefreshQueue",
            "EmbeddingRefreshConfig",
            "RefreshReport",
        ],
        "Keeps served Structure2Vec vectors fresh as the graph grows: new "
        "edges enqueue their endpoints, a refresh pass re-embeds the touched "
        "k-hop neighbourhood and writes rows through the Ali-HBase "
        "write-through path with per-column-family cache invalidation.",
    ),
    (
        "Fraud typologies",
        "repro.datagen.fraud",
        ["TypologyConfig", "TypologyFraudSuite"],
        "Five labelled fraud scenarios — mule/relay chains, account "
        "takeover, bust-out, merchant collusion, smurfing — planned by one "
        "seeded suite that emits typology-tagged transactions through both "
        "stream generators.",
    ),
    (
        "Per-slice evaluation",
        "repro.core.evaluation",
        ["SliceRecall", "recall_by_slice", "typology_recall_report"],
        "Recall per labelled evaluation slice at one shared decision "
        "threshold — a pooled recall can hide an entirely missed fraud "
        "scenario.",
    ),
    (
        "Ali-HBase client",
        "repro.hbase.client",
        ["HBaseClient"],
        "Column-family store client: WAL, regions, per-connection row caches, "
        "batched reads.",
    ),
    (
        "Async serving front end",
        "repro.serving.async_server",
        ["AsyncServingFrontEnd"],
        "Event-loop coalescing: concurrent awaited requests flushed by a "
        "real wall-clock deadline timer instead of a simulated clock.",
    ),
    (
        "Process-backed parameter server",
        "repro.kunpeng.parallel",
        ["ProcessShardRuntime", "SharedBlockManager"],
        "Each PS shard a live OS process applying updates to shared-memory "
        "parameter blocks — measured, not simulated, parallelism.",
    ),
    (
        "Cluster cost model",
        "repro.kunpeng.cost_model",
        ["ClusterCostModel", "MeasuredRound"],
        "Training-time estimates per machine count, calibratable against "
        "wall-clock rounds measured on the process backend.",
    ),
    (
        "Distributed training",
        "repro.models.distributed",
        ["DistributedGBDT"],
        "PS-side histogram-aggregated GBDT on the KunPeng substrate.",
    ),
    (
        "Level-wise tree growth",
        "repro.models.tree.histogram",
        ["grow_level_wise", "apply_decisions", "HistogramTreeBuilder"],
        "One histogram tree grower: the local builder runs it over one "
        "partition, DistributedGBDT over the workers' partitions with the "
        "parameter servers summing each level's histograms.",
    ),
    (
        "Histogram split search",
        "repro.models.tree.splitter",
        ["best_histogram_splits", "best_histogram_split"],
        "The best bin-boundary split of every node of a tree level in one "
        "call; the one-node form is its view.",
    ),
    (
        "Quantile cut points",
        "repro.features.discretization",
        ["column_quantiles", "column_quantile_edges", "quantile_edges"],
        "The one owner of quantile cut points: every column of a matrix from "
        "one np.quantile call, byte-equal to per-column calls.",
    ),
    (
        "Shared training numerics",
        "repro.numerics",
        ["sigmoid", "class_weights", "column_scaling", "scatter_add_rows"],
        "The arithmetic every trainer in models/ and nrl/ imports instead of "
        "spelling: clipped sigmoid, balanced class weights, zero-variance-safe "
        "column scaling, and the row scatter-add the SGNS updates and the PS "
        "SGD step share.",
    ),
    (
        "Compiled forest",
        "repro.models.tree.forest",
        ["CompiledForest"],
        "A fitted GBDT as flat arrays scored three tree levels per numpy "
        "round — the one raw-feature scoring path of serving, staged and "
        "distributed prediction.",
    ),
    (
        "Distributed representation learning",
        "repro.nrl.distributed",
        ["DistributedDeepWalk"],
        "Sparse pull/push DeepWalk training on the parameter-server cluster.",
    ),
    (
        "Static analysis",
        "repro.analysis",
        ["Finding", "Checker", "AnalysisReport", "run_analysis"],
        "The AST-based invariant linter behind scripts/lint_repo.py: one "
        "shared diagnostic record for all repo tooling, the checker/rule "
        "registry and the analysis runner.",
    ),
]

HEADER = """\
# API reference

Generated from docstrings by [`scripts/gen_api_docs.py`](../scripts/gen_api_docs.py) —
do not edit by hand; run `PYTHONPATH=src python scripts/gen_api_docs.py` after
changing a covered docstring or signature (the docs CI job fails on drift).

See [ARCHITECTURE.md](ARCHITECTURE.md) for how these pieces fit together.
"""


def _first_paragraph(docstring: str) -> str:
    paragraph = inspect.cleandoc(docstring).split("\n\n", 1)[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _document_class(module_name: str, cls, errors: list) -> list:
    lines = [f"### `{cls.__name__}`", ""]
    if not cls.__doc__:
        errors.append(f"{module_name}.{cls.__name__}: missing class docstring")
    else:
        lines += [_first_paragraph(cls.__doc__), ""]
    members = []
    for name, member in vars(cls).items():
        if name.startswith("_") and name != "__init__":
            continue
        if isinstance(member, property):
            members.append((name, member.fget, "property"))
        elif isinstance(member, staticmethod):
            members.append((name, member.__func__, "staticmethod"))
        elif isinstance(member, classmethod):
            members.append((name, member.__func__, "classmethod"))
        elif inspect.isfunction(member):
            members.append((name, member, "method"))
    documented = []
    for name, func, kind in members:
        if name == "__init__":
            continue
        doc = func.__doc__ if func is not None else None
        if not doc:
            errors.append(f"{module_name}.{cls.__name__}.{name}: missing docstring")
            continue
        signature = "" if kind == "property" else f"`{_signature(func)}`"
        label = " *(property)*" if kind == "property" else ""
        documented.append(f"- **`{name}`**{label} {signature} — {_first_paragraph(doc)}")
    if documented:
        lines += documented + [""]
    return lines


def _document_function(module_name: str, func, errors: list) -> list:
    lines = [f"### `{func.__name__}{_signature(func)}`", ""]
    if not func.__doc__:
        errors.append(f"{module_name}.{func.__name__}: missing docstring")
    else:
        lines += [_first_paragraph(func.__doc__), ""]
    return lines


def render() -> str:
    errors: list = []
    lines = [HEADER]
    for section, module_name, names, blurb in PUBLIC_API:
        module = importlib.import_module(module_name)
        lines += [f"## {section}", "", f"*Module `{module_name}` — {blurb}*", ""]
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                lines += _document_class(module_name, obj, errors)
            else:
                lines += _document_function(module_name, obj, errors)
    if errors:
        print("public API symbols are missing docstrings:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        sys.exit(1)
    return "\n".join(lines).rstrip() + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when docs/API.md is out of date instead of rewriting it",
    )
    args = parser.parse_args()
    rendered = render()
    if args.check:
        current = OUTPUT_PATH.read_text() if OUTPUT_PATH.exists() else ""
        if current != rendered:
            print(
                "docs/API.md is out of date; run "
                "`PYTHONPATH=src python scripts/gen_api_docs.py`",
                file=sys.stderr,
            )
            sys.exit(1)
        print("docs/API.md is up to date")
        return
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(rendered)
    print(f"wrote {OUTPUT_PATH.relative_to(REPO_ROOT)} ({len(rendered.splitlines())} lines)")


if __name__ == "__main__":
    main()
