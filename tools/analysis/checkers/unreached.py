"""Rule ``unreached-public``: ``src/repro`` holds what the deployed system calls.

An experiment driver, a baseline or a helper that only tests call grows the
package the system ships without being part of it (``benchmarks/`` is where
experiments live).  This rule flags a public top-level function or class, or a
public method of a top-level class, in ``src/repro`` whose name is mentioned
nowhere else in ``src/repro`` and nowhere in ``examples/``.  A mention is a
whole word anywhere in a module's text, its own module included, outside the
definition's ``def``/``class`` header; an import or ``__all__`` entry in a
package ``__init__`` re-exports a name without using it, so it is not a
mention.  Matching names rather than resolved calls makes the rule a floor: a
name that a docstring or another class's attribute shares counts as reached.

A definition that outside callers drive on purpose goes in
:data:`ENTRY_POINTS` with its reason.  Mentions are read from every module of
the package on disk, not only from the modules a run lints, so linting one file
flags exactly what a whole-tree run flags in it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, register

#: ``Class.method`` or function name -> why it stays without a ``src`` caller.
ENTRY_POINTS: Dict[str, str] = {
    # Called by the frozen benchmark harness (benchmarks/titant_bench).
    "TransactionRequest.to_transaction": "frozen harness, ROADMAP items 6(a)/7",
    "ModelHyperparameters.fast_test_scale": "frozen harness, ROADMAP items 6(a)/7",
    "ModelHyperparameters.with_overrides": "frozen harness, ROADMAP items 6(a)/7",
    "HBaseClient.wal_size": "frozen harness, ROADMAP items 6(a)/7",
    "ModelServer.active_model": "frozen harness, ROADMAP items 6(a)/7",
    # Operator and recovery entry points.
    "HBaseClient.replay_wal_into": "the recovery API: rebuild a table from the write-ahead log",
    "ProcessShardRuntime.kill_shard": "fault injection: crash one parameter-server shard",
    "ProcessShardRuntime.alive_shards": "fault injection: which shards survive",
    "HBaseClient.region_load_report": "operator view: per-region read and write counters",
    "ColumnFamilyStore.cell_versions": "operator view: the versions a cell retains",
    "ModelServer.plan_executor": "the online vector assembler, for offline/online parity checks",
    "LatencyTracker.latencies_ms": "raw samples a fleet-wide latency quantile is pooled from",
    "typology_recall_report": "per-typology recall of a scored day, the quality report's input",
    # Model and cluster capabilities the paper's experiments drive.
    "GradientBoostingClassifier.staged_predict_proba": "Figure 12 scores every tree count of one fit",
    "KunPengCluster.push_model_average": "the model-average push of Figure 10's dense baseline",
    "estimate_deepwalk_time": "Figure 10: DeepWalk training time per machine count",
    "estimate_gbdt_time": "Figure 10: GBDT training time per machine count",
    "ClusterCostModel.estimate_recorded": "Figure 10's cost model fed by a recorded training run",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HEADER = re.compile(r"\b(?:def|class)\s+[A-Za-z_][A-Za-z0-9_]*")


def _is_all(node: ast.stmt) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _mentions(path: Path) -> Counter:
    """Whole words of the module, without definition headers and re-exports."""
    source = path.read_text()
    try:
        body = ast.parse(source).body
    except SyntaxError:  # the runner reports it; every word still counts
        body = []
    skipped = set()
    for node in body:
        reexport = path.name == "__init__.py" and isinstance(node, (ast.Import, ast.ImportFrom))
        if reexport or (isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_all(node)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    kept = (line for number, line in enumerate(source.splitlines(), 1) if number not in skipped)
    return _words("\n".join(kept))


def _words(text: str) -> Counter:
    return Counter(_WORD.findall(_HEADER.sub(" ", text)))


def _public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of the public top-level defs and their methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def _package_dir(ctx: ModuleContext) -> Path:
    """The ``repro`` directory ``ctx`` lies in (``repro.a.b`` is two levels down)."""
    depth = ctx.module_name.count(".") - 1 + (ctx.path.name == "__init__.py")
    return ctx.path.resolve().parents[depth]


@register
class UnreachedPublicChecker(Checker):
    """Flags public ``src/repro`` definitions no ``src`` module or example names."""

    rule_id = "unreached-public"
    description = (
        "a public function, class or method of src/repro that no src/repro module "
        "and no example mentions; delete it, move it to its callers, or list it in "
        "ENTRY_POINTS with a reason"
    )

    def __init__(self) -> None:
        #: (relpath, line, qualified name) of every public definition seen
        self.definitions: List[Tuple[str, int, str]] = []
        self.package: Optional[Path] = None

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        """Record the module's public definitions (findings: finalize)."""
        if not ctx.module_name.startswith("repro"):
            return []
        for qualified, node in _public_definitions(ctx.tree):
            self.definitions.append((ctx.relpath, node.lineno, qualified))
        self.package = _package_dir(ctx)
        return []

    def finalize(self) -> List[Finding]:
        """Every public definition whose name no package module or example mentions."""
        if self.package is None:
            return []
        mentions: Counter = Counter()
        for path in sorted(self.package.rglob("*.py")):
            mentions.update(_mentions(path))
        examples = self.package.parent.parent / "examples"
        for path in sorted(examples.rglob("*.py")) if examples.is_dir() else ():
            mentions.update(_words(path.read_text()))
        return [
            Finding(
                path,
                line,
                self.rule_id,
                f"{qualified} is public but no src/repro module or example mentions "
                f"{qualified.rsplit('.', 1)[-1]!r}; delete it, move it beside its callers, "
                "or list it in ENTRY_POINTS with its reason",
            )
            for path, line, qualified in self.definitions
            if not mentions[qualified.rsplit(".", 1)[-1]] and qualified not in ENTRY_POINTS
        ]
