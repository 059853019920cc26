"""Rule ``unreached-public``: ``src/repro`` holds what the deployed system calls.

An experiment driver, a baseline or a helper that only tests call grows the
package the system ships without being part of it (``benchmarks/`` is where
experiments live).  This rule flags a public top-level function or class, or a
public method of a top-level class, in ``src/repro`` whose name no code in
``src/repro`` or ``examples/`` references.  A reference is read from the AST:
a name, an attribute access or an imported name, in any module, the
definition's own included.  Docstrings, comments and other strings are not
code, and an import in a package ``__init__`` re-exports a name without using
it, so none of them is a reference.  Matching names rather than resolved calls
makes the rule a floor: a call of another class's method of the same name
counts as reached.

A definition that outside callers drive on purpose goes in
:data:`ENTRY_POINTS` with its reason.  An entry that names no public
definition of ``src/repro``, or a name that its code already references, is
stale and is a finding too.  Definitions and references are read from every
module of the package on disk, not only from the modules a run lints, so
linting one file flags exactly what a whole-tree run flags in it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

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
    "ColumnarAccounts.iter_profiles": "frozen harness, ROADMAP items 6(a)/7",
    "profile_from_row": "frozen harness, ROADMAP items 6(a)/7",
    # Operator and recovery entry points.
    "HBaseClient.wal": "the recovery API: the write-ahead log a crashed table is replayed from",
    "ProcessShardRuntime.kill_shard": "fault injection: crash one parameter-server shard",
    "ProcessShardRuntime.alive_shards": "fault injection: which shards survive",
    "HBaseClient.region_load_report": "operator view: per-region read and write counters",
    "ColumnFamilyStore.cell_versions": "operator view: the versions a cell retains",
    "ModelServer.plan_executor": "the online vector assembler, for offline/online parity checks",
    "SlidingWindowAggregator.features_for": "the engine's own vector, the parity tests' oracle",
    "LatencyTracker.latencies_ms": "raw samples a fleet-wide latency quantile is pooled from",
    "typology_recall_report": "per-typology recall of a scored day, the quality report's input",
    # The paper's KunPeng trainers and the capabilities its experiments drive.
    "DistributedGBDT": "the paper's KunPeng GBDT trainer: Fig 10, Fig 12, bench_parallel_ps",
    "DistributedDeepWalk": "the paper's KunPeng DeepWalk trainer: Fig 10, bench_parallel_ps",
    "GradientBoostingClassifier.staged_predict_proba": "Figure 12 scores every tree count of one fit",
    "KunPengCluster.push_model_average": "the model-average push of Figure 10's dense baseline",
}

#: The package :data:`ENTRY_POINTS` describes: this repository's ``src/repro``.
_OWN_PACKAGE = Path(__file__).resolve().parents[3] / "src" / "repro"
_OWN_PATH = "tools/analysis/checkers/unreached.py"


def _references(tree: ast.Module, *, package_init: bool = False) -> Iterator[str]:
    """Names, attribute names and imported names the module's code uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not package_init:
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]


def _parse(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text())
    except SyntaxError:  # the runner reports it
        return None


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


def _bare(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


@register
class UnreachedPublicChecker(Checker):
    """Flags public ``src/repro`` definitions no ``src`` or example code references."""

    rule_id = "unreached-public"
    description = (
        "a public function, class or method of src/repro that no src/repro or "
        "example code references; delete it, move it to its callers, or list it in "
        "ENTRY_POINTS with a reason (a stale ENTRY_POINTS entry is a finding too)"
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
        """Unreached definitions of the linted modules, and stale allow-list entries."""
        if self.package is None:
            return []
        references: Counter = Counter()
        defined = set()
        for path in sorted(self.package.rglob("*.py")):
            tree = _parse(path)
            if tree is not None:
                references.update(_references(tree, package_init=path.name == "__init__.py"))
                defined.update(qualified for qualified, _ in _public_definitions(tree))
        examples = self.package.parent.parent / "examples"
        for path in sorted(examples.rglob("*.py")) if examples.is_dir() else ():
            tree = _parse(path)
            if tree is not None:
                references.update(_references(tree))
        findings = [
            Finding(
                path,
                line,
                self.rule_id,
                f"{qualified} is public but no src/repro or example code references "
                f"{_bare(qualified)!r}; delete it, move it beside its callers, "
                "or list it in ENTRY_POINTS with its reason",
            )
            for path, line, qualified in self.definitions
            if not references[_bare(qualified)] and qualified not in ENTRY_POINTS
        ]
        if self.package.resolve() == _OWN_PACKAGE:
            findings.extend(self._stale_entries(defined, references))
        return findings

    def _stale_entries(self, defined: set, references: Counter) -> List[Finding]:
        """Allow-list entries that name no definition, or a name code references."""
        lines = Path(__file__).read_text().splitlines()
        findings = []
        for entry in ENTRY_POINTS:
            if entry not in defined:
                why = "names no public definition of src/repro"
            elif references[_bare(entry)]:
                why = f"names {_bare(entry)!r}, which src/repro or example code references"
            else:
                continue
            line = next((n for n, text in enumerate(lines, 1) if f'"{entry}":' in text), 1)
            message = f"ENTRY_POINTS entry {entry!r} is stale: it {why}; remove it"
            findings.append(Finding(_OWN_PATH, line, self.rule_id, message))
        return findings
