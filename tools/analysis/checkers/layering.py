"""Rule ``layering``: the import DAG between subsystems holds.

The repo's layer boundaries keep the offline side paper-faithful and the
online side deployable: data generation, features, models and NRL must not
know the serving runtime exists (``serving`` imports *them*); the HBase store
knows neither features nor serving (its readers bring their decoders); the serving
runtime must not reach back into the offline MaxCompute substrate (online
reads go through Ali-HBase); and library code never imports the benchmark,
test or tooling trees.  The checker builds the *actual* module import graph from
every ``import``/``from ... import`` statement (including relative
imports) and flags edges that violate the declared DAG.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, register

#: subpackage -> subpackages it must never import (directly).
FORBIDDEN_IMPORTS: Dict[str, Set[str]] = {
    "datagen": {"serving"},
    "features": {"serving"},
    # The store decodes nothing itself: readers hand ``Row.decoded`` a decoder.
    "hbase": {"features", "serving"},
    "models": {"serving"},
    "nrl": {"serving"},
    "serving": {"maxcompute"},
}

#: Top-level trees nothing under ``src`` may import.
FORBIDDEN_EVERYWHERE = {"benchmarks", "tests", "tools"}


def _subpackage(module_name: str) -> str:
    """The layer a dotted ``repro.*`` module belongs to (``""`` otherwise)."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return ""


@dataclass(frozen=True)
class ImportEdge:
    """One import statement: importing module, imported module, location."""

    source: str
    target: str
    path: str
    line: int


def module_imports(ctx: ModuleContext) -> List[ImportEdge]:
    """Every import edge of one module, with relative imports resolved."""
    edges: List[ImportEdge] = []
    package_parts = ctx.module_name.split(".") if ctx.module_name else []
    if ctx.path.name != "__init__.py" and package_parts:
        package_parts = package_parts[:-1]
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(
                    ImportEdge(ctx.module_name, alias.name, ctx.relpath, node.lineno)
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            if base:
                edges.append(ImportEdge(ctx.module_name, base, ctx.relpath, node.lineno))
    return edges


@register
class LayeringChecker(Checker):
    """Flags import edges that violate the declared subsystem DAG."""

    rule_id = "layering"
    description = (
        "import DAG: datagen/features/models/nrl never import serving; "
        "hbase never imports features/serving; serving never imports maxcompute; "
        "nothing under src imports benchmarks/tests/tools"
    )

    def __init__(self) -> None:
        self.edges: List[ImportEdge] = []
        #: ``module -> imported modules`` accumulated over the run (exposed
        #: for diagnostics and the layering-graph tests).
        self.graph: Dict[str, Set[str]] = {}

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        """Collect the module's import edges (findings come from finalize)."""
        edges = module_imports(ctx)
        self.edges.extend(edges)
        self.graph.setdefault(ctx.module_name or ctx.relpath, set()).update(
            edge.target for edge in edges
        )
        return []

    def finalize(self) -> List[Finding]:
        """Check every collected edge against the declared DAG."""
        findings: List[Finding] = []
        seen: Set[Tuple[str, str, int]] = set()
        for edge in self.edges:
            key = (edge.path, edge.target, edge.line)
            if key in seen:
                continue
            seen.add(key)
            target_top = edge.target.split(".")[0]
            # A module outside the src root (no dotted name) is not library
            # code: the tooling tree linted beside ``src`` imports itself.
            if target_top in FORBIDDEN_EVERYWHERE and edge.source:
                findings.append(
                    Finding(
                        path=edge.path,
                        line=edge.line,
                        rule=self.rule_id,
                        message=(
                            f"library code must not import {target_top!r} "
                            "(benchmarks/tests/tools depend on the library, "
                            "never the reverse)"
                        ),
                    )
                )
                continue
            source_layer = _subpackage(edge.source)
            target_layer = _subpackage(edge.target)
            if (
                source_layer
                and target_layer
                and target_layer in FORBIDDEN_IMPORTS.get(source_layer, set())
            ):
                findings.append(
                    Finding(
                        path=edge.path,
                        line=edge.line,
                        rule=self.rule_id,
                        message=(
                            f"layer 'repro.{source_layer}' must not import "
                            f"'repro.{target_layer}' (violates the declared "
                            "import DAG)"
                        ),
                    )
                )
        return findings
