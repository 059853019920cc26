"""File discovery and checker orchestration.

:func:`run_analysis` walks a source tree, parses every ``*.py`` once, feeds
each module to every checker, collects the whole-program findings and
filters ``# repro-lint: ignore`` lines.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, ModuleContext, default_checkers
from repro.analysis.reporters import render_json, render_text


@dataclass
class AnalysisReport:
    """Outcome of one analysis run: ``findings`` are the diagnostics no
    ``# repro-lint: ignore`` comment accepts, sorted."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the tree is clean (no findings, parseable)."""
        return not self.findings and not self.parse_errors

    def all_findings(self) -> List[Finding]:
        """Findings plus parse errors, sorted."""
        return sorted(self.findings + self.parse_errors)

    def render_text(self, *, tool: str = "lint") -> str:
        """Human-readable report (see :func:`repro.analysis.reporters.render_text`)."""
        return render_text(self.all_findings(), tool=tool)

    def render_json(self, *, tool: str = "lint") -> str:
        """JSON report (see :func:`repro.analysis.reporters.render_json`)."""
        return render_json(self.all_findings(), tool=tool)


def iter_source_files(root: Path) -> List[Path]:
    """Every ``*.py`` under ``root`` in sorted order (``__pycache__`` skipped).

    A single file root yields itself, so ``lint_repo.py path/to/file.py``
    works for spot checks.
    """
    if root.is_file():
        return [root]
    return sorted(
        path
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    )


def module_name_for(path: Path, src_root: Optional[Path]) -> str:
    """Dotted import name of ``path`` relative to ``src_root`` (or ``""``).

    ``src/repro/nrl/distributed.py`` -> ``repro.nrl.distributed``;
    package ``__init__.py`` files map to the package name itself.
    """
    if src_root is None:
        return ""
    try:
        relative = path.resolve().relative_to(src_root.resolve())
    except ValueError:
        return ""
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _relpath(path: Path, repo_root: Optional[Path]) -> str:
    if repo_root is not None:
        try:
            return path.resolve().relative_to(repo_root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def run_analysis(
    root: Path,
    *,
    repo_root: Optional[Path] = None,
    src_root: Optional[Path] = None,
    checkers: Optional[Sequence[Checker]] = None,
) -> AnalysisReport:
    """Run every checker over the tree rooted at ``root``.

    ``repo_root`` anchors the repo-relative finding paths (default: the
    parent of ``src_root``, else ``root``); ``src_root`` is the import root
    used to derive dotted module names (default: the nearest ancestor of
    ``root`` named ``src``, if any).  ``checkers`` defaults to the full
    registered rule set.
    """
    if src_root is None:
        for candidate in (root, *root.resolve().parents):
            if candidate.name == "src":
                src_root = candidate
                break
    if repo_root is None:
        repo_root = src_root.parent if src_root is not None else root
    active = list(checkers) if checkers is not None else default_checkers()

    report = AnalysisReport()
    raw: List[Finding] = []
    contexts: dict[str, ModuleContext] = {}
    for path in iter_source_files(root):
        source = path.read_text()
        relpath = _relpath(path, repo_root)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            report.parse_errors.append(
                Finding(
                    path=relpath,
                    line=exc.lineno or 1,
                    rule="parse-error",
                    message=f"cannot parse: {exc.msg}",
                )
            )
            continue
        ctx = ModuleContext(
            path=path,
            relpath=relpath,
            module_name=module_name_for(path, src_root),
            source=source,
            tree=tree,
        )
        contexts[relpath] = ctx
        report.files_scanned += 1
        for checker in active:
            raw.extend(checker.check_module(ctx))
    for checker in active:
        raw.extend(checker.finalize())

    report.findings = sorted(
        finding
        for finding in raw
        if not (
            finding.path in contexts
            and contexts[finding.path].line_ignored(finding.line, finding.rule)
        )
    )
    return report
