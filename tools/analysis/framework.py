"""Checker base class, module contexts and the rule registry.

A checker is a small AST analysis with a stable ``rule_id``.  Per-file rules
implement :meth:`Checker.check_module`; whole-program rules (the layering
checker) additionally collect state per module and emit their findings from
:meth:`Checker.finalize` once every file has been visited.

Checkers register themselves with the :func:`register` decorator at import
time; :func:`default_checkers` instantiates one fresh checker per registered
rule (checkers are stateful across a run, so instances are never shared
between runs).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Type

from tools.analysis.findings import Finding

#: Magic comment that suppresses every finding on its source line, e.g.
#: ``time.sleep(1)  # repro-lint: ignore[clock-discipline]``.  A bare
#: ``repro-lint: ignore`` suppresses all rules on the line.
IGNORE_COMMENT = "repro-lint: ignore"


@dataclass(frozen=True)
class ModuleContext:
    """Everything a checker needs to know about one source file.

    ``relpath`` is repo-relative and ``/``-separated (it becomes the
    :class:`~tools.analysis.findings.Finding` path); ``module_name`` is the
    dotted import name (``repro.nrl.distributed``) or ``""`` for files
    outside the importable tree.
    """

    path: Path
    relpath: str
    module_name: str
    source: str
    tree: ast.Module

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """Build a finding anchored at ``node``'s source line."""
        return Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            rule=rule,
            message=message,
        )

    def line_ignored(self, line: int, rule: str) -> bool:
        """Whether ``# repro-lint: ignore[...]`` suppresses ``rule`` on ``line``."""
        lines = self.source.splitlines()
        if not 1 <= line <= len(lines):
            return False
        text = lines[line - 1]
        marker = text.find(IGNORE_COMMENT)
        if marker < 0:
            return False
        rest = text[marker + len(IGNORE_COMMENT) :]
        if not rest.lstrip().startswith("["):
            return True  # bare ignore: every rule
        listed = rest.lstrip()[1:].split("]", 1)[0]
        return rule in {item.strip() for item in listed.split(",")}


class Checker:
    """Base class of one invariant rule.

    Subclasses set ``rule_id`` (stable kebab-case id reported in findings
    and named by ``# repro-lint: ignore[...]``) and ``description`` (one
    line, shown by ``lint_repo.py --list-rules``), then override
    :meth:`check_module` and/or :meth:`finalize`.
    """

    rule_id: str = ""
    description: str = ""

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        """Analyse one parsed module; return its findings (default: none)."""
        return []

    def finalize(self) -> List[Finding]:
        """Emit whole-program findings after every module was visited."""
        return []


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the default rule set."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must define a rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate checker rule_id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rule_ids() -> List[str]:
    """Registered rule ids, sorted (importing the bundled checkers first)."""
    import tools.analysis.checkers  # noqa: F401  repro-lint: ignore[unused-import] registers on import

    return sorted(_REGISTRY)


def default_checkers(rules: List[str] | None = None) -> List[Checker]:
    """Fresh instances of the registered checkers.

    ``rules`` restricts the run to a subset of rule ids; unknown ids raise
    ``ValueError`` so a typo in ``--rules`` cannot silently skip a contract.
    """
    import tools.analysis.checkers  # noqa: F401  repro-lint: ignore[unused-import] registers on import

    selected = sorted(_REGISTRY) if rules is None else list(rules)
    unknown = [rule for rule in selected if rule not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown rule ids: {unknown}; known: {sorted(_REGISTRY)}")
    return [_REGISTRY[rule]() for rule in selected]


def attach_parents(tree: ast.AST) -> None:
    """Annotate every node with its parent (``node._repro_parent``).

    Several checkers need to look outward from a match — e.g. "is this
    ``os.listdir`` call already wrapped in ``sorted()``?" — which the ast
    module does not support natively.
    """
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> ast.AST | None:
    """The parent annotated by :func:`attach_parents` (``None`` at the root)."""
    return getattr(node, "_repro_parent", None)


def dotted_name(node: ast.AST) -> str:
    """Flatten an attribute chain to ``"a.b.c"`` (``""`` when not a chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""
