"""Rule ``duplicate-definition``: one decision, one defining site.

The offline and online halves stay equal only while each rule they both apply
is written once and imported (``docs/ARCHITECTURE.md``, "Decisions and their
owners").  A second spelling is small, so this rule looks for the two shapes
it takes: a function or method body of three or more statements AST-identical
(docstring dropped) to one in another module, and an upper-case module-level
name assigned in two modules.  The first site in path order is the owner;
every later one is a finding — merge it, or accept it on its line with
``# repro-lint: ignore[duplicate-definition]`` and a reason.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, register

#: Bodies shorter than this are idiom (a delegating ``close``), not a decision.
MIN_BODY_STATEMENTS = 3


@register
class DuplicateDefinitionChecker(Checker):
    """Flags function bodies and constants spelled in more than one module."""

    rule_id = "duplicate-definition"
    description = (
        "a function body of >= 3 statements or an upper-case module constant "
        "defined in two modules; import the one definition instead"
    )

    def __init__(self) -> None:
        #: what is defined -> [(relpath, line, its name in a message)]
        self.sites: Dict[str, List[Tuple[str, int, str]]] = {}

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        """Record the module's bodies and constants (findings: finalize)."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                if len(body) >= MIN_BODY_STATEMENTS:
                    key = "body:" + "\n".join(ast.dump(statement) for statement in body)
                    self._record(key, ctx, node, f"the body of {node.name}()")
        for node in ctx.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        self._record("name:" + target.id, ctx, node, target.id)
        return []

    def _record(self, key: str, ctx: ModuleContext, node: ast.AST, label: str) -> None:
        self.sites.setdefault(key, []).append((ctx.relpath, node.lineno, label))

    def finalize(self) -> List[Finding]:
        """Every site outside the owner's module."""
        findings: List[Finding] = []
        for sites in self.sites.values():
            owner_path, owner_line, _ = min(sites)
            for path, line, label in sorted(sites):
                if path != owner_path:
                    message = (
                        f"{label} is also defined at {owner_path}:{owner_line}; "
                        "one decision gets one defining site — import it"
                    )
                    findings.append(Finding(path, line, self.rule_id, message))
        return findings
