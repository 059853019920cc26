"""Rule ``unused-import``: a module imports what its code uses.

An import no code reads still loads its module and tells a reader the module
depends on something it does not.  A name counts as used when code reads it:
a name anywhere in the module, ``TYPE_CHECKING`` blocks included, a name
inside a string annotation (``"Row"``, ``Optional["Row"]``), or an entry of
``__all__``.  Docstrings, comments and other strings are not code.  A package
``__init__`` re-exports what it imports, and ``from __future__`` and ``*``
imports bind no name a reader uses, so none of them is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, register


@register
class UnusedImportChecker(Checker):
    """Flags an imported name that no code of its module reads."""

    rule_id = "unused-import"
    description = (
        "an imported name no code of its module reads (package __init__ "
        "re-exports and __future__ imports excepted); delete the import"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        """One finding per imported name its module never reads."""
        if ctx.path.name == "__init__.py":
            return []
        used = _used_names(ctx.tree)
        return [
            ctx.finding(node, self.rule_id, f"{name!r} is imported but never used")
            for node, name in _imported_names(ctx.tree)
            if name not in used
        ]


def _imported_names(tree: ast.Module) -> Iterator[Tuple[ast.stmt, str]]:
    """(import statement, the name it binds) for every name a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name


def _used_names(tree: ast.Module) -> Set[str]:
    """Every name the module's code reads, string annotations and
    ``__all__`` included."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotation = None
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        if annotation is not None:
            used.update(_string_annotation_names(annotation))
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in statement.targets
        ):
            for element in ast.walk(statement.value):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    used.add(element.value)
    return used


def _string_annotation_names(annotation: ast.expr) -> Set[str]:
    """The names read inside the string parts of one annotation, however
    deeply quoted (``Optional["Dict[str, 'Row']"]``)."""
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    names.add(inner.id)
            names.update(_string_annotation_names(parsed.body))
    return names
