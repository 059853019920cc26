"""Rule ``iteration-order``: no hash-order iteration feeds deterministic output.

Sets (and ``os.listdir``) iterate in an order that depends on
``PYTHONHASHSEED`` and the filesystem respectively.  Any such iteration in
code that feeds checksummed or bit-identity-tested output (transaction
generation, feature assembly, walk corpora, PS shard updates) produces
results that differ between runs even at the same seed — exactly the bug
class ``scripts/run_determinism_check.py`` hunts dynamically by running the
tagged tests under two hash seeds.  This rule catches the static shape:

* ``for``-loop or comprehension iteration directly over ``set(...)``, a set
  literal, a set comprehension, or a binary set expression (``a | b``, also
  with a dict-view operand: ``a - d.keys()``),
* the same iteration over a bare name that every assignment in the
  enclosing function binds to such a set expression,
* ``os.listdir`` / ``os.scandir`` / ``Path.iterdir`` / ``glob.glob`` /
  ``Path.glob``/``rglob`` results used without a wrapping ``sorted(...)``.

Dict iteration is fine (insertion-ordered since Python 3.7).  A set that
reaches a loop any other way (a parameter, an attribute, a function's return
value) is out of static reach — the dynamic sanitizer covers that remainder.
"""

from __future__ import annotations

import ast
from typing import List

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, attach_parents, dotted_name, parent_of, register

#: Call names producing filesystem listings in arbitrary order.
LISTING_FUNCTIONS = {"listdir", "scandir", "iterdir", "glob", "rglob"}


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "set":
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        sides = (node.left, node.right)
        return any(_is_set_expression(side) or _is_dict_view(side) for side in sides)
    return False


def _is_dict_view(node: ast.AST) -> bool:
    """``d.keys()`` / ``d.items()``: ordered alone, a set once in set algebra."""
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Attribute) and func.attr in {"keys", "items"}


def _names_a_set(node: ast.AST) -> bool:
    """A bare name every assignment in its enclosing function binds to a set."""
    scope = parent_of(node)
    while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = parent_of(scope)
    if not isinstance(node, ast.Name) or scope is None:
        return False
    values = [
        assign.value for assign in ast.walk(scope) if isinstance(assign, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == node.id for t in assign.targets)
    ]
    return bool(values) and all(_is_set_expression(value) for value in values)


def _is_listing_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if not name:
        return False
    return name.split(".")[-1] in LISTING_FUNCTIONS


def _inside_sorted(node: ast.AST) -> bool:
    current = parent_of(node)
    while current is not None:
        if isinstance(current, ast.Call):
            name = dotted_name(current.func)
            if name in {"sorted", "len", "set", "frozenset", "min", "max", "sum"} or (
                name and name.split(".")[-1] == "sort"
            ):
                return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return False
        current = parent_of(current)
    return False


@register
class IterationOrderChecker(Checker):
    """Flags iteration whose order depends on hashing or the filesystem."""

    rule_id = "iteration-order"
    description = (
        "no iteration over set expressions or unsorted os.listdir/glob in "
        "code feeding checksummed output; wrap in sorted(...)"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        """Flag hash-order and filesystem-order iteration in one module."""
        attach_parents(ctx.tree)
        findings: List[Finding] = []
        iter_targets: List[ast.AST] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_targets.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    iter_targets.append(generator.iter)
        for target in iter_targets:
            if _is_set_expression(target) or _names_a_set(target):
                findings.append(
                    ctx.finding(
                        target,
                        self.rule_id,
                        "iteration over a set has PYTHONHASHSEED-dependent "
                        "order; wrap in sorted(...) before iterating",
                    )
                )
        for node in ast.walk(ctx.tree):
            if _is_listing_call(node) and not _inside_sorted(node):
                findings.append(
                    ctx.finding(
                        node,
                        self.rule_id,
                        f"{dotted_name(node.func)}(...) yields entries in "  # type: ignore[union-attr]
                        "filesystem order; wrap in sorted(...) for "
                        "deterministic output",
                    )
                )
        return findings
