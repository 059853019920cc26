"""Rule ``shm-lifecycle``: every shared-memory allocation has a reachable release.

The process-backed parameter server maps numpy blocks into
``multiprocessing.shared_memory`` segments.  A segment without a reachable
``close``/``unlink`` outlives the process as an orphaned ``/dev/shm`` file —
the leak class ``tests/test_parallel_ps.py`` hunts dynamically with SIGKILL
injection; this rule catches it statically at review time.

A ``SharedMemory(...)`` constructor or ``*.allocate(...)`` call site is
accepted when any of these ownership patterns applies:

* it executes inside a ``with`` block (context-managed release),
* it executes inside a ``try`` whose ``finally`` calls ``close``/``unlink``,
* the created object is returned by the enclosing function (ownership
  transfers to the caller, as in ``SharedBlockManager.attach``),
* the enclosing class defines a cleanup method (``close``/``stop``/
  ``shutdown``/``__exit__``) that calls ``close``/``unlink``/``stop``, and
  registers it with ``atexit`` or is a context manager — the
  ``SharedBlockManager`` pattern itself.

Anything else is flagged.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, attach_parents, dotted_name, parent_of, register

#: Method names that count as a class's resource-cleanup entry point.
CLEANUP_METHOD_NAMES = {"close", "stop", "shutdown", "__exit__"}

#: Attribute calls that count as releasing a segment.
RELEASE_ATTRS = {"close", "unlink", "stop"}


def _is_allocation_call(node: ast.Call) -> bool:
    name = dotted_name(node.func)
    if not name:
        return False
    last = name.split(".")[-1]
    return last in {"SharedMemory", "allocate"}


def _calls_release(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RELEASE_ATTRS
        ):
            return True
    return False


def _registers_atexit(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and dotted_name(node.func) == "atexit.register":
            return True
    return False


class _ClassProfile:
    """Whether a class guarantees release of resources it allocates."""

    def __init__(self, node: ast.ClassDef) -> None:
        cleanup_methods = [
            member
            for member in node.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and member.name in CLEANUP_METHOD_NAMES
        ]
        self.has_cleanup = any(_calls_release(method) for method in cleanup_methods)
        self.has_atexit = _registers_atexit(node)
        self.is_context_manager = any(
            isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and member.name in {"__exit__", "__aexit__"}
            for member in node.body
        )

    @property
    def guarantees_release(self) -> bool:
        return self.has_cleanup and (self.has_atexit or self.is_context_manager)


def _assigned_names(node: ast.AST) -> Set[str]:
    """Names bound by the assignment statement wrapping an allocation call."""
    parent = parent_of(node)
    names: Set[str] = set()
    if isinstance(parent, ast.Assign):
        for target in parent.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    elif isinstance(parent, (ast.AnnAssign, ast.AugAssign)) and isinstance(
        parent.target, ast.Name
    ):
        names.add(parent.target.id)
    elif isinstance(parent, ast.Tuple):
        grand = parent_of(parent)
        if isinstance(grand, ast.Assign):
            for target in grand.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
    return names


@register
class ShmLifecycleChecker(Checker):
    """Flags shared-memory allocations with no reachable release path."""

    rule_id = "shm-lifecycle"
    description = (
        "every SharedMemory/allocate site needs a reachable close/unlink: "
        "with-block, try/finally, ownership transfer, or an atexit-registered "
        "cleanup method"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        """Flag unguarded allocation sites in one module."""
        attach_parents(ctx.tree)
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and _is_allocation_call(node)):
                continue
            if self._is_guarded(node):
                continue
            findings.append(
                ctx.finding(
                    node,
                    self.rule_id,
                    f"{dotted_name(node.func)}(...) allocates a shared-memory "
                    "segment with no reachable close/unlink (use a context "
                    "manager, try/finally, or an atexit-registered cleanup)",
                )
            )
        return findings

    def _is_guarded(self, node: ast.Call) -> bool:
        names = _assigned_names(node)
        enclosing_function: Optional[ast.AST] = None
        current: Optional[ast.AST] = node
        while current is not None:
            parent = parent_of(current)
            if isinstance(parent, ast.With):
                return True
            if isinstance(parent, ast.Try) and current in parent.body:
                if any(_calls_release(stmt) for stmt in parent.finalbody):
                    return True
            if (
                isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef))
                and enclosing_function is None
            ):
                enclosing_function = parent
                if self._ownership_transferred(parent, names):
                    return True
            if isinstance(parent, ast.ClassDef) and enclosing_function is not None:
                if _ClassProfile(parent).guarantees_release:
                    return True
            current = parent
        return False

    @staticmethod
    def _ownership_transferred(
        function: ast.AST, names: Set[str]
    ) -> bool:
        """Whether the allocation (or its bound name) is returned to the caller."""
        for node in ast.walk(function):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and sub.id in names:
                    return True
                if isinstance(sub, ast.Call) and _is_allocation_call(sub):
                    return True
        return False
