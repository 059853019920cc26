"""Rule ``unreached-public``: ``src/repro`` holds what the deployed system calls.

An experiment driver, a baseline or a helper that only tests call grows the
package the system ships without being part of it (``benchmarks/`` is where
experiments live).  This rule flags a public top-level function or class, or a
public method of a top-level class, in ``src/repro`` that no code references
in ``src/repro``, in ``examples/`` or in the reference benchmark's own modules
(``benchmarks/titant_bench/*.py``, not its ``tests/``).  A reference is read
from the AST, in any module, the definition's own included.  Docstrings,
comments and other strings are not code, and an import in a package
``__init__`` re-exports a name without using it, so none of them is a
reference.

A top-level function or class is reached by a name, an attribute access or
an imported name that matches it.  A method ``C.m`` is reached only by an
attribute access ``receiver.m`` whose receiver can be a ``C``:

* ``self.m`` or ``cls.m`` inside a class related to ``C`` by inheritance;
* ``super().m`` inside a subclass of ``C``;
* ``C.m``, or ``D.m`` for a subclass ``D`` of ``C``;
* ``x.m`` on any other receiver, which the AST cannot resolve.

So a parameter, a local or another class's attribute of the same name does
not reach a method.  Classes are matched by name across every module read,
so the rule stays a floor: an unresolved receiver reaches every method of
that name.

A definition that outside callers drive on purpose goes in
:data:`ENTRY_POINTS` with its reason.  An entry that names no public
definition of ``src/repro``, or one that code already reaches, is stale and
is a finding too.  Definitions and references are read from every module of
the package on disk, not only from the modules a run lints, so linting one
file flags exactly what a whole-tree run flags in it.
"""

from __future__ import annotations

import ast
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, register

#: ``Class.method`` or function name -> why it stays without a ``src`` caller.
ENTRY_POINTS: Dict[str, str] = {
    # Operator and recovery entry points, and the oracles parity tests read.
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

#: Reference roots beside the package, relative to the repository root, and
#: whether they are read recursively (the harness's own ``tests/`` are not).
_ROOTS = (("examples", True), ("benchmarks/titant_bench", False))


class _Attribute(NamedTuple):
    """Where an attribute access ``receiver.attr`` sits, and on what."""

    receiver: Optional[str]  # a Name's id, "super()" or None (any other receiver)
    enclosing: Optional[str]  # the innermost class the access sits in


class _Uses:
    """What a set of modules references, and the inheritance between their classes."""

    def __init__(self) -> None:
        #: names, attribute names and imported names: each reaches a top-level def
        self.names: Counter = Counter()
        #: attribute name -> every access of it: what can reach a method
        self.attributes: Dict[str, List[_Attribute]] = defaultdict(list)
        #: class name -> the names of its bases
        self.bases: Dict[str, Set[str]] = defaultdict(set)

    def read(self, tree: ast.Module, *, package_init: bool = False) -> None:
        """Add one module's references and class bases."""
        self._visit(tree, None, package_init)

    def _visit(self, node: ast.AST, enclosing: Optional[str], package_init: bool) -> None:
        if isinstance(node, ast.ClassDef):
            self.bases[node.name].update(_base_name(base) for base in node.bases)
            enclosing = node.name
        elif isinstance(node, ast.Name):
            self.names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            self.names[node.attr] += 1
            value = node.value
            if isinstance(value, ast.Name):
                receiver: Optional[str] = value.id
            elif isinstance(value, ast.Call) and _base_name(value.func) == "super":
                receiver = "super()"
            else:
                receiver = None
            self.attributes[node.attr].append(_Attribute(receiver, enclosing))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not package_init:
            for alias in node.names:
                self.names[alias.name.rsplit(".", 1)[-1]] += 1
        for child in ast.iter_child_nodes(node):
            self._visit(child, enclosing, package_init)

    def ancestors(self, name: str) -> Set[str]:
        """``name`` and every class it inherits from, transitively, by name."""
        seen = {name}
        stack = [name]
        while stack:
            for base in self.bases.get(stack.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    stack.append(base)
        return seen

    def reaches(self, qualified: str) -> bool:
        """Whether code references the top-level def or the method ``qualified``."""
        owner, _, method = qualified.rpartition(".")
        if not owner:
            return bool(self.names[qualified])
        return any(self._resolves_to(access, owner) for access in self.attributes.get(method, ()))

    def _resolves_to(self, access: _Attribute, owner: str) -> bool:
        """Whether ``access`` can be an access of a method of class ``owner``."""
        receiver, enclosing = access
        if enclosing is not None and receiver in ("self", "cls"):
            return owner in self.ancestors(enclosing) or enclosing in self.ancestors(owner)
        if enclosing is not None and receiver == "super()":
            return owner in self.ancestors(enclosing)
        if receiver in self.bases:  # ``SomeClass.method``
            return owner in self.ancestors(receiver)
        return True  # a receiver the AST cannot resolve


def _base_name(node: ast.AST) -> str:
    """``Base`` of ``Base``, ``mod.Base`` or ``Base[T]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


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
        uses = _Uses()
        defined = set()
        for path in sorted(self.package.rglob("*.py")):
            tree = _parse(path)
            if tree is not None:
                uses.read(tree, package_init=path.name == "__init__.py")
                defined.update(qualified for qualified, _ in _public_definitions(tree))
        repo = self.package.parent.parent
        for root, recursive in _ROOTS:
            directory = repo / root
            paths = (directory.rglob if recursive else directory.glob)("*.py")
            for path in sorted(paths) if directory.is_dir() else ():
                tree = _parse(path)
                if tree is not None:
                    uses.read(tree)
        findings = [
            Finding(
                path,
                line,
                self.rule_id,
                f"{qualified} is public but no src/repro, example or harness code "
                f"references it; delete it, move it beside its callers, "
                "or list it in ENTRY_POINTS with its reason",
            )
            for path, line, qualified in self.definitions
            if qualified not in ENTRY_POINTS and not uses.reaches(qualified)
        ]
        if self.package.resolve() == _OWN_PACKAGE:
            findings.extend(self._stale_entries(defined, uses))
        return findings

    def _stale_entries(self, defined: set, uses: _Uses) -> List[Finding]:
        """Allow-list entries that name no definition, or a definition code references."""
        lines = Path(__file__).read_text().splitlines()
        findings = []
        for entry in ENTRY_POINTS:
            if entry not in defined:
                why = "names no public definition of src/repro"
            elif uses.reaches(entry):
                why = "names a definition src/repro, example or harness code references"
            else:
                continue
            line = next((n for n, text in enumerate(lines, 1) if f'"{entry}":' in text), 1)
            message = f"ENTRY_POINTS entry {entry!r} is stale: it {why}; remove it"
            findings.append(Finding(_OWN_PATH, line, self.rule_id, message))
        return findings
