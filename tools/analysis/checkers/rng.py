"""Rule ``rng-discipline``: all randomness flows through seeded Generators.

The bit-identity guarantees (streamed == materialized generation, same-seed
distributed == single-machine training) hold only when every random draw
comes from a :class:`numpy.random.Generator` threaded down from an
experiment seed via :mod:`repro.rng`.  One ``np.random.rand()`` — global
mutable RNG state — or one un-threaded ``default_rng()`` silently breaks
them.  This rule flags, anywhere outside ``repro.rng`` itself:

* calls through the legacy global-state module API (``np.random.rand``,
  ``np.random.shuffle``, ``np.random.seed``, ``np.random.RandomState``, …),
* any import of the stdlib ``random`` module (process-global state, and
  not numpy-reproducible),
* ``default_rng()`` with no seed (a fresh OS-entropy stream), and
* seeded ``default_rng(...)`` outside ``repro.rng`` — route it through
  :func:`repro.rng.ensure_rng` / :func:`repro.rng.spawn_child` so seed
  fan-out stays centralised.
"""

from __future__ import annotations

import ast
from typing import List, Set

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, dotted_name, register

#: The one module allowed to talk to ``numpy.random`` directly (each rule
#: keeps its own exemptions; clock.py's list is a different decision).
ALLOWED_MODULES = {"repro.rng"}  # repro-lint: ignore[duplicate-definition]

#: ``np.random.<attr>`` accesses that are types/annotations, not draws.
NON_CALL_ATTRS = {"Generator", "BitGenerator", "SeedSequence"}


@register
class RngDisciplineChecker(Checker):
    """Flags RNG use that bypasses the seeded-Generator threading."""

    rule_id = "rng-discipline"
    description = (
        "randomness must flow through seeded Generators from repro.rng; no "
        "np.random.* global-state calls, stdlib random, or stray default_rng()"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        """Flag global-state RNG calls and stray ``default_rng`` in one module."""
        if ctx.module_name in ALLOWED_MODULES:
            return []
        findings: List[Finding] = []
        numpy_aliases: Set[str] = set()
        numpy_random_aliases: Set[str] = set()
        default_rng_names: Set[str] = set()

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        numpy_aliases.add(local)
                    elif alias.name == "numpy.random":
                        numpy_random_aliases.add(alias.asname or "numpy")
                        if alias.asname:
                            numpy_random_aliases.add(alias.asname)
                    elif alias.name == "random" or alias.name.startswith("random."):
                        findings.append(
                            ctx.finding(
                                node,
                                self.rule_id,
                                "stdlib random imported; use seeded numpy "
                                "Generators from repro.rng instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    findings.append(
                        ctx.finding(
                            node,
                            self.rule_id,
                            "stdlib random imported; use seeded numpy "
                            "Generators from repro.rng instead",
                        )
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name == "default_rng":
                            default_rng_names.add(alias.asname or alias.name)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            numpy_random_aliases.add(alias.asname or "random")

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            parts = name.split(".")
            is_np_random = (
                len(parts) >= 3 and parts[0] in numpy_aliases and parts[1] == "random"
            ) or (len(parts) >= 2 and parts[0] in numpy_random_aliases)
            fn = parts[-1]
            if is_np_random and fn not in NON_CALL_ATTRS:
                if fn == "default_rng":
                    findings.append(self._default_rng_finding(ctx, node))
                else:
                    findings.append(
                        ctx.finding(
                            node,
                            self.rule_id,
                            f"np.random.{fn}() uses process-global RNG state; "
                            "draw from a seeded Generator threaded via repro.rng",
                        )
                    )
            elif len(parts) == 1 and parts[0] in default_rng_names:
                findings.append(self._default_rng_finding(ctx, node))
        return findings

    def _default_rng_finding(self, ctx: ModuleContext, node: ast.Call) -> Finding:
        if not node.args and not node.keywords:
            message = (
                "unseeded default_rng() draws from OS entropy and breaks "
                "reproducibility; pass a seed via repro.rng.ensure_rng"
            )
        else:
            message = (
                "default_rng(...) outside repro.rng; route seed fan-out "
                "through repro.rng.ensure_rng/spawn_child"
            )
        return ctx.finding(node, self.rule_id, message)
