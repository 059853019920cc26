"""Rule ``clock-discipline``: simulated-clock code never reads the wall clock.

The serving runtime's headline property — every admission, coalescing and
latency decision is identical under the simulated replay clock and the real
event loop (``tests/test_async_serving.py``) — requires that simulated-path
modules take time as an explicit argument (``now_ms``, ``as_of``, event
time) instead of reading it.  One ``time.time()`` in the coalescer and the
two clocks silently disagree.

Every module is checked except the explicit wall-clock allowlist: the async
front end (its whole point is a real timer), the logging utilities (rate /
ETA reporting), and anything outside ``src`` (benchmarks and scripts
measure wall time by design — they are not scanned by default).  A
deliberate wall-clock read in an otherwise clock-explicit module is accepted
on its own line with ``# repro-lint: ignore[clock-discipline]`` and a reason,
not allowlisted.
"""

from __future__ import annotations

import ast
from typing import List, Set

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, dotted_name, register

#: Modules that are genuinely wall-clock (never simulated).
ALLOWED_MODULES = {
    "repro.serving.async_server",
    "repro.logging_utils",
}

#: ``time.<fn>`` calls that read or wait on the wall clock.
TIME_FUNCTIONS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "sleep",
}

#: ``datetime``/``date`` constructors that capture "now".
DATETIME_FUNCTIONS = {"now", "utcnow", "today"}


@register
class ClockDisciplineChecker(Checker):
    """Flags wall-clock reads in modules that run under a simulated clock."""

    rule_id = "clock-discipline"
    description = (
        "simulated-clock modules must take time as an argument; no "
        "time.time()/monotonic()/sleep() or datetime.now() outside the "
        "wall-clock allowlist"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        """Flag wall-clock calls in one module (allowlisted modules skipped)."""
        if ctx.module_name in ALLOWED_MODULES:
            return []
        findings: List[Finding] = []
        datetime_names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "datetime":
                for alias in node.names:
                    if alias.name in {"datetime", "date"}:
                        datetime_names.add(alias.asname or alias.name)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            parts = name.split(".")
            fn = parts[-1]
            if parts[0] == "time" and len(parts) == 2 and fn in TIME_FUNCTIONS:
                findings.append(
                    ctx.finding(
                        node,
                        self.rule_id,
                        f"time.{fn}() reads the wall clock in simulated-clock "
                        "code; take `now` as an explicit argument",
                    )
                )
            elif fn in DATETIME_FUNCTIONS and (
                parts[0] in ({"datetime"} | datetime_names)
            ):
                findings.append(
                    ctx.finding(
                        node,
                        self.rule_id,
                        f"{name}() captures wall-clock time in simulated-clock "
                        "code; thread event time through instead",
                    )
                )
        return findings
