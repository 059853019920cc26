"""Static analysis enforcing the repo's correctness contracts.

The reproduction's headline guarantees — bit-identical streaming vs.
materialized generation, simulated-vs-wall clock agreement, bit-exact
inline-vs-process PS shards, online==offline feature parity — all rest on
coding invariants (seeded RNG threading, no wall-clock reads in simulated
paths, paired shared-memory allocate/unlink, a strict import DAG,
deterministic iteration order, one definition per decision) that break
silently when violated.  This
package checks them mechanically:

* :mod:`tools.analysis.findings` — the :class:`Finding` diagnostic record
  shared by every repo tool that reports problems,
* :mod:`tools.analysis.framework` — the :class:`Checker` base class, module
  contexts and the rule registry,
* :mod:`tools.analysis.checkers` — the eight repo-specific invariant rules,
* :mod:`tools.analysis.reporters` — text and JSON rendering,
* :mod:`tools.analysis.runner` — file discovery and orchestration.

The command-line entry point is ``scripts/lint_repo.py``; the complementary
*dynamic* check (the same invariants exercised at runtime under two
``PYTHONHASHSEED`` values) is ``scripts/run_determinism_check.py``.
"""

from tools.analysis.findings import Finding
from tools.analysis.framework import Checker, ModuleContext, all_rule_ids, default_checkers
from tools.analysis.reporters import render_json, render_text
from tools.analysis.runner import AnalysisReport, run_analysis

__all__ = [
    "AnalysisReport",
    "Checker",
    "Finding",
    "ModuleContext",
    "all_rule_ids",
    "default_checkers",
    "render_json",
    "render_text",
    "run_analysis",
]
