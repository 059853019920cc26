#!/usr/bin/env python
"""Invariant linter: statically enforce the repo's correctness contracts.

Runs the eight AST checkers of :mod:`tools.analysis` over ``src/repro`` and
over the linter's own package ``tools/analysis``:

* ``rng-discipline`` — all randomness flows through seeded Generators,
* ``clock-discipline`` — simulated-clock code never reads the wall clock,
* ``shm-lifecycle`` — shared-memory allocations have a reachable release,
* ``layering`` — the subsystem import DAG holds,
* ``iteration-order`` — no hash-order iteration feeds checksummed output,
* ``duplicate-definition`` — a function body or module constant is defined in
  one module and imported by the rest,
* ``unreached-public`` — every public definition of ``src/repro`` is
  referenced by ``src/repro`` or ``examples/`` code, or allow-listed with a
  reason (a stale allow-list entry is a finding too),
* ``unused-import`` — every imported name is read by its module's code
  (package ``__init__`` re-exports excepted).

A deliberate violation carries ``# repro-lint: ignore[rule]`` and its reason
on the flagged line; everything else fails the run with ``path:line: [rule]
message`` diagnostics.  Usage::

    PYTHONPATH=src python scripts/lint_repo.py              # lint src/repro + tools/analysis (CI)
    PYTHONPATH=src python scripts/lint_repo.py --json       # machine-readable report
    PYTHONPATH=src python scripts/lint_repo.py --rules layering path/to/file.py

(The script bootstraps ``sys.path`` itself, so plain
``python scripts/lint_repo.py`` works too.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.analysis import (  # noqa: E402
    all_rule_ids,
    default_checkers,
    render_json,
    render_text,
    run_analysis,
)

DEFAULT_TARGETS = [REPO_ROOT / "src" / "repro", REPO_ROOT / "tools" / "analysis"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro and tools/analysis)",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument(
        "--rules",
        nargs="+",
        metavar="RULE",
        help="run only these rule ids (see --list-rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for checker in default_checkers():
            print(f"{checker.rule_id}: {checker.description}")
        return 0

    targets = args.paths or DEFAULT_TARGETS
    findings = []
    files_scanned = 0
    for target in targets:
        if not target.exists():
            print(f"error: no such path: {target}", file=sys.stderr)
            return 2
        report = run_analysis(
            target.resolve(), repo_root=REPO_ROOT, checkers=default_checkers(args.rules)
        )
        findings.extend(report.all_findings())
        files_scanned += report.files_scanned

    if args.json:
        print(render_json(findings), end="")
    else:
        print(render_text(findings))
        print(f"lint: scanned {files_scanned} file(s) across {len(args.rules or all_rule_ids())} rule(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
