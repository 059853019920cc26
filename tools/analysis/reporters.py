"""Render findings for humans (text) and machines (JSON).

Every repo tool that reports diagnostics — the invariant linter and the doc
link checker — goes through these two functions, so all tooling output shares
one format and one JSON schema.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from tools.analysis.findings import Finding

#: Version of the JSON report schema (bumped on incompatible change).
REPORT_SCHEMA_VERSION = 2


def render_text(findings: Sequence[Finding], *, tool: str = "lint") -> str:
    """Human-readable report: one ``path:line: [rule] message`` per finding."""
    lines: List[str] = []
    for finding in sorted(findings):
        lines.append(finding.format())
    if findings:
        lines.append(f"{tool}: {len(findings)} finding(s)")
    else:
        lines.append(f"{tool}: clean")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], *, tool: str = "lint") -> str:
    """Machine-readable report with a stable schema.

    Top-level keys: ``schema_version``, ``tool``, ``counts`` (``findings``)
    and ``findings`` (sorted ``Finding.to_dict`` records).
    """
    payload: Dict[str, object] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": tool,
        "counts": {"findings": len(findings)},
        "findings": [finding.to_dict() for finding in sorted(findings)],
    }
    return json.dumps(payload, indent=2) + "\n"
