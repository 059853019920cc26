#!/usr/bin/env python
"""Link-check the documentation so file references cannot rot.

Scans ``README.md``, ``docs/*.md`` and the verify skill for

* relative Markdown links ``[text](path)`` — the target must exist on disk
  (anchors are stripped; ``http(s)``/``mailto`` links are skipped), and
* inline-code file references — backticked tokens that name a repo file
  (``bench_*.py`` / ``test_*.py`` basenames, or any ``path/with/slash.py``
  or ``.md``) must resolve to an existing file;

and the commands of ``.github/workflows/*.yml`` and the verify skill for

* repo paths (``scripts/lint_repo.py``, ``tests/test_x.py``) and
  ``-m benchmarks.<module>`` tokens — each must resolve, so a CI step that
  names a deleted file fails here instead of after the merge.

Diagnostics are :class:`tools.analysis.Finding` records rendered through the
shared reporters, so the output format (and ``--json`` schema) matches
``scripts/lint_repo.py``.  Exits non-zero listing every dangling reference.
Run by the docs CI job, by tier-1 (``tests/test_analysis.py``) and locally
with ``python scripts/check_docs.py``.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.analysis import Finding, render_json, render_text  # noqa: E402

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
INLINE_CODE = re.compile(r"`([^`\n]+)`")
#: Backticked basenames checked against these directories.
BASENAME_PATTERN = re.compile(r"^(bench_|test_)\w+\.py$")
BASENAME_DIRS = ("benchmarks", "tests")
#: Backticked repo paths (contain a slash, end in .py or .md).
PATH_PATTERN = re.compile(r"^[\w./-]+/[\w.-]+\.(?:py|md)$")
#: The same paths as bare words of a command line (not absolute, not a URL).
COMMAND_PATH = re.compile(r"(?<![\w./:-])(?:[\w.-]+/)+[\w.-]+\.(?:py|md)\b")
#: ``python -m benchmarks.<module>`` invocations.
COMMAND_MODULE = re.compile(r"-m\s+(benchmarks(?:\.\w+)+)")

VERIFY_SKILL = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"


def doc_files() -> List[Path]:
    """Markdown files whose links and inline-code references are checked."""
    files = [REPO_ROOT / "README.md", VERIFY_SKILL]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def command_files() -> List[Path]:
    """Files whose command lines are checked."""
    files = sorted((REPO_ROOT / ".github" / "workflows").glob("*.yml"))
    files.append(VERIFY_SKILL)
    return [path for path in files if path.exists()]


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_commands(text: str, rel: str) -> List[Finding]:
    """Dangling repo paths and ``-m benchmarks.<module>`` tokens in ``text``."""
    dangling = [
        (match, "command-file-ref", f"referenced file not found -> {match.group(0)}")
        for match in COMMAND_PATH.finditer(text)
        if not (REPO_ROOT / match.group(0)).exists()
    ]
    for match in COMMAND_MODULE.finditer(text):
        module = REPO_ROOT / match.group(1).replace(".", "/")
        if not (module.with_suffix(".py").exists() or (module / "__main__.py").exists()):
            dangling.append(
                (match, "command-module-ref", f"module not found -> {match.group(1)}")
            )
    return [
        Finding(path=rel, line=_line_of(text, match.start()), rule=rule, message=message)
        for match, rule, message in dangling
    ]


def check_file(path: Path) -> List[Finding]:
    findings: List[Finding] = []
    text = path.read_text()
    rel = path.relative_to(REPO_ROOT).as_posix()

    def finding(offset: int, rule: str, message: str) -> None:
        findings.append(
            Finding(path=rel, line=_line_of(text, offset), rule=rule, message=message)
        )

    for match in MARKDOWN_LINK.finditer(text):
        target = match.group(1).split("#", 1)[0]
        if not target or target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            finding(match.start(), "doc-link", f"broken link -> {match.group(1)}")

    for match in INLINE_CODE.finditer(text):
        token = match.group(1).strip()
        if BASENAME_PATTERN.match(token):
            if not any((REPO_ROOT / d / token).exists() for d in BASENAME_DIRS):
                finding(match.start(), "doc-file-ref", f"referenced file not found -> `{token}`")
        elif PATH_PATTERN.match(token):
            # Tokens like `src/repro/serving/` style paths are checked too;
            # trailing-slash directory mentions fall through to the dir check.
            if not (REPO_ROOT / token).exists():
                finding(match.start(), "doc-file-ref", f"referenced file not found -> `{token}`")
        elif token.endswith("/") and re.match(r"^[\w./-]+$", token):
            if not (REPO_ROOT / token).is_dir():
                finding(
                    match.start(), "doc-dir-ref", f"referenced directory not found -> `{token}`"
                )
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Doc link checker")
    parser.add_argument("--json", action="store_true", help="emit the shared JSON report schema")
    args = parser.parse_args(argv)

    docs, commands = doc_files(), command_files()
    findings: List[Finding] = []
    for path in docs:
        findings.extend(check_file(path))
    for path in commands:
        findings.extend(
            check_commands(path.read_text(), path.relative_to(REPO_ROOT).as_posix())
        )
    if args.json:
        print(render_json(findings, tool="check_docs"), end="")
    else:
        stream = sys.stderr if findings else sys.stdout
        print(render_text(findings, tool="check_docs"), file=stream)
        if not findings:
            print(f"doc link check passed ({len(set(docs + commands))} file(s))")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
