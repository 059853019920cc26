#!/usr/bin/env python
"""Run mypy --strict over the typed core (see [tool.mypy] in pyproject.toml).

The typed core is ``src/repro/kunpeng`` (the process-parallel PS substrate,
where a type confusion means corrupted shared-memory blocks) plus
the serving request path (``serving/router.py``, ``serving/coalescer.py``,
``serving/alipay.py``, ``serving/async_server.py``), the compiled GBDT
scorer ``models/tree/forest.py``, the level-wise grower
``models/tree/histogram.py`` with the trainers' ``numerics.py`` and the
feature-assembly path
(``features/plan.py``, ``features/basic.py``, ``serving/feature_source.py``).
The static-analysis CI
job installs mypy and runs this script; in environments without mypy (the
offline reproduction container) it skips with a notice and exit code 0, so
local tier-1 runs never depend on an uninstallable tool.

Usage::

    python scripts/run_typecheck.py            # strict-check the typed core
    python scripts/run_typecheck.py --strict-required   # fail if mypy is missing (CI)
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--strict-required",
        action="store_true",
        help="fail instead of skipping when mypy is not installed",
    )
    args = parser.parse_args()
    try:
        import mypy  # noqa: F401
    except ImportError:
        message = (
            "mypy is not installed; skipping the typed-core check "
            "(the static-analysis CI job installs and enforces it)"
        )
        if args.strict_required:
            print(f"error: {message}", file=sys.stderr)
            return 1
        print(message)
        return 0
    return subprocess.call(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
    )


if __name__ == "__main__":
    sys.exit(main())
