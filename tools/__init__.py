"""Repo tooling that is not part of the system: the invariant linter
(:mod:`tools.analysis`) behind ``scripts/lint_repo.py`` and
``scripts/check_docs.py``.  Importable from the repo root, as
``benchmarks`` is; nothing under ``src/`` may import it."""
