"""The :class:`Finding` diagnostic record shared by all repo tooling.

One finding is one concrete problem at one location: a rule id, a
repo-relative path, a 1-based line number and a human-readable message.
The invariant linter and the doc link checker both emit this type, so every
tool renders diagnostics the same way (see :mod:`repro.analysis.reporters`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: ``path:line: [rule] message``.

    ``path`` is repo-relative with ``/`` separators so findings compare
    identically across platforms.  Ordering sorts by path, then line, then
    rule — the stable order every reporter emits.
    """

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        """Render as the canonical one-line ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form used by the JSON reporter."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output."""
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            rule=str(data["rule"]),
            message=str(data["message"]),
        )
