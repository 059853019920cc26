"""TTL row cache in front of the column-family store.

The online hot path reads the same per-user rows over and over (active users
transact repeatedly within minutes, and the payee side of fraud "gathering"
patterns concentrates on few accounts), while the underlying rows only change
once per day when the offline pipeline bulk-loads a new version.  A small
time-bounded cache therefore absorbs most point reads.  Writes through the
client invalidate the affected row eagerly, so a cache hit can never serve a
value older than the last local write.  What it holds are the store's own
immutable :class:`~repro.hbase.store.Row` snapshots, handed out by reference:
a hit copies nothing, and time is whatever ``now`` the caller passes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.hbase.store import Row

#: (column family, version) — the per-row cache sub-key.
_SubKey = Tuple[str, Optional[int]]
#: (table, row key) — the invalidation unit.
_RowKey = Tuple[str, str]


class RowCache:
    """Bounded TTL cache of row reads, invalidated per (table, row key)."""

    def __init__(self, *, ttl_seconds: float = 30.0, max_rows: int = 4096):
        if not ttl_seconds > 0:  # NaN fails every comparison
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds!r}")
        if max_rows < 1:
            raise ValueError("max_rows must be at least 1")
        self.ttl_seconds = float(ttl_seconds)
        self.max_rows = int(max_rows)
        self._rows: "OrderedDict[_RowKey, Dict[_SubKey, Tuple[float, Row]]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get(
        self,
        table: str,
        row_key: str,
        column_family: str,
        version: Optional[int],
        now: float,
    ) -> Optional[Row]:
        """The cached row — the store's own snapshot — or None on miss/expiry."""
        entry = self._rows.get((table, row_key))
        if entry is not None:
            cached = entry.get((column_family, version))
            if cached is not None:
                expires_at, row = cached
                if now < expires_at:
                    self.hits += 1
                    self._rows.move_to_end((table, row_key))
                    return row
                del entry[(column_family, version)]
                if not entry:
                    # Drop the empty row entry so expired rows stop occupying
                    # max_rows capacity (and len()/stats() stay truthful).
                    del self._rows[(table, row_key)]
        self.misses += 1
        return None

    def put(
        self,
        table: str,
        row_key: str,
        column_family: str,
        version: Optional[int],
        row: Row,
        now: float,
    ) -> None:
        entry = self._rows.setdefault((table, row_key), {})
        entry[(column_family, version)] = (now + self.ttl_seconds, row)
        self._rows.move_to_end((table, row_key))
        while len(self._rows) > self.max_rows:
            self._rows.popitem(last=False)

    def invalidate(
        self, table: str, row_key: str, column_family: Optional[str] = None
    ) -> None:
        """Drop cached reads of one row (called on write).

        A put only mutates one column family, so passing ``column_family``
        keeps the row's *other* families cached — during streaming aggregate
        write-through this is what keeps the (unchanged) profile and
        embedding reads of a just-scored account hot.  With ``None`` the
        whole row is dropped (conservative full invalidation).
        """
        if column_family is None:
            self._rows.pop((table, row_key), None)
            return
        entry = self._rows.get((table, row_key))
        if entry is None:
            return
        for sub_key in [key for key in entry if key[0] == column_family]:
            del entry[sub_key]
        if not entry:
            del self._rows[(table, row_key)]

    def clear(self) -> None:
        self._rows.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "rows": float(len(self._rows)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hits / total if total else 0.0,
        }
