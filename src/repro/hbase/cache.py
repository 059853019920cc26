"""TTL row cache in front of the column-family store.

The online hot path reads the same per-user rows over and over (active users
transact repeatedly within minutes, and the payee side of fraud "gathering"
patterns concentrates on few accounts), while the underlying rows only change
once per day when the offline pipeline bulk-loads a new version.  A small
time-bounded cache therefore absorbs most point reads.  A write through the
client updates the row's family where the cache holds it (one assignment unless
a read was ever pinned), so a hit never serves a value older than the last
local write, and the next read of a just-written row is still a hit.  It holds
the store's own immutable :class:`~repro.hbase.store.Row` snapshots by
reference: a hit copies nothing, and time is whatever ``now`` the caller passes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.hbase.store import Row

#: The per-row cache sub-key: a family's latest read, or (family, version).
_SubKey = Union[str, Tuple[str, int]]
#: (table, row key) — the LRU and ``max_rows`` unit.
_RowKey = Tuple[str, str]


class RowCache:
    """Bounded TTL cache of row reads, updated per (table, row key, family)
    on write; a read is one :meth:`multi_get` call over all of its keys."""

    def __init__(self, *, ttl_seconds: float = 30.0, max_rows: int = 4096):
        if not ttl_seconds > 0:  # NaN fails every comparison
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds!r}")
        if max_rows < 1:
            raise ValueError("max_rows must be at least 1")
        self.ttl_seconds = float(ttl_seconds)
        self.max_rows = int(max_rows)
        self._rows: "OrderedDict[_RowKey, Dict[_SubKey, Tuple[float, Row]]]" = OrderedDict()
        #: Set by the first version-pinned read; until then no entry holds one.
        self._pinned = False
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def multi_get(
        self,
        table: str,
        rows: Dict[str, Row],
        column_family: str,
        version: Optional[int],
        now: float,
        probe: Callable[[str, Optional[int]], Optional[Row]],
    ) -> List[str]:
        """Read ``rows``' keys through the cache, in place, in one call, and
        return the keys it had to ``probe`` the store for, in order.

        Key by key: a live entry is a hit (moved to the LRU end); an expired
        one is dropped, and a miss calls ``probe(row_key, version)``, whose
        row — the store's own snapshot — is cached with a fresh TTL and
        evicts the least recently used rows beyond ``max_rows``.  A key the
        probe finds nothing for keeps its value in ``rows`` and is not cached.
        """
        cached_rows = self._rows
        sub_key: _SubKey = column_family
        if version is not None:
            sub_key = (column_family, version)
            self._pinned = True
        expires_at = now + self.ttl_seconds
        probed: List[str] = []
        for row_key in rows:
            key = (table, row_key)
            entry = cached_rows.get(key)
            if entry is not None:
                cached = entry.get(sub_key)
                if cached is not None:
                    if now < cached[0]:
                        cached_rows.move_to_end(key)
                        rows[row_key] = cached[1]
                        continue
                    del entry[sub_key]
                    if not entry:
                        # An emptied row entry goes: expired rows must not
                        # take max_rows capacity (or count in len()/stats()).
                        del cached_rows[key]
            probed.append(row_key)
            row = probe(row_key, version)
            if row is None:
                continue
            rows[row_key] = row
            cached_rows.setdefault(key, {})[sub_key] = (expires_at, row)
            cached_rows.move_to_end(key)
            while len(cached_rows) > self.max_rows:
                cached_rows.popitem(last=False)
        self.hits += len(rows) - len(probed)
        self.misses += len(probed)
        return probed

    def update(
        self, table: str, row_key: str, column_family: str, row: Optional[Row], now: float
    ) -> None:
        """Bring one row's family up to a write (called on every write).

        A put only mutates one column family.  If this cache holds that
        family's latest read, ``row`` — the store's snapshot after the write —
        replaces it with a fresh TTL, so the next read of a just-written
        account is a hit on the value it would have probed; with ``row`` None
        (the store holds no row) the read is dropped.  The family's
        version-pinned reads are dropped, and a family this cache does not
        hold is not filled: a write never makes a cache larger.  The row's
        *other* families stay cached as they are — during streaming aggregate
        write-through this is what keeps the (unchanged) profile and
        embedding reads of a just-scored account hot.
        """
        key = (table, row_key)
        entry = self._rows.get(key)
        if entry is None:
            return
        if row is None:
            entry.pop(column_family, None)
        elif column_family in entry:
            entry[column_family] = (now + self.ttl_seconds, row)
        if self._pinned:
            for sub_key in [k for k in entry if isinstance(k, tuple) and k[0] == column_family]:
                del entry[sub_key]
        if not entry:
            del self._rows[key]

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
