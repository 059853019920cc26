"""Write-ahead log.

Every mutation is appended to the WAL before it is applied to the store, so a
crashed region server can replay its log.  The simulation keeps the log in
memory (optionally bounded) and supports replay onto a fresh table — used by
the durability tests.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional

from repro.exceptions import StorageError
from repro.hbase.store import HBaseTable, Row


class WALEntry(NamedTuple):
    """One logged mutation (a read-only tuple record)."""

    sequence: int
    table: str
    row_key: str
    column_family: str
    values: Row
    version: int


class WriteAheadLog:
    """Append-only mutation log with replay support."""

    def __init__(self, *, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise StorageError("max_entries must be positive when set")
        # A full log drops its oldest entry as it appends, in O(1).
        self._entries: Deque[WALEntry] = deque(maxlen=max_entries)
        self._sequence = 0
        self.max_entries = max_entries

    # ------------------------------------------------------------------
    def append(
        self,
        table: str,
        row_key: str,
        column_family: str,
        values: Row,
        *,
        version: int,
    ) -> WALEntry:
        """Log one put of an already frozen row (:func:`~repro.hbase.store.freeze_row`)."""
        self._sequence += 1
        entry = WALEntry(self._sequence, table, row_key, column_family, values, version)
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self, *, table: Optional[str] = None) -> List[WALEntry]:
        if table is None:
            return list(self._entries)
        return [entry for entry in self._entries if entry.table == table]

    # ------------------------------------------------------------------
    def replay(self, table_object: HBaseTable, *, table_name: Optional[str] = None) -> int:
        """Re-apply the logged mutations to ``table_object``; returns the count."""
        replayed = 0
        for entry in self.entries(table=table_name):
            table_object.put(
                entry.row_key, entry.column_family, entry.values, version=entry.version
            )
            replayed += 1
        return replayed
