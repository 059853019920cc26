"""Pangu-like storage layer.

Pangu is MaxCompute's distributed disk-storage module; results of finished
jobs are persisted there.  The simulation keeps tables in memory, tracks
simple storage statistics, and can snapshot tables to JSON files when a
directory is configured — enough to exercise the store/load code path the
offline pipeline depends on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.exceptions import StorageError, TableNotFoundError
from repro.maxcompute.partitioned import PartitionedTable
from repro.maxcompute.table import Schema, Table


class PanguStorage:
    """In-memory table store with optional JSON persistence."""

    def __init__(self, *, root_directory: Optional[str | Path] = None):
        self._tables: Dict[str, Table] = {}
        self._root = Path(root_directory) if root_directory is not None else None
        if self._root is not None:
            self._root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def put(self, table: Table, *, overwrite: bool = True) -> None:
        if not overwrite and table.name in self._tables:
            raise StorageError(f"table {table.name!r} already stored")
        self._tables[table.name] = table

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise TableNotFoundError(f"table {name!r} is not stored in Pangu") from exc

    def delete(self, name: str) -> None:
        if name not in self._tables:
            raise TableNotFoundError(f"table {name!r} is not stored in Pangu")
        del self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def list_tables(self) -> List[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------
    def total_rows(self) -> int:
        return sum(table.num_rows for table in self._tables.values())

    # ------------------------------------------------------------------
    def snapshot(self, name: str) -> Path:
        """Persist one table to ``<root>/<name>.json``."""
        if self._root is None:
            raise StorageError("PanguStorage was created without a root directory")
        table = self.get(name)
        path = self._root / f"{name}.json"
        payload = {
            "name": table.name,
            "schema": {column.name: column.type.value for column in table.schema.columns},
            "rows": table.to_records(),
        }
        if isinstance(table, PartitionedTable):
            payload["partition_key"] = table.partition_key
        path.write_text(json.dumps(payload))
        return path

    def restore(self, name: str) -> Table:
        """Load a snapshot back into the store (partitioned if it names a key)."""
        if self._root is None:
            raise StorageError("PanguStorage was created without a root directory")
        path = self._root / f"{name}.json"
        if not path.exists():
            raise TableNotFoundError(f"no snapshot for table {name!r} at {path}")
        payload = json.loads(path.read_text())
        schema = Schema.from_dict(payload["schema"])
        partition_key = payload.get("partition_key")
        table = (
            Table(payload["name"], schema)
            if partition_key is None
            else PartitionedTable(payload["name"], schema, partition_key=partition_key)
        )
        table.extend(payload["rows"])
        self.put(table)
        return table
