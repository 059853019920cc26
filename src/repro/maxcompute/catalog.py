"""Table catalog: the tables of a MaxCompute project, by name.

Pangu is MaxCompute's distributed disk storage; the simulation keeps the
tables in memory and can snapshot one to a JSON file in a given directory and
restore it — enough to exercise the store/load code path the offline pipeline
depends on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List

from repro.exceptions import TableAlreadyExistsError, TableNotFoundError
from repro.maxcompute.partitioned import PartitionedTable
from repro.maxcompute.table import Schema, Table


class TableCatalog:
    """Create / drop / lookup tables, and snapshot them to JSON files."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        *,
        if_not_exists: bool = False,
        comment: str = "",
    ) -> Table:
        if name in self._tables:
            if if_not_exists:
                return self._tables[name]
            raise TableAlreadyExistsError(f"table {name!r} already exists")
        table = Table(name, schema, comment=comment)
        self._tables[name] = table
        return table

    def create_partitioned_table(
        self,
        name: str,
        schema: Schema,
        *,
        partition_key: str,
        if_not_exists: bool = False,
        comment: str = "",
    ) -> PartitionedTable:
        """Create a :class:`PartitionedTable` routed by ``partition_key`` values."""
        if name in self._tables:
            if if_not_exists:
                existing = self._tables[name]
                if not isinstance(existing, PartitionedTable):
                    raise TableAlreadyExistsError(
                        f"table {name!r} exists but is not partitioned"
                    )
                return existing
            raise TableAlreadyExistsError(f"table {name!r} already exists")
        table = PartitionedTable(name, schema, partition_key=partition_key, comment=comment)
        self._tables[name] = table
        return table

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        if name not in self._tables:
            if if_exists:
                return
            raise TableNotFoundError(f"table {name!r} does not exist")
        del self._tables[name]

    def get_table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise TableNotFoundError(f"table {name!r} does not exist") from exc

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def list_tables(self) -> List[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------
    def insert_rows(self, name: str, rows: Iterable[Dict[str, object]]) -> int:
        """Append rows to an existing table as one block; returns the number inserted."""
        records = list(rows)
        self.get_table(name).extend(records)
        return len(records)

    def register(self, table: Table, *, overwrite: bool = True) -> None:
        """Register a fully built table (e.g. a SQL result) under its name."""
        if not overwrite and table.name in self._tables:
            raise TableAlreadyExistsError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def describe(self, name: str) -> Dict[str, object]:
        table = self.get_table(name)
        return {
            "name": table.name,
            "comment": table.comment,
            "num_rows": table.num_rows,
            "columns": {column.name: column.type.value for column in table.schema.columns},
        }

    # ------------------------------------------------------------------
    def snapshot(self, name: str, directory: str | Path) -> Path:
        """Persist one table to ``<directory>/<name>.json``."""
        table = self.get_table(name)
        path = Path(directory) / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, object] = {
            "name": table.name,
            "schema": {column.name: column.type.value for column in table.schema.columns},
            "rows": table.to_records(),
        }
        if isinstance(table, PartitionedTable):
            payload["partition_key"] = table.partition_key
        path.write_text(json.dumps(payload))
        return path

    def restore(self, name: str, directory: str | Path) -> Table:
        """Load a snapshot back into the catalog (partitioned if it names a key)."""
        path = Path(directory) / f"{name}.json"
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
        self.register(table)
        return table
