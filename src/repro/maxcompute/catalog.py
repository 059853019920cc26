"""Table catalog: the metadata service in front of Pangu storage."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.exceptions import TableAlreadyExistsError, TableNotFoundError
from repro.maxcompute.partitioned import PartitionedTable
from repro.maxcompute.storage import PanguStorage
from repro.maxcompute.table import Schema, Table


class TableCatalog:
    """Create / drop / lookup tables; all data lives in the backing storage."""

    def __init__(self, storage: Optional[PanguStorage] = None):
        self.storage = storage or PanguStorage()

    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        *,
        if_not_exists: bool = False,
        comment: str = "",
    ) -> Table:
        if name in self.storage:
            if if_not_exists:
                return self.storage.get(name)
            raise TableAlreadyExistsError(f"table {name!r} already exists")
        table = Table(name, schema, comment=comment)
        self.storage.put(table)
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
        if name in self.storage:
            if if_not_exists:
                existing = self.storage.get(name)
                if not isinstance(existing, PartitionedTable):
                    raise TableAlreadyExistsError(
                        f"table {name!r} exists but is not partitioned"
                    )
                return existing
            raise TableAlreadyExistsError(f"table {name!r} already exists")
        table = PartitionedTable(name, schema, partition_key=partition_key, comment=comment)
        self.storage.put(table)
        return table

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        if name not in self.storage:
            if if_exists:
                return
            raise TableNotFoundError(f"table {name!r} does not exist")
        self.storage.delete(name)

    def get_table(self, name: str) -> Table:
        return self.storage.get(name)

    def has_table(self, name: str) -> bool:
        return name in self.storage

    def list_tables(self) -> List[str]:
        return self.storage.list_tables()

    # ------------------------------------------------------------------
    def insert_rows(self, name: str, rows: Iterable[Dict[str, object]]) -> int:
        """Append rows to an existing table as one block; returns the number inserted."""
        rows = list(rows)
        self.get_table(name).extend(rows)
        return len(rows)

    def register(self, table: Table, *, overwrite: bool = True) -> None:
        """Register a fully built table (e.g. a SQL result) under its name."""
        if not overwrite and table.name in self.storage:
            raise TableAlreadyExistsError(f"table {table.name!r} already exists")
        self.storage.put(table)

    def describe(self, name: str) -> Dict[str, object]:
        table = self.get_table(name)
        return {
            "name": table.name,
            "comment": table.comment,
            "num_rows": table.num_rows,
            "columns": {column.name: column.type.value for column in table.schema.columns},
        }
