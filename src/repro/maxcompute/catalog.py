"""Table catalog: the tables of a MaxCompute project, by name.

Pangu is MaxCompute's distributed disk storage; the simulation keeps the
tables in memory, which is all the T+1 job needs: it rebuilds its tables from
the day's records on every run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.exceptions import TableAlreadyExistsError, TableNotFoundError
from repro.maxcompute.partitioned import PartitionedTable
from repro.maxcompute.table import Schema, Table


class TableCatalog:
    """Create / drop / lookup tables."""

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
