"""Columnar tables.

Tables store data column-wise (lists per column) with a typed schema, the
storage layout a MaxCompute-like warehouse would use for scan-heavy analytical
jobs.  :meth:`Table.extend_columns` is the one write path and takes a block of
columns; rows are plain dictionaries only at the API boundary (``append`` /
``extend`` / ``rows``) so that the data generator's records load directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.exceptions import SchemaError

#: A block of rows held column-wise: ``name -> values``, all of one length.
Columns = Dict[str, List[Any]]


class ColumnType(str, Enum):
    """Supported column types."""

    STRING = "string"
    BIGINT = "bigint"
    DOUBLE = "double"
    BOOLEAN = "boolean"

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this type; raises :class:`SchemaError` if impossible."""
        if value is None:
            return None
        try:
            if self is ColumnType.STRING:
                return str(value)
            if self is ColumnType.BIGINT:
                return int(value)
            if self is ColumnType.DOUBLE:
                return float(value)
            if self is ColumnType.BOOLEAN:
                if isinstance(value, str):
                    return value.lower() in ("true", "1", "yes")
                return bool(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"cannot coerce {value!r} to {self.value}") from exc
        raise SchemaError(f"unsupported column type {self!r}")  # pragma: no cover

    def _coerce_column(self, values: Sequence[Any]) -> List[Any]:
        """Coerce a whole column in one pass; values already stored-typed pass through."""
        stored = _STORED_TYPES[self.value]
        coerce = self.coerce
        return [v if v is None or type(v) is stored else coerce(v) for v in values]


#: The exact Python type a coerced non-NULL value of each column type has.
_STORED_TYPES: Dict[str, type] = {"string": str, "bigint": int, "double": float, "boolean": bool}


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    type: ColumnType
    comment: str = ""


@dataclass
class Schema:
    """Ordered collection of columns."""

    columns: List[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")

    def names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"unknown column {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    @classmethod
    def from_dict(cls, spec: Dict[str, str]) -> "Schema":
        """Build a schema from ``{"name": "type"}`` pairs."""
        return cls(columns=[Column(name, ColumnType(type_)) for name, type_ in spec.items()])

    @classmethod
    def infer(cls, rows: Sequence[Dict[str, Any]]) -> "Schema":
        """Infer a schema by scanning *all* rows (bool before int: bool is an int subclass).

        Mixed bigint/double columns widen to DOUBLE instead of truncating the
        floats, NULLs defer to the first non-NULL value, and a column that is
        NULL in every row raises :class:`SchemaError` — there is no value to
        type it from, and silently picking STRING corrupts later appends.
        """
        if not rows:
            raise SchemaError("cannot infer a schema from zero rows")
        types: Dict[str, Optional[ColumnType]] = {name: None for name in rows[0]}
        for row in rows:
            if set(row) != set(types):
                raise SchemaError(
                    f"inconsistent row keys: expected {sorted(types)}, got {sorted(row)}"
                )
            for name, value in row.items():
                if value is None:
                    continue
                if isinstance(value, bool):
                    observed = ColumnType.BOOLEAN
                elif isinstance(value, int):
                    observed = ColumnType.BIGINT
                elif isinstance(value, float):
                    observed = ColumnType.DOUBLE
                else:
                    observed = ColumnType.STRING
                current = types[name]
                if current is None or current == observed:
                    types[name] = observed
                elif {current, observed} == {ColumnType.BIGINT, ColumnType.DOUBLE}:
                    types[name] = ColumnType.DOUBLE
                else:
                    raise SchemaError(
                        f"column {name!r} mixes {current.value} and {observed.value} values"
                    )
        null_only = sorted(name for name, type_ in types.items() if type_ is None)
        if null_only:
            raise SchemaError(f"columns {null_only} are NULL in every row; cannot infer a type")
        columns = [Column(name, type_) for name, type_ in types.items() if type_ is not None]
        return cls(columns=columns)


class Table:
    """A named columnar table."""

    def __init__(self, name: str, schema: Schema, *, comment: str = ""):
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self.comment = comment
        self._columns: Dict[str, List[Any]] = {c: [] for c in schema.names()}
        self._num_rows = 0

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    def extend_columns(self, columns: Columns, count: int) -> None:
        """Append ``count`` rows given column-wise — the one write path.

        A column missing from ``columns`` is NULL in every row of the block;
        unknown columns and columns whose length is not ``count`` are
        rejected.  The block is all-or-nothing: every column is coerced before
        anything is stored, so a rejected value leaves the table untouched.
        """
        unknown = set(columns) - set(self._columns)
        if unknown:
            raise SchemaError(f"row contains unknown columns {sorted(unknown)}")
        if count < 0:
            raise SchemaError(f"a block cannot hold {count} rows")
        block: Columns = {}
        for column in self.schema.columns:
            values = columns.get(column.name)
            if values is None:
                block[column.name] = [None] * count
            elif len(values) != count:
                raise SchemaError(
                    f"column {column.name!r} holds {len(values)} values, expected {count}"
                )
            else:
                block[column.name] = column.type._coerce_column(values)
        self._store_block(block, count)

    def _store_block(self, block: Columns, count: int) -> None:
        """Store an already coerced, full-width block (subclasses route it)."""
        for name, values in block.items():
            self._columns[name].extend(values)
        self._num_rows += count

    def append(self, row: Dict[str, Any]) -> None:
        """Append one row (missing columns become NULL, extras are rejected)."""
        self.extend_columns({name: [value] for name, value in row.items()}, 1)

    def extend(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Append ``rows`` as one block: a rejected row stores none of them."""
        records = list(rows)
        names = dict.fromkeys(chain.from_iterable(records))
        self.extend_columns(
            {name: [row.get(name) for row in records] for name in names}, len(records)
        )

    # ------------------------------------------------------------------
    def column(self, name: str) -> List[Any]:
        """Raw column values (reference; treat as read-only)."""
        if name not in self._columns:
            raise SchemaError(f"unknown column {name!r} in table {self.name!r}")
        return self._columns[name]

    def row(self, index: int) -> Dict[str, Any]:
        if not 0 <= index < self._num_rows:
            raise SchemaError(f"row index {index} out of range for table {self.name!r}")
        return {name: values[index] for name, values in self._columns.items()}

    def rows(self) -> Iterator[Dict[str, Any]]:
        for index in range(self._num_rows):
            yield self.row(index)

    # ------------------------------------------------------------------
    def partition_rows(self, num_splits: int) -> List[List[int]]:
        """Split row indices into ``num_splits`` contiguous chunks (for subtasks).

        Previously misnamed ``partition_column(name, num_splits)`` — the
        ``name`` argument was ignored entirely, so the signature promised
        value-based partitioning it never did.  Value-based partitioning
        lives in :class:`repro.maxcompute.partitioned.PartitionedTable`.
        """
        if num_splits <= 0:
            raise SchemaError("num_splits must be positive")
        indices = list(range(self._num_rows))
        chunk = max(1, (self._num_rows + num_splits - 1) // num_splits)
        return [indices[i : i + chunk] for i in range(0, self._num_rows, chunk)]


def table_from_records(
    name: str, records: Sequence[Dict[str, Any]], *, schema: Optional[Schema] = None
) -> Table:
    """Build a table from dict records, inferring the schema when not given."""
    if schema is None:
        schema = Schema.infer(records)
    table = Table(name, schema)
    table.extend(records)
    return table
