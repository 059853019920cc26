"""SQL execution over columnar tables.

The executor evaluates a parsed :class:`~repro.maxcompute.sql.parser.SelectStatement`
against the catalog: scan (with zone-map partition pruning on
:class:`~repro.maxcompute.partitioned.PartitionedTable` sources) → filter
(the WHERE conjuncts) → group / aggregate (GROUP BY) or project.  Every stage
works on the source's column lists and a list of row indices — no row dict is
built — and the result is one column block, returned as a new in-memory
:class:`~repro.maxcompute.table.Table` so downstream jobs can consume it like
any other table.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import SQLPlanError
from repro.maxcompute.catalog import TableCatalog
from repro.maxcompute.partitioned import PartitionedTable, condition_may_match
from repro.maxcompute.sql.parser import (
    Aggregate,
    ColumnRef,
    Comparison,
    SelectStatement,
    parse_sql,
)
from repro.maxcompute.table import Column, Columns, ColumnType, Schema, Table


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _select(where: Sequence[Comparison], columns: Columns, indices: List[int]) -> List[int]:
    """The rows of ``indices`` (order kept) that satisfy every WHERE conjunct.

    A selection vector over columns that evaluates exactly the rows a per-row
    short circuit would: each conjunct sees only the survivors of the previous
    ones, so a type error in a later conjunct surfaces for the same
    statements.  A comparison on a NULL cell is False.
    """
    for comparison in where:
        compare = _COMPARATORS[comparison.operator]
        values, literal = columns[comparison.column], comparison.value
        try:
            indices = [i for i in indices if (v := values[i]) is not None and compare(v, literal)]
        except TypeError as exc:
            raise SQLPlanError(
                f"cannot compare column {comparison.column!r} with {literal!r}"
            ) from exc
    return indices


def _aggregate_value(aggregate: Aggregate, columns: Columns, rows: List[int]) -> Any:
    """One GROUP BY aggregate over the source rows ``rows`` of one group."""
    if aggregate.column is None:
        return len(rows)  # COUNT(*)
    column = columns[aggregate.column]
    values = [v for i in rows if (v := column[i]) is not None]
    if aggregate.function == "count":
        return len(set(values)) if aggregate.distinct else len(values)
    if not values:
        return None
    if aggregate.function == "sum":
        # A plain left fold in scan order: the builtin ``sum`` is compensated
        # from Python 3.12 on, so it would differ from the backfill loop's
        # running ``+=`` (and from itself across versions).
        return functools.reduce(operator.add, values)
    return max(values)


@dataclass
class QueryStats:
    """Scan accounting for one executed statement.

    ``partitions_*`` describe zone-map pruning on partitioned sources (a
    plain table counts as one partition, always scanned); ``rows_scanned``
    is the number of rows actually read and ``rows_matched`` the number
    surviving the WHERE filter.
    """

    partitions_total: int = 1
    partitions_scanned: int = 1
    partitions_skipped: int = 0
    rows_scanned: int = 0
    rows_matched: int = 0


class SQLExecutor:
    """Plans and executes SELECT statements against a :class:`TableCatalog`."""

    def __init__(self, catalog: TableCatalog):
        self.catalog = catalog
        #: Scan statistics of the most recent :meth:`execute` call.
        self.last_stats: Optional[QueryStats] = None

    # ------------------------------------------------------------------
    def execute(self, sql: str | SelectStatement, *, result_name: str = "query_result") -> Table:
        """Run one SELECT and return its result as a new in-memory table.

        On :class:`PartitionedTable` sources, partitions whose zone map
        proves the WHERE clause unsatisfiable are skipped; the decision is
        reported in :attr:`last_stats`.  The result schema is always derived
        from the source schema plus aggregate typing rules, so empty results
        keep their column types.
        """
        statement = parse_sql(sql) if isinstance(sql, str) else sql
        source = self.catalog.get_table(statement.table)
        self._validate_columns(statement, source)
        stats = QueryStats()
        columns: Columns = {name: source.column(name) for name in source.schema.names()}

        indices = self._scan(statement, source, columns, stats)
        stats.rows_matched = count = len(indices)  # output rows, unless GROUP BY collapses them
        if statement.group_by or statement.has_aggregates:
            block, count = self._aggregate(statement, columns, indices)
        else:
            block = {
                item.output_name: [columns[item.name][i] for i in indices]  # type: ignore[union-attr]
                for item in statement.items
            }

        result = Table(result_name, self._output_schema(statement, source))
        result.extend_columns(block, count)
        self.last_stats = stats
        return result

    # ------------------------------------------------------------------
    def _scan(
        self, statement: SelectStatement, source: Table, columns: Columns, stats: QueryStats
    ) -> List[int]:
        """Indices of the matching rows, skipping provably non-matching partitions.

        On a partitioned source, rows come out in sorted-partition-key order
        (insertion order within a partition); on a plain table, in insertion
        order.
        """
        if isinstance(source, PartitionedTable):
            stats.partitions_total = source.num_partitions
            stats.partitions_scanned = 0
            indices: List[int] = []
            for key in source.partition_keys():
                if statement.where and not condition_may_match(
                    statement.where, source.zone_map(key)
                ):
                    stats.partitions_skipped += 1
                    continue
                stats.partitions_scanned += 1
                indices.extend(source.partition_indices(key))
            stats.rows_scanned = len(indices)
        else:
            stats.rows_scanned = source.num_rows
            indices = list(range(source.num_rows))
        return _select(statement.where, columns, indices)

    def _validate_columns(self, statement: SelectStatement, source: Table) -> None:
        for item in statement.items:
            column = item.name if isinstance(item, ColumnRef) else item.column
            if column is not None and column not in source.schema:
                raise SQLPlanError(
                    f"unknown column {column!r} in table {statement.table!r}"
                )
        for column in statement.group_by:
            if column not in source.schema:
                raise SQLPlanError(f"unknown GROUP BY column {column!r}")
        for comparison in statement.where:
            if comparison.column not in source.schema:
                raise SQLPlanError(f"unknown column {comparison.column!r} in WHERE clause")

    def _aggregate_type(self, item: Aggregate, source: Table) -> ColumnType:
        """Result type of an aggregate: COUNT→bigint, SUM of integers→bigint, else source."""
        if item.column is None or item.function == "count":
            return ColumnType.BIGINT
        source_type = source.schema.column(item.column).type
        if item.function == "sum" and source_type in (ColumnType.BIGINT, ColumnType.BOOLEAN):
            return ColumnType.BIGINT
        return source_type

    def _output_schema(self, statement: SelectStatement, source: Table) -> Schema:
        """Derive the typed result schema (also the empty-result schema)."""
        columns: List[Column] = []
        seen: Set[str] = set()
        for name in statement.group_by:
            columns.append(Column(name, source.schema.column(name).type))
            seen.add(name)
        for item in statement.items:
            output = item.output_name
            if output in seen:
                continue
            seen.add(output)
            if isinstance(item, ColumnRef):
                columns.append(Column(output, source.schema.column(item.name).type))
            else:
                columns.append(Column(output, self._aggregate_type(item, source)))
        return Schema(columns=columns)

    def _aggregate(
        self, statement: SelectStatement, columns: Columns, indices: List[int]
    ) -> Tuple[Columns, int]:
        aggregates = [item for item in statement.items if isinstance(item, Aggregate)]
        plain = [item for item in statement.items if isinstance(item, ColumnRef)]
        for item in plain:
            if item.name not in statement.group_by:
                raise SQLPlanError(
                    f"column {item.name!r} must appear in GROUP BY or inside an aggregate"
                )

        groups: Dict[Tuple[Any, ...], List[int]] = {}
        if statement.group_by:
            keys = zip(*[[columns[name][i] for i in indices] for name in statement.group_by])
            for key, index in zip(keys, indices):
                groups.setdefault(key, []).append(index)
        else:
            groups[()] = indices

        block: Columns = {
            name: [key[position] for key in groups]
            for position, name in enumerate(statement.group_by)
        }
        for item in plain:
            block[item.output_name] = block[item.name]
        for aggregate in aggregates:
            block[aggregate.output_name] = [
                _aggregate_value(aggregate, columns, rows) for rows in groups.values()
            ]
        return block, len(groups)
