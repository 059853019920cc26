"""SQL execution over columnar tables.

The executor evaluates a parsed :class:`~repro.maxcompute.sql.parser.SelectStatement`
against the catalog: scan (with zone-map partition pruning on
:class:`~repro.maxcompute.partitioned.PartitionedTable` sources) → filter
(WHERE) → group / aggregate (GROUP BY) or windowed aggregation (OVER) →
project → sort (ORDER BY) → truncate (LIMIT).  Results are returned as new
in-memory :class:`~repro.maxcompute.table.Table` objects so downstream jobs
can consume them like any other table.

Window frames are *left-open / right-closed* over the ordering column —
``(current - preceding, current]`` — matching the feature layer's
``AggregationWindowSpec`` rather than the SQL-standard closed interval, and
are evaluated in a single pass per partition with two monotone pointers.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import SQLPlanError
from repro.maxcompute.catalog import TableCatalog
from repro.maxcompute.partitioned import PartitionedTable, condition_may_match
from repro.maxcompute.sql.parser import (
    Aggregate,
    BooleanOp,
    ColumnRef,
    Comparison,
    Condition,
    InList,
    Not,
    SelectStatement,
    WindowAggregate,
    parse_sql,
)
from repro.maxcompute.table import Column, ColumnType, Schema, Table


def _compare(left: Any, operator: str, right: Any) -> bool:
    if left is None or right is None:
        # SQL three-valued logic collapsed to False for simplicity.
        return False
    if operator == "=":
        return left == right
    if operator == "!=":
        return left != right
    try:
        if operator == "<":
            return left < right
        if operator == "<=":
            return left <= right
        if operator == ">":
            return left > right
        if operator == ">=":
            return left >= right
    except TypeError as exc:
        raise SQLPlanError(f"cannot compare {left!r} and {right!r}") from exc
    raise SQLPlanError(f"unknown operator {operator!r}")


def evaluate_condition(condition: Condition, row: Dict[str, Any]) -> bool:
    """Evaluate a WHERE condition against one row."""
    if isinstance(condition, Comparison):
        if condition.column not in row:
            raise SQLPlanError(f"unknown column {condition.column!r} in WHERE clause")
        return _compare(row[condition.column], condition.operator, condition.value)
    if isinstance(condition, InList):
        if condition.column not in row:
            raise SQLPlanError(f"unknown column {condition.column!r} in WHERE clause")
        return row[condition.column] in condition.values
    if isinstance(condition, Not):
        return not evaluate_condition(condition.operand, row)
    if isinstance(condition, BooleanOp):
        if condition.operator == "and":
            return all(evaluate_condition(op, row) for op in condition.operands)
        return any(evaluate_condition(op, row) for op in condition.operands)
    raise SQLPlanError(f"unsupported condition node {condition!r}")


def _condition_columns(condition: Condition) -> Iterator[str]:
    """Yield every column name referenced anywhere in a condition tree."""
    if isinstance(condition, (Comparison, InList)):
        yield condition.column
    elif isinstance(condition, Not):
        yield from _condition_columns(condition.operand)
    elif isinstance(condition, BooleanOp):
        for operand in condition.operands:
            yield from _condition_columns(operand)


def _aggregate_value(aggregate: Aggregate, rows: Sequence[Dict[str, Any]]) -> Any:
    if aggregate.function == "count":
        if aggregate.column is None:
            return len(rows)
        if aggregate.distinct:
            return len(
                {row[aggregate.column] for row in rows if row.get(aggregate.column) is not None}
            )
        return sum(1 for row in rows if row.get(aggregate.column) is not None)
    if aggregate.column is None:
        raise SQLPlanError(f"{aggregate.function.upper()} requires a column")
    values = [row[aggregate.column] for row in rows if row.get(aggregate.column) is not None]
    if not values:
        return None
    if aggregate.function in ("sum", "avg"):
        # A plain left fold in scan order, like the windowed running ``+=``:
        # the builtin ``sum`` is compensated from Python 3.12 on, so it would
        # differ from the window query (and from itself across versions).
        total = functools.reduce(operator.add, values)
        return total if aggregate.function == "sum" else total / len(values)
    if aggregate.function == "min":
        return min(values)
    if aggregate.function == "max":
        return max(values)
    raise SQLPlanError(f"unknown aggregate {aggregate.function!r}")


def _window_values(aggregate: WindowAggregate, rows: Sequence[Dict[str, Any]]) -> List[Any]:
    """Evaluate one windowed aggregate for every input row (single pass).

    Rows are bucketed by the partition column, sorted by the ordering column
    (ties broken by input position), and swept once with two monotone
    pointers bounding the ``(t - preceding, t]`` frame.  count/sum/avg keep
    running accumulators, min/max a monotonic deque, COUNT(DISTINCT) a
    multiset — every row costs amortised O(1).
    """
    function = aggregate.function
    if function != "count" and aggregate.column is None:
        raise SQLPlanError(f"{function.upper()} requires a column")
    partitions: Dict[Any, List[int]] = {}
    for index, row in enumerate(rows):
        partitions.setdefault(row[aggregate.partition_by], []).append(index)
    results: List[Any] = [None] * len(rows)
    width = aggregate.frame.preceding
    for key in partitions:
        indices = partitions[key]
        for index in indices:
            if rows[index][aggregate.order_by] is None:
                raise SQLPlanError(
                    f"window ORDER BY column {aggregate.order_by!r} must be non-NULL"
                )
        try:
            order = sorted(indices, key=lambda i: (rows[i][aggregate.order_by], i))
        except TypeError as exc:
            raise SQLPlanError(
                f"window ORDER BY column {aggregate.order_by!r} mixes incomparable values"
            ) from exc
        times = [rows[i][aggregate.order_by] for i in order]
        values: Optional[List[Any]] = None
        if aggregate.column is not None:
            values = [rows[i][aggregate.column] for i in order]
        start = end = 0
        count_nonnull = 0
        running_sum: Any = 0
        distinct_counts: Dict[Any, int] = {}
        extrema: deque = deque()  # positions into `order`, values monotone
        is_min = function == "min"
        for position, index in enumerate(order):
            current_time = times[position]
            while end < len(order) and times[end] <= current_time:
                value = None if values is None else values[end]
                if value is not None:
                    if aggregate.distinct:
                        distinct_counts[value] = distinct_counts.get(value, 0) + 1
                    elif function in ("sum", "avg"):
                        running_sum += value
                        count_nonnull += 1
                    elif function in ("min", "max"):
                        while extrema and (
                            values[extrema[-1]] >= value
                            if is_min
                            else values[extrema[-1]] <= value
                        ):
                            extrema.pop()
                        extrema.append(end)
                    else:  # count(col)
                        count_nonnull += 1
                end += 1
            while times[start] <= current_time - width:
                value = None if values is None else values[start]
                if value is not None:
                    if aggregate.distinct:
                        distinct_counts[value] -= 1
                        if distinct_counts[value] == 0:
                            del distinct_counts[value]
                    elif function in ("sum", "avg"):
                        running_sum -= value
                        count_nonnull -= 1
                    elif function in ("min", "max"):
                        if extrema and extrema[0] == start:
                            extrema.popleft()
                    else:
                        count_nonnull -= 1
                start += 1
            if function == "count":
                if aggregate.column is None:
                    results[index] = end - start
                elif aggregate.distinct:
                    results[index] = len(distinct_counts)
                else:
                    results[index] = count_nonnull
            elif function == "sum":
                results[index] = running_sum if count_nonnull else None
            elif function == "avg":
                results[index] = running_sum / count_nonnull if count_nonnull else None
            elif function in ("min", "max"):
                results[index] = values[extrema[0]] if extrema else None
            else:
                raise SQLPlanError(f"unknown window aggregate {function!r}")
    return results


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
    pruning_enabled: bool = False


class SQLExecutor:
    """Plans and executes SELECT statements against a :class:`TableCatalog`."""

    def __init__(self, catalog: TableCatalog):
        self.catalog = catalog
        #: Scan statistics of the most recent :meth:`execute` call.
        self.last_stats: Optional[QueryStats] = None

    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str | SelectStatement,
        *,
        result_name: str = "query_result",
        prune_partitions: bool = True,
    ) -> Table:
        """Run one SELECT and return its result as a new in-memory table.

        On :class:`PartitionedTable` sources, partitions whose zone map
        proves the WHERE condition unsatisfiable are skipped (disable with
        ``prune_partitions=False``); the decision is reported in
        :attr:`last_stats`.  The result schema is always derived from the
        source schema plus aggregate typing rules, so empty results keep
        their column types.
        """
        statement = parse_sql(sql) if isinstance(sql, str) else sql
        source = self.catalog.get_table(statement.table)
        self._validate_columns(statement, source)
        stats = QueryStats(pruning_enabled=prune_partitions)

        rows = self._scan(statement, source, stats, prune_partitions)
        stats.rows_matched = len(rows)

        if statement.has_window_functions:
            if statement.group_by or statement.has_aggregates:
                raise SQLPlanError(
                    "window functions cannot be combined with GROUP BY or plain aggregates"
                )
            output_rows = self._window(statement, rows)
        elif statement.group_by or statement.has_aggregates:
            output_rows = self._aggregate(statement, rows)
        else:
            output_rows = self._project(statement, rows)

        schema = self._output_schema(statement, source)
        if statement.order_by is not None:
            if statement.order_by not in schema:
                raise SQLPlanError(f"ORDER BY column {statement.order_by!r} not in result")
            output_rows.sort(
                key=lambda row: (row[statement.order_by] is None, row[statement.order_by]),
                reverse=statement.order_desc,
            )
        if statement.limit is not None:
            output_rows = output_rows[: statement.limit]

        result = Table(result_name, schema)
        result.extend(output_rows)
        self.last_stats = stats
        return result

    # ------------------------------------------------------------------
    def _scan(
        self,
        statement: SelectStatement,
        source: Table,
        stats: QueryStats,
        prune_partitions: bool,
    ) -> List[Dict[str, Any]]:
        """Read matching rows, skipping provably non-matching partitions.

        On a partitioned source, rows come out in sorted-partition-key order
        (insertion order within a partition); on a plain table, in insertion
        order.
        """
        if isinstance(source, PartitionedTable):
            stats.partitions_total = source.num_partitions
            stats.partitions_scanned = 0
            kept: List[Dict[str, Any]] = []
            for _, indices, zone_map in source.iter_partitions():
                if (
                    prune_partitions
                    and statement.where is not None
                    and not condition_may_match(statement.where, zone_map)
                ):
                    stats.partitions_skipped += 1
                    continue
                stats.partitions_scanned += 1
                stats.rows_scanned += len(indices)
                for index in indices:
                    row = source.row(index)
                    if self._keep(statement, row):
                        kept.append(row)
            return kept
        stats.rows_scanned = source.num_rows
        return [row for row in source.rows() if self._keep(statement, row)]

    def _keep(self, statement: SelectStatement, row: Dict[str, Any]) -> bool:
        if statement.where is None:
            return True
        return evaluate_condition(statement.where, row)

    def _validate_columns(self, statement: SelectStatement, source: Table) -> None:
        for item in statement.items:
            column = item.name if isinstance(item, ColumnRef) else item.column
            if column is not None and column not in source.schema:
                raise SQLPlanError(
                    f"unknown column {column!r} in table {statement.table!r}"
                )
            if isinstance(item, WindowAggregate):
                for referenced in (item.partition_by, item.order_by):
                    if referenced not in source.schema:
                        raise SQLPlanError(
                            f"unknown column {referenced!r} in OVER clause"
                        )
        for column in statement.group_by:
            if column not in source.schema:
                raise SQLPlanError(f"unknown GROUP BY column {column!r}")
        if statement.where is not None:
            for column in _condition_columns(statement.where):
                if column not in source.schema:
                    raise SQLPlanError(f"unknown column {column!r} in WHERE clause")

    def _aggregate_type(self, item: Aggregate | WindowAggregate, source: Table) -> ColumnType:
        """Result type of an aggregate: COUNT→bigint, AVG→double, else source."""
        if item.function == "count":
            return ColumnType.BIGINT
        if item.function == "avg":
            return ColumnType.DOUBLE
        if item.column is None:
            raise SQLPlanError(f"{item.function.upper()} requires a column")
        source_type = source.schema.column(item.column).type
        if item.function == "sum" and source_type in (ColumnType.BIGINT, ColumnType.BOOLEAN):
            return ColumnType.BIGINT
        return source_type

    def _output_schema(self, statement: SelectStatement, source: Table) -> Schema:
        """Derive the typed result schema (also the empty-result schema)."""
        if statement.select_all:
            return Schema(columns=list(source.schema.columns))
        columns: List[Column] = []
        seen: set = set()
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

    def _project(
        self, statement: SelectStatement, rows: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        if statement.select_all:
            return rows
        projected = []
        for row in rows:
            projected.append(
                {item.output_name: row[item.name] for item in statement.items}  # type: ignore[union-attr]
            )
        return projected

    def _window(
        self, statement: SelectStatement, rows: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Project plain columns and windowed aggregates, one output per input row."""
        values_by_item: List[Optional[List[Any]]] = []
        for item in statement.items:
            if isinstance(item, WindowAggregate):
                values_by_item.append(_window_values(item, rows))
            else:
                values_by_item.append(None)
        output: List[Dict[str, Any]] = []
        for index, row in enumerate(rows):
            record: Dict[str, Any] = {}
            for item, values in zip(statement.items, values_by_item):
                if values is not None:
                    record[item.output_name] = values[index]
                else:
                    record[item.output_name] = row[item.name]  # type: ignore[union-attr]
            output.append(record)
        return output

    def _aggregate(
        self, statement: SelectStatement, rows: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        aggregates = [item for item in statement.items if isinstance(item, Aggregate)]
        plain = [item for item in statement.items if isinstance(item, ColumnRef)]
        for item in plain:
            if item.name not in statement.group_by:
                raise SQLPlanError(
                    f"column {item.name!r} must appear in GROUP BY or inside an aggregate"
                )

        groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
        if statement.group_by:
            for row in rows:
                key = tuple(row[column] for column in statement.group_by)
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = rows

        output: List[Dict[str, Any]] = []
        for key, group_rows in groups.items():
            record: Dict[str, Any] = {
                column: value for column, value in zip(statement.group_by, key)
            }
            for item in plain:
                record[item.output_name] = record.get(item.name)
            for aggregate in aggregates:
                record[aggregate.output_name] = _aggregate_value(aggregate, group_rows)
            output.append(record)
        return output
