"""SQL execution over columnar tables.

The executor evaluates a parsed :class:`~repro.maxcompute.sql.parser.SelectStatement`
against the catalog: scan (with zone-map partition pruning on
:class:`~repro.maxcompute.partitioned.PartitionedTable` sources) → filter
(WHERE) → group / aggregate (GROUP BY) or windowed aggregation (OVER) →
project → sort (ORDER BY) → truncate (LIMIT).  Every stage works on the
source's column lists and a list of row indices — no row dict is built — and
the result is one column block, returned as a new in-memory
:class:`~repro.maxcompute.table.Table` so downstream jobs can consume it like
any other table.

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
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
from repro.maxcompute.table import Column, Columns, ColumnType, Schema, Table


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Per PARTITION BY value of one OVER clause, in ORDER BY order (ties by input
#: position): positions into the scanned index list, the source row indices at
#: those positions, and their ORDER BY values.
_WindowLayout = List[Tuple[List[int], List[int], List[Any]]]


def _select(condition: Condition, columns: Columns, indices: List[int]) -> List[int]:
    """The rows of ``indices`` (order kept) that satisfy a WHERE condition.

    A selection vector over columns that evaluates exactly the rows a per-row
    short circuit would: ``AND`` hands each operand only the survivors of the
    previous ones, ``OR`` only the rows no earlier operand accepted, so a type
    error in a later operand surfaces for the same statements.  SQL's
    three-valued logic is collapsed: a comparison against NULL is False.
    """
    if isinstance(condition, Comparison):
        compare = _COMPARATORS.get(condition.operator)
        if compare is None:
            raise SQLPlanError(f"unknown operator {condition.operator!r}")
        values, literal = columns[condition.column], condition.value
        if literal is None:
            return []
        try:
            return [i for i in indices if (v := values[i]) is not None and compare(v, literal)]
        except TypeError as exc:
            raise SQLPlanError(
                f"cannot compare column {condition.column!r} with {literal!r}"
            ) from exc
    if isinstance(condition, InList):
        values, listed = columns[condition.column], condition.values
        return [i for i in indices if values[i] in listed]
    if isinstance(condition, Not):
        rejected = set(_select(condition.operand, columns, indices))
        return [i for i in indices if i not in rejected]
    if isinstance(condition, BooleanOp):
        if condition.operator == "and":
            for operand in condition.operands:
                indices = _select(operand, columns, indices)
            return indices
        accepted: Set[int] = set()
        undecided = indices
        for operand in condition.operands:
            accepted.update(_select(operand, columns, undecided))
            undecided = [i for i in undecided if i not in accepted]
        return [i for i in indices if i in accepted]
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


def _aggregate_value(aggregate: Aggregate, columns: Columns, rows: List[int]) -> Any:
    """One GROUP BY aggregate over the source rows ``rows`` of one group."""
    if aggregate.column is None:
        if aggregate.function == "count":
            return len(rows)
        raise SQLPlanError(f"{aggregate.function.upper()} requires a column")
    column = columns[aggregate.column]
    values = [v for i in rows if (v := column[i]) is not None]
    if aggregate.function == "count":
        return len(set(values)) if aggregate.distinct else len(values)
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


def _window_layout(
    columns: Columns, indices: List[int], partition_by: str, order_by: str
) -> _WindowLayout:
    """Bucket the scanned rows by ``partition_by`` and sort each bucket once.

    Shared by every aggregate of a statement that names the same OVER clause.
    """
    partition_values, order_values = columns[partition_by], columns[order_by]
    times = [order_values[index] for index in indices]
    if None in times:
        raise SQLPlanError(f"window ORDER BY column {order_by!r} must be non-NULL")
    buckets: Dict[Any, List[int]] = {}
    for position, index in enumerate(indices):
        buckets.setdefault(partition_values[index], []).append(position)
    try:
        # Stable, and positions ascend within a bucket: ties keep input order.
        orders = [sorted(bucket, key=times.__getitem__) for bucket in buckets.values()]
    except TypeError as exc:
        raise SQLPlanError(
            f"window ORDER BY column {order_by!r} mixes incomparable values"
        ) from exc
    return [(order, [indices[p] for p in order], [times[p] for p in order]) for order in orders]


def _window_values(
    aggregate: WindowAggregate, columns: Columns, layout: _WindowLayout, num_rows: int
) -> List[Any]:
    """Evaluate one windowed aggregate for every scanned row (single pass).

    Each partition of the OVER clause's layout is swept once with two monotone
    pointers bounding the ``(t - preceding, t]`` frame.  count/sum/avg keep
    running accumulators, min/max a monotonic deque, COUNT(DISTINCT) a
    multiset — every row costs amortised O(1).
    """
    function = aggregate.function
    if function not in ("count", "sum", "avg", "min", "max"):
        raise SQLPlanError(f"unknown window aggregate {function!r}")
    if function != "count" and aggregate.column is None:
        raise SQLPlanError(f"{function.upper()} requires a column")
    column = None if aggregate.column is None else columns[aggregate.column]
    distinct = aggregate.distinct
    summing = function in ("sum", "avg")
    extremal = function in ("min", "max")
    is_min = function == "min"
    results: List[Any] = [None] * num_rows
    width = aggregate.frame.preceding
    for order, rows, times in layout:
        size = len(order)
        values: List[Any] = [None] * size if column is None else [column[i] for i in rows]
        start = end = 0
        count_nonnull = 0
        running_sum: Any = 0
        distinct_counts: Dict[Any, int] = {}
        extrema: Deque[int] = deque()  # positions into `times`, values monotone
        for position, current_time in zip(order, times):
            while end < size and times[end] <= current_time:
                value = values[end]
                if value is not None:
                    if distinct:
                        distinct_counts[value] = distinct_counts.get(value, 0) + 1
                    elif summing:
                        running_sum += value
                        count_nonnull += 1
                    elif extremal:
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
            expired = current_time - width
            while start < end and times[start] <= expired:
                value = values[start]
                if value is not None:
                    if distinct:
                        distinct_counts[value] -= 1
                        if distinct_counts[value] == 0:
                            del distinct_counts[value]
                    elif summing:
                        running_sum -= value
                        count_nonnull -= 1
                    elif extremal:
                        if extrema and extrema[0] == start:
                            extrema.popleft()
                    else:
                        count_nonnull -= 1
                start += 1
            if column is None:
                results[position] = end - start
            elif distinct:
                results[position] = len(distinct_counts)
            elif extremal:
                results[position] = values[extrema[0]] if extrema else None
            elif function == "count":
                results[position] = count_nonnull
            elif not count_nonnull:
                results[position] = None
            elif function == "sum":
                results[position] = running_sum
            else:
                results[position] = running_sum / count_nonnull
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
        columns: Columns = {name: source.column(name) for name in source.schema.names()}

        indices = self._scan(statement, source, columns, stats, prune_partitions)
        stats.rows_matched = count = len(indices)  # output rows, unless GROUP BY collapses them

        if statement.has_window_functions:
            if statement.group_by or statement.has_aggregates:
                raise SQLPlanError(
                    "window functions cannot be combined with GROUP BY or plain aggregates"
                )
            block = self._window(statement, columns, indices)
        elif statement.group_by or statement.has_aggregates:
            block, count = self._aggregate(statement, columns, indices)
        else:
            block = self._project(statement, columns, indices)

        schema = self._output_schema(statement, source)
        order: Optional[Sequence[int]] = None
        if statement.order_by is not None:
            if statement.order_by not in schema:
                raise SQLPlanError(f"ORDER BY column {statement.order_by!r} not in result")
            keys = block[statement.order_by]
            order = sorted(
                range(count),
                key=lambda position: (keys[position] is None, keys[position]),
                reverse=statement.order_desc,
            )
        if statement.limit is not None:
            order = (range(count) if order is None else order)[: statement.limit]
        if order is not None:
            block = {name: [values[p] for p in order] for name, values in block.items()}
            count = len(order)

        result = Table(result_name, schema)
        result.extend_columns(block, count)
        self.last_stats = stats
        return result

    # ------------------------------------------------------------------
    def _scan(
        self,
        statement: SelectStatement,
        source: Table,
        columns: Columns,
        stats: QueryStats,
        prune_partitions: bool,
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
                if (
                    prune_partitions
                    and statement.where is not None
                    and not condition_may_match(statement.where, source.zone_map(key))
                ):
                    stats.partitions_skipped += 1
                    continue
                stats.partitions_scanned += 1
                indices.extend(source.partition_indices(key))
            stats.rows_scanned = len(indices)
        else:
            stats.rows_scanned = source.num_rows
            indices = list(range(source.num_rows))
        if statement.where is None:
            return indices
        return _select(statement.where, columns, indices)

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

    def _project(self, statement: SelectStatement, columns: Columns, indices: List[int]) -> Columns:
        """Gather the matching rows of the projected (or, for ``*``, all) columns."""
        if statement.select_all:
            return {name: [values[i] for i in indices] for name, values in columns.items()}
        return {
            item.output_name: [columns[item.name][i] for i in indices]  # type: ignore[union-attr]
            for item in statement.items
        }

    def _window(self, statement: SelectStatement, columns: Columns, indices: List[int]) -> Columns:
        """Project plain columns and windowed aggregates, one output per scanned row."""
        layouts: Dict[Tuple[str, str], _WindowLayout] = {}
        block: Columns = {}
        for item in statement.items:
            if isinstance(item, WindowAggregate):
                clause = (item.partition_by, item.order_by)
                if clause not in layouts:
                    layouts[clause] = _window_layout(columns, indices, *clause)
                block[item.output_name] = _window_values(
                    item, columns, layouts[clause], len(indices)
                )
            else:
                values = columns[item.name]  # type: ignore[union-attr]
                block[item.output_name] = [values[i] for i in indices]
        return block

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
