"""Value-partitioned tables with per-partition zone maps.

The paper's backfill scans a transactions table partitioned by day; MaxCompute
prunes partitions whose metadata proves no row can match the query predicate
(the "Provenance-based Data Skipping" shape from PAPERS.md).  This module
reproduces that storage layer: :class:`PartitionedTable` routes every written
block's row indices into partitions keyed by one column's value and builds a
partition's :class:`ZoneMap` (per-column min / max / null count) on first use
after a write.  The SQL executor consults :func:`condition_may_match` to skip
partitions and reports the decision in its query stats.

Pruning is *conservative* and need only be sound for the predicates the
dialect has: a conjunction of ``column op number`` comparisons, each False on
a NULL cell.  A partition is skipped only when some conjunct provably holds
for none of its rows.  A column holding a NaN (for which every comparison
but ``!=`` is False, whatever ``min`` / ``max`` report), mixed-type
comparisons and unseen columns fall back to "may match" — correctness never
depends on pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SchemaError
from repro.maxcompute.table import Columns, Schema, Table

if TYPE_CHECKING:  # pragma: no cover - import cycle: sql.executor needs this module
    from repro.maxcompute.sql.parser import Comparison


@dataclass
class ColumnZone:
    """Min / max / null statistics for one column within one partition."""

    min_value: Any = None
    max_value: Any = None
    null_count: int = 0
    value_count: int = 0
    bounds_valid: bool = True

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "ColumnZone":
        """Statistics of one stored (already coerced) column slice."""
        present = [value for value in values if value is not None]
        zone = cls(null_count=len(values) - len(present), value_count=len(present))
        if present:
            try:
                zone.min_value, zone.max_value = min(present), max(present)
            except TypeError:
                # Mixed un-orderable values (should not happen post-coercion);
                # widen to "unknown" so pruning stays conservative.
                zone.bounds_valid = False
            # A NaN anywhere makes min / max order-dependent and unsound: no bounds.
            if isinstance(zone.min_value, float) and any(v != v for v in present):
                zone.bounds_valid = False
        return zone

    @property
    def bounds(self) -> Optional[Tuple[Any, Any]]:
        """``(min, max)`` over non-NULL values, or ``None`` when there are none
        or their range is unknown (a NaN among them, or unorderable values)."""
        if self.value_count == 0 or not self.bounds_valid:
            return None
        return (self.min_value, self.max_value)


@dataclass
class ZoneMap:
    """Per-column :class:`ColumnZone` statistics for one partition."""

    columns: Dict[str, ColumnZone] = field(default_factory=dict)
    row_count: int = 0

    def zone(self, column: str) -> Optional[ColumnZone]:
        """The named column's statistics, or ``None`` if the map has no such column."""
        return self.columns.get(column)


def _comparison_may_hold(zone: ColumnZone, operator: str, value: Any) -> bool:
    """Can any non-NULL value in ``zone``'s range satisfy ``x <op> value``?"""
    if zone.value_count == 0:
        return False  # no non-NULL values at all (NULL cmp anything is False)
    bounds = zone.bounds
    if bounds is None:
        return True  # values exist but their range is unknown: never prune
    low, high = bounds
    try:
        if operator == "=":
            return low <= value <= high
        if operator == "!=":
            return not (low == high == value)
        if operator == "<":
            return low < value
        if operator == "<=":
            return low <= value
        if operator == ">":
            return high > value
        if operator == ">=":
            return high >= value
    except TypeError:
        return True  # mixed types: let the executor surface the real error
    return True  # unknown operator: never prune on it


def condition_may_match(where: Sequence["Comparison"], zone_map: ZoneMap) -> bool:
    """True unless ``zone_map`` proves no row can satisfy every conjunct of ``where``.

    A comparison on a NULL cell is False, as in the executor.  Returns True
    (scan the partition) in every uncertain case.
    """
    if zone_map.row_count == 0:
        return False
    for comparison in where:
        zone = zone_map.zone(comparison.column)
        # An unseen column never prunes: the executor validates it.
        if zone is not None and not _comparison_may_hold(
            zone, comparison.operator, comparison.value
        ):
            return False
    return True


class PartitionedTable(Table):
    """A :class:`Table` whose rows are routed into partitions by a key column.

    Storage stays columnar in the base table (so every :class:`Table` API —
    ``rows``, ``column``, ``extend_columns`` — keeps working); the partition
    layer adds per-key row-index lists plus a :class:`ZoneMap` per partition,
    built from the partition's column slices the first time it is asked for
    after a write.  Iteration order over partitions is sorted by key for
    determinism, with insertion order preserved within a partition.
    """

    def __init__(self, name: str, schema: Schema, *, partition_key: str, comment: str = ""):
        if partition_key not in schema:
            raise SchemaError(
                f"partition key {partition_key!r} is not a column of table {name!r}"
            )
        super().__init__(name, schema, comment=comment)
        self.partition_key = partition_key
        self._partition_indices: Dict[Any, List[int]] = {}
        self._zone_maps: Dict[Any, ZoneMap] = {}

    # ------------------------------------------------------------------
    def _store_block(self, block: Columns, count: int) -> None:
        """Store a block and route its row indices by the key column.

        A NULL key rejects the whole block before anything is stored.
        """
        keys = block[self.partition_key]
        if None in keys:
            raise SchemaError(
                f"partition key {self.partition_key!r} must be non-NULL in table {self.name!r}"
            )
        first = self._num_rows
        super()._store_block(block, count)
        partitions = self._partition_indices
        for index, key in enumerate(keys, first):
            indices = partitions.get(key)
            if indices is None:
                indices = partitions[key] = []
            indices.append(index)
            # Invariant: a zone map is never older than its partition's last
            # write — the write drops it, the next reader rebuilds it.
            self._zone_maps.pop(key, None)

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of distinct partition-key values seen so far."""
        return len(self._partition_indices)

    def partition_keys(self) -> List[Any]:
        """All partition-key values, sorted for deterministic iteration."""
        return sorted(self._partition_indices)

    def partition_indices(self, key: Any) -> List[int]:
        """Row indices of one partition in insertion order."""
        if key not in self._partition_indices:
            raise SchemaError(f"unknown partition {key!r} in table {self.name!r}")
        return list(self._partition_indices[key])

    def zone_map(self, key: Any) -> ZoneMap:
        """The zone map of one partition (built on first use after a write)."""
        zone_map = self._zone_maps.get(key)
        if zone_map is None:
            indices = self.partition_indices(key)
            zone_map = self._zone_maps[key] = ZoneMap(
                columns={
                    name: ColumnZone.from_values([values[i] for i in indices])
                    for name, values in self._columns.items()
                },
                row_count=len(indices),
            )
        return zone_map

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedTable(name={self.name!r}, rows={self._num_rows}, "
            f"partitions={self.num_partitions}, key={self.partition_key!r})"
        )
