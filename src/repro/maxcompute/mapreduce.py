"""MapReduce engine over MaxCompute tables.

MaxCompute recognises heterogeneous jobs — SQL and MapReduce — in its storage
& compute layer.  The offline TitAnt pipeline uses MapReduce-style jobs for
the parts that do not fit SQL, most importantly aggregating 90 days of
transaction records into the weighted transaction-network edge list.

A job is defined by a ``map`` function (row → iterable of (key, value) pairs)
and a ``reduce`` function ((key, list of values) → output row or rows).  The
engine splits the input table, runs mappers per split, shuffles by key and
reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import JobError
from repro.maxcompute.table import Table, table_from_records

MapFunction = Callable[[Dict[str, Any]], Iterable[Tuple[Any, Any]]]
ReduceFunction = Callable[[Any, List[Any]], Iterable[Dict[str, Any]]]
CombineFunction = Callable[[Any, List[Any]], List[Any]]


@dataclass
class MapReduceJob:
    """Definition of one MapReduce job."""

    name: str
    map_function: MapFunction
    reduce_function: ReduceFunction
    combine_function: Optional[CombineFunction] = None
    num_splits: int = 4

    def validate(self) -> None:
        if not self.name:
            raise JobError("MapReduce job needs a non-empty name")
        if self.num_splits < 1:
            raise JobError("num_splits must be at least 1")


@dataclass
class MapReduceStats:
    """Execution counters, surfaced through ``JobResult.stats``."""

    input_rows: int = 0
    map_output_pairs: int = 0
    distinct_keys: int = 0
    output_rows: int = 0
    num_splits: int = 0


def _map_split(
    job: MapReduceJob, rows: Iterable[Dict[str, Any]]
) -> Tuple[Dict[Any, List[Any]], int]:
    """Run the map function over one split, returning partial groups."""
    groups: Dict[Any, List[Any]] = {}
    pairs = 0
    for row in rows:
        for key, value in job.map_function(row):
            groups.setdefault(key, []).append(value)
            pairs += 1
    if job.combine_function is not None:
        groups = {key: job.combine_function(key, values) for key, values in groups.items()}
    return groups, pairs


def run_mapreduce(
    job: MapReduceJob,
    table: Table,
    *,
    result_name: Optional[str] = None,
) -> Tuple[Table, MapReduceStats]:
    """Execute ``job`` over ``table`` and return (result table, statistics)."""
    job.validate()
    stats = MapReduceStats(input_rows=table.num_rows)
    splits = table.partition_rows(job.num_splits) if table.num_rows else []
    stats.num_splits = len(splits)

    # Map phase (per split) + shuffle.
    shuffled: Dict[Any, List[Any]] = {}
    for split in splits:
        groups, pairs = _map_split(job, (table.row(i) for i in split))
        stats.map_output_pairs += pairs
        for key, values in groups.items():
            shuffled.setdefault(key, []).extend(values)
    stats.distinct_keys = len(shuffled)

    # Reduce phase, keys processed in sorted order for determinism.
    output_rows: List[Dict[str, Any]] = []
    for key in sorted(shuffled, key=repr):
        for row in job.reduce_function(key, shuffled[key]):
            output_rows.append(row)
    stats.output_rows = len(output_rows)

    name = result_name or f"{job.name}_output"
    if not output_rows:
        from repro.maxcompute.table import Schema

        return Table(name, Schema.from_dict({"key": "string"})), stats
    return table_from_records(name, output_rows), stats


# ---------------------------------------------------------------------------
# Ready-made jobs used by the TitAnt offline pipeline
# ---------------------------------------------------------------------------


def transaction_edge_job(*, num_splits: int = 4) -> MapReduceJob:
    """MapReduce job that aggregates transactions into weighted network edges."""

    def map_edges(row: Dict[str, Any]) -> Iterable[Tuple[Tuple[str, str], float]]:
        yield (row["payer_id"], row["payee_id"]), 1.0

    def reduce_edges(key: Tuple[str, str], values: List[float]) -> Iterable[Dict[str, Any]]:
        payer, payee = key
        yield {"payer_id": payer, "payee_id": payee, "weight": float(sum(values))}

    def combine_edges(key: Tuple[str, str], values: List[float]) -> List[float]:
        return [float(sum(values))]

    return MapReduceJob(
        name="transaction_edges",
        map_function=map_edges,
        reduce_function=reduce_edges,
        combine_function=combine_edges,
        num_splits=num_splits,
    )

