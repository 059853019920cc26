"""MaxCompute (ODPS) substrate simulation.

The paper stores and prepares all offline data on MaxCompute: transaction
logs land there, SQL and MapReduce jobs extract basic features / labels and
build the transaction network, and the learned artefacts are written back.
MaxCompute has three logical layers (Figure 4): a client layer (web console /
HTTP server), a server layer (workers, executors, scheduler, the OTS instance
status service) and a storage & compute layer (Pangu storage, Fuxi resource
scheduling).

This package reproduces what a job's caller sees of that stack, in process:

* :mod:`repro.maxcompute.table` / :mod:`repro.maxcompute.partitioned` —
  columnar tables, and key-partitioned tables with per-partition zone maps,
* :mod:`repro.maxcompute.catalog` — the tables by name, with JSON snapshots,
* :mod:`repro.maxcompute.sql` — the SQL the T+1 backfill issues (SELECT of
  columns and COUNT / SUM / MAX, a conjunctive WHERE, GROUP BY) with a parser
  and executor,
* :mod:`repro.maxcompute.mapreduce` — a MapReduce engine over tables,
* :mod:`repro.maxcompute.client` — the developer-facing client: a SQL or
  MapReduce job runs synchronously as one task and ends terminated or failed
  (its docstring walks the Figure 4 call sequence).
"""

from repro.maxcompute.table import Column, ColumnType, Schema, Table
from repro.maxcompute.partitioned import (
    ColumnZone,
    PartitionedTable,
    ZoneMap,
    condition_may_match,
)
from repro.maxcompute.catalog import TableCatalog
from repro.maxcompute.mapreduce import MapReduceJob, run_mapreduce
from repro.maxcompute.client import InstanceStatus, JobResult, MaxComputeClient

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "Table",
    "ColumnZone",
    "PartitionedTable",
    "ZoneMap",
    "condition_may_match",
    "TableCatalog",
    "InstanceStatus",
    "MapReduceJob",
    "run_mapreduce",
    "MaxComputeClient",
    "JobResult",
]
