"""Developer-facing MaxCompute client.

Mirrors the web-console flow of Figure 4: the client authenticates, submits a
SQL or MapReduce job, the HTTP server hands it to a worker, the scheduler
registers the instance in OTS, splits it into subtasks, runs them on
executors, and the result lands in Pangu storage under the requested table
name.  The simulation keeps that call sequence inside one synchronous call:
the job takes the next instance id, runs its work once as its one task, ends
``TERMINATED`` or ``FAILED`` (with the error it raised), and a named result is
registered in the catalog.  Authentication is a simple account allow-list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import JobError
from repro.logging_utils import get_logger
from repro.maxcompute.catalog import TableCatalog
from repro.maxcompute.mapreduce import MapReduceJob, MapReduceStats, run_mapreduce
from repro.maxcompute.partitioned import PartitionedTable
from repro.maxcompute.sql.executor import QueryStats, SQLExecutor
from repro.maxcompute.table import Schema, Table, table_from_records

logger = get_logger("maxcompute.client")

#: What a job's work returns: its result table and the stats of its kind.
_JobOutput = Tuple[Table, Optional[MapReduceStats], Optional[QueryStats]]


class InstanceStatus(str, Enum):
    """The two states a synchronous job instance can end in."""

    TERMINATED = "terminated"
    FAILED = "failed"


@dataclass
class JobResult:
    """Outcome of a submitted job."""

    instance_id: str
    status: InstanceStatus
    result_table: Optional[Table] = None
    stats: Optional[MapReduceStats] = None
    query_stats: Optional[QueryStats] = None
    #: ``"<ExceptionType>: <message>"`` of the error a failed job raised.
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.status is InstanceStatus.TERMINATED


class MaxComputeClient:
    """Client layer of the MaxCompute simulation."""

    def __init__(
        self,
        *,
        account: str = "titant_offline",
        authorized_accounts: Optional[Sequence[str]] = None,
    ) -> None:
        authorized = set(authorized_accounts or {account})
        if account not in authorized:
            raise JobError(f"account {account!r} failed cloud-account verification")
        self.account = account
        self.catalog = TableCatalog()
        self._sql = SQLExecutor(self.catalog)
        self._instance_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Table management (the parts of DDL the pipeline needs)
    # ------------------------------------------------------------------
    def create_table(self, name: str, schema: Dict[str, str] | Schema, *, if_not_exists: bool = True) -> Table:
        if isinstance(schema, dict):
            schema = Schema.from_dict(schema)
        return self.catalog.create_table(name, schema, if_not_exists=if_not_exists)

    def create_partitioned_table(
        self,
        name: str,
        schema: Dict[str, str] | Schema,
        *,
        partition_key: str,
        if_not_exists: bool = True,
    ) -> PartitionedTable:
        """Create a value-partitioned table with per-partition zone maps."""
        if isinstance(schema, dict):
            schema = Schema.from_dict(schema)
        return self.catalog.create_partitioned_table(
            name, schema, partition_key=partition_key, if_not_exists=if_not_exists
        )

    def load_records(self, name: str, records: Iterable[Dict[str, Any]]) -> int:
        """Bulk-load dictionaries into ``name`` (table must exist or is inferred)."""
        rows = list(records)
        if not rows:
            return 0
        if not self.catalog.has_table(name):
            self.catalog.register(table_from_records(name, rows))
            return len(rows)
        return self.catalog.insert_rows(name, rows)

    def get_table(self, name: str) -> Table:
        return self.catalog.get_table(name)

    def list_tables(self) -> List[str]:
        return self.catalog.list_tables()

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------
    def submit_sql(
        self,
        sql: str,
        *,
        result_table: Optional[str] = None,
    ) -> JobResult:
        """Run a SQL job and return its outcome (the simulation is synchronous)."""

        def work() -> _JobOutput:
            table = self._sql.execute(sql, result_name=result_table or "query_result")
            return table, None, self._sql.last_stats

        return self._run(work, result_table)

    def submit_mapreduce(
        self,
        job: MapReduceJob,
        input_table: str,
        *,
        result_table: Optional[str] = None,
    ) -> JobResult:
        """Run a MapReduce job over ``input_table`` and return its outcome."""
        source = self.catalog.get_table(input_table)

        def work() -> _JobOutput:
            table, stats = run_mapreduce(job, source, result_name=result_table or None)
            return table, stats, None

        return self._run(work, result_table)

    def _run(self, work: Callable[[], _JobOutput], result_table: Optional[str]) -> JobResult:
        """One job instance: ``work`` runs once, and an error it raises fails
        the job (reported in :attr:`JobResult.error`), not the caller."""
        instance_id = f"inst_{next(self._instance_ids):08d}"
        try:
            table, stats, query_stats = work()
        except Exception as exc:  # noqa: BLE001 - the job fails; JobResult.error says why
            error = f"{type(exc).__name__}: {exc}"
            logger.warning("instance %s failed: %s", instance_id, error)
            result = JobResult(instance_id, InstanceStatus.FAILED, error=error)
        else:
            if result_table is not None:
                self.catalog.register(table)
            result = JobResult(instance_id, InstanceStatus.TERMINATED, table, stats, query_stats)
        return result
