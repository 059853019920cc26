"""Developer-facing MaxCompute client.

Mirrors the web-console flow of Figure 4: the client authenticates, submits a
SQL or MapReduce job, the HTTP server hands it to a worker, the scheduler
registers the instance in OTS, splits it into subtasks, runs them on
executors, and the result lands in Pangu storage under the requested table
name.  The simulation keeps the same call sequence; authentication is a simple
account allow-list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.exceptions import JobError, StorageError
from repro.logging_utils import get_logger
from repro.maxcompute.catalog import TableCatalog
from repro.maxcompute.mapreduce import MapReduceJob, MapReduceStats, run_mapreduce
from repro.maxcompute.ots import InstanceStatus
from repro.maxcompute.scheduler import FuxiScheduler
from repro.maxcompute.partitioned import PartitionedTable
from repro.maxcompute.sql.executor import QueryStats, SQLExecutor
from repro.maxcompute.table import Schema, Table, table_from_records

logger = get_logger("maxcompute.client")


@dataclass
class JobResult:
    """Outcome of a submitted job."""

    instance_id: str
    status: InstanceStatus
    result_table: Optional[Table] = None
    stats: Optional[MapReduceStats] = None
    query_stats: Optional[QueryStats] = None

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
        scheduler: Optional[FuxiScheduler] = None,
        catalog: Optional[TableCatalog] = None,
    ) -> None:
        authorized = set(authorized_accounts or {account})
        if account not in authorized:
            raise JobError(f"account {account!r} failed cloud-account verification")
        self.account = account
        self.catalog = catalog or TableCatalog()
        self.scheduler = scheduler or FuxiScheduler()
        self._sql = SQLExecutor(self.catalog)

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
        records = list(records)
        if not records:
            return 0
        if not self.catalog.has_table(name):
            self.catalog.register(table_from_records(name, records))
            return len(records)
        return self.catalog.insert_rows(name, records)

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
        prune_partitions: bool = True,
    ) -> JobResult:
        """Submit a SQL job and wait for it (the simulation is synchronous)."""

        def _run() -> Table:
            name = result_table or "query_result"
            return self._sql.execute(sql, result_name=name, prune_partitions=prune_partitions)

        instance = self.scheduler.submit("sql_query", "sql", [_run])
        self.scheduler.run_instance(instance.instance_id)
        record = self.scheduler.ots.get(instance.instance_id)
        result: Optional[Table] = None
        query_stats: Optional[QueryStats] = None
        if record.status is InstanceStatus.TERMINATED:
            result = instance.results()[0]
            query_stats = self._sql.last_stats
            if result_table is not None and result is not None:
                self.catalog.register(result)
        logger.debug("sql instance %s finished with %s", instance.instance_id, record.status)
        return JobResult(
            instance_id=instance.instance_id,
            status=record.status,
            result_table=result,
            query_stats=query_stats,
        )

    def submit_mapreduce(
        self,
        job: MapReduceJob,
        input_table: str,
        *,
        result_table: Optional[str] = None,
    ) -> JobResult:
        """Submit a MapReduce job over ``input_table`` and wait for it."""
        source = self.catalog.get_table(input_table)

        holder: Dict[str, Any] = {}

        def _run() -> Table:
            table, stats = run_mapreduce(job, source, result_name=result_table or None)
            holder["stats"] = stats
            return table

        instance = self.scheduler.submit(job.name, "mapreduce", [_run])
        self.scheduler.run_instance(instance.instance_id)
        record = self.scheduler.ots.get(instance.instance_id)
        result: Optional[Table] = None
        if record.status is InstanceStatus.TERMINATED:
            result = instance.results()[0]
            if result_table is not None and result is not None:
                self.catalog.register(result)
        return JobResult(
            instance_id=instance.instance_id,
            status=record.status,
            result_table=result,
            stats=holder.get("stats"),
        )

    # ------------------------------------------------------------------
    def job_summary(self) -> Dict[str, int]:
        """OTS status counts — the monitoring view a pipeline operator watches."""
        return self.scheduler.ots.summary()

    def store_artifact(self, name: str, records: List[Dict[str, Any]]) -> Table:
        """Persist a pipeline artefact (embeddings, model metadata) as a table."""
        if not records:
            raise StorageError("cannot store an empty artifact")
        table = table_from_records(name, records)
        self.catalog.register(table)
        return table
