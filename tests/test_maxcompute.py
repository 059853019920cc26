"""Tests of the MaxCompute substrate: tables, SQL, MapReduce, the job client."""

from __future__ import annotations

import dataclasses
import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    FeatureError,
    JobError,
    SchemaError,
    SQLParseError,
    SQLPlanError,
    TableAlreadyExistsError,
    TableNotFoundError,
)
from repro.maxcompute import (
    Column,
    ColumnType,
    InstanceStatus,
    MapReduceJob,
    MaxComputeClient,
    Schema,
    Table,
    TableCatalog,
)
from repro.features.aggregation import SECONDS_PER_DAY, AggregationConfig
from repro.features.sql_backfill import SQLBackfillEngine
from repro.graph.builder import build_network
from repro.maxcompute import PartitionedTable, condition_may_match
from repro.maxcompute.mapreduce import transaction_edge_job
from repro.maxcompute.sql import SQLExecutor, parse_sql
from repro.maxcompute.sql.executor import QueryStats
from repro.maxcompute.sql.parser import ColumnRef, Comparison
from repro.maxcompute.table import table_from_records


@pytest.fixture()
def client(world):
    """A MaxCompute client loaded with a sample of the world's transactions."""
    client = MaxComputeClient()
    client.load_records("transactions", [t.to_row() for t in world.transactions[:3000]])
    return client


@pytest.fixture()
def rng():
    """Per-test seeded generator for the randomized SQL-engine suites."""
    import numpy as np

    return np.random.default_rng(20260808)


class TestTables:
    def test_schema_inference_and_coercion(self):
        rows = [{"name": "u1", "amount": 10.5, "count": 3, "flag": True}]
        table = table_from_records("t", rows)
        assert table.schema.column("amount").type is ColumnType.DOUBLE
        assert table.schema.column("count").type is ColumnType.BIGINT
        assert table.schema.column("flag").type is ColumnType.BOOLEAN
        table.append({"name": 5, "amount": "2.5", "count": "7", "flag": "false"})
        assert table.row(1) == {"name": "5", "amount": 2.5, "count": 7, "flag": False}

    def test_unknown_column_rejected(self):
        table = Table("t", Schema([Column("a", ColumnType.BIGINT)]))
        with pytest.raises(SchemaError):
            table.append({"a": 1, "b": 2})

    def test_duplicate_schema_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", ColumnType.BIGINT), Column("a", ColumnType.DOUBLE)])

    def test_partitioning_covers_all_rows(self):
        table = table_from_records("t", [{"x": i} for i in range(10)])
        splits = table.partition_rows(3)
        assert sum(len(s) for s in splits) == 10
        # partition_rows splits by position only: chunks are contiguous,
        # ordered, and cover every index exactly once.
        flat = [i for split in splits for i in split]
        assert flat == list(range(10))
        assert not hasattr(table, "partition_column")

    def test_catalog_lifecycle(self):
        catalog = TableCatalog()
        schema = Schema.from_dict({"user": "string", "score": "double"})
        catalog.create_table("scores", schema)
        catalog.insert_rows("scores", [{"user": "u1", "score": 0.5}])
        with pytest.raises(TableAlreadyExistsError):
            catalog.create_table("scores", schema)
        assert catalog.get_table("scores").num_rows == 1
        catalog.drop_table("scores")
        with pytest.raises(TableNotFoundError):
            catalog.get_table("scores")

    @staticmethod
    def _assert_consistent(table, records):
        assert table.num_rows == len(table) == len(records)
        assert {len(table.column(name)) for name in table.schema.names()} == {len(records)}
        assert list(table.rows()) == records

    def test_rejected_row_leaves_the_table_untouched(self):
        """A value that cannot be coerced used to be rejected *after* the
        columns before it had been stored: ``a`` held two values, ``num_rows``
        said one, and the next good row was read back shifted."""
        table = Table("t", Schema.from_dict({"a": "bigint", "b": "double", "c": "bigint"}))
        table.append({"a": 1, "b": 1.0, "c": 1})
        with pytest.raises(SchemaError):
            table.append({"a": 2, "b": "oops", "c": 2})
        self._assert_consistent(table, [{"a": 1, "b": 1.0, "c": 1}])
        table.append({"a": 3, "b": 3.0, "c": 3})
        self._assert_consistent(table, [{"a": 1, "b": 1.0, "c": 1}, {"a": 3, "b": 3.0, "c": 3}])

    def test_rejected_block_in_extend_stores_none_of_it(self):
        """One ``extend`` call is one block: a bad row in the middle rejects
        the rows before it too (the row-at-a-time write kept them)."""
        table = Table("t", Schema.from_dict({"a": "bigint", "b": "double"}))
        table.append({"a": 0, "b": 0.0})
        with pytest.raises(SchemaError):
            table.extend([{"a": 1, "b": 1.0}, {"a": 2, "b": "oops"}, {"a": 3, "b": 3.0}])
        self._assert_consistent(table, [{"a": 0, "b": 0.0}])
        with pytest.raises(SchemaError):
            table.extend([{"a": 1, "b": 1.0}, {"a": 2, "nope": 1}])
        self._assert_consistent(table, [{"a": 0, "b": 0.0}])
        table.extend([{"a": 4, "b": 4.0}])
        self._assert_consistent(table, [{"a": 0, "b": 0.0}, {"a": 4, "b": 4.0}])

    def test_extend_columns_contract(self):
        table = Table("t", Schema.from_dict({"a": "bigint", "b": "double", "c": "string"}))
        table.extend_columns({"a": [1, "2"], "b": [0.5, 1]}, 2)  # missing column: NULL
        expected = [{"a": 1, "b": 0.5, "c": None}, {"a": 2, "b": 1.0, "c": None}]
        self._assert_consistent(table, expected)
        assert [type(value) for value in table.column("b")] == [float, float]
        with pytest.raises(SchemaError):
            table.extend_columns({"a": [1, 2], "b": [1.0]}, 2)  # ragged
        with pytest.raises(SchemaError):
            table.extend_columns({"a": [1], "b": [1.0]}, 2)  # count disagrees
        with pytest.raises(SchemaError):
            table.extend_columns({"a": [1], "nope": [1]}, 1)  # unknown column
        with pytest.raises(SchemaError):
            table.extend_columns({"a": [1, "x"]}, 2)  # second value does not coerce
        self._assert_consistent(table, expected)
        # The caller's lists are copied, never aliased.
        block = {"a": [7], "b": [7.0], "c": ["s"]}
        table.extend_columns(block, 1)
        block["a"].append(8)
        assert table.column("a") == [1, 2, 7]
        # bool is an int subclass but not the stored type of a bigint column.
        table.extend_columns({"a": [True]}, 1)
        assert repr(table.column("a")[-1]) == "1"


class TestSQL:
    def test_parse_full_statement(self):
        statement = parse_sql(
            "SELECT payer_id, COUNT(*) AS n FROM txns "
            "WHERE amount > 100 AND hour >= 22 GROUP BY payer_id"
        )
        assert statement.table == "txns"
        assert statement.group_by == ["payer_id"]
        assert statement.where == [Comparison("amount", ">", 100), Comparison("hour", ">=", 22)]

    def test_parse_errors(self):
        for sql in (
            "SELEC x FROM t",
            "SELECT x FROM t WHERE amount >",
            "",
            "SELECT SUM(DISTINCT amount) FROM t",
            "SELECT COUNT(DISTINCT *) FROM t",
            "SELECT SUM(*) FROM t",
        ):
            with pytest.raises(SQLParseError):
                parse_sql(sql)

    def test_where_filter_and_projection(self, client):
        result = client.submit_sql(
            "SELECT transaction_id, amount FROM transactions WHERE day >= 1 AND amount > 100"
        )
        assert result.succeeded
        records = list(result.result_table.rows())
        table = client.get_table("transactions")
        expected = sum(1 for row in table.rows() if row["day"] >= 1 and row["amount"] > 100)
        assert len(records) == expected > 0

    def test_group_by_aggregates(self, client):
        result = client.submit_sql(
            "SELECT day, COUNT(*) AS n, SUM(amount) AS total, MAX(amount) AS peak "
            "FROM transactions GROUP BY day"
        )
        records = list(result.result_table.rows())
        assert records, "expected at least one group"
        table = client.get_table("transactions")
        for row in records:
            amounts = [r["amount"] for r in table.rows() if r["day"] == row["day"]]
            assert row["n"] == len(amounts) and row["peak"] == max(amounts)
            assert row["total"] == functools.reduce(operator.add, amounts)

    def test_unknown_column_planning_error(self, client):
        executor = SQLExecutor(client.catalog)
        with pytest.raises(SQLPlanError):
            executor.execute("SELECT nope FROM transactions")

    def test_dialect_is_the_backfill_dialect(self, world, monkeypatch):
        """The three statements the T+1 backfill generates parse and run, and
        every construct outside them is a parse error: widening the dialect
        again has to be a deliberate change."""
        engine = SQLBackfillEngine(AggregationConfig(window_days=3))
        issued = []
        submit = engine.client.submit_sql

        def recording(sql, **kwargs):
            issued.append(sql)
            result = submit(sql, **kwargs)
            assert result.succeeded, (sql, result.error)
            return result

        monkeypatch.setattr(engine.client, "submit_sql", recording)
        engine.backfill(world.transactions[:300], as_of_time=10 * SECONDS_PER_DAY)
        grouped = [parse_sql(sql).group_by for sql in issued]
        assert grouped == [["payer_id"], ["payee_id"], ["payer_id", "payee_id"]]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a, SUM(x) OVER (PARTITION BY a ORDER BY t "
            "RANGE BETWEEN 10 PRECEDING AND CURRENT ROW) AS w FROM t",
            "SELECT a FROM t ORDER BY a",
            "SELECT a FROM t LIMIT 5",
            "SELECT a FROM t WHERE a = 1 OR a = 2",
            "SELECT a FROM t WHERE NOT a = 1",
            "SELECT a FROM t WHERE a IN (1, 2)",
            "SELECT AVG(x) FROM t",
            "SELECT MIN(x) FROM t",
            "SELECT * FROM t",
            "SELECT a FROM t WHERE k = 'x'",
        ],
        ids=["over", "order-by", "limit", "or", "not", "in", "avg", "min", "star", "string"],
    )
    def test_removed_constructs_do_not_parse(self, sql):
        with pytest.raises(SQLParseError):
            parse_sql(sql)


class TestMapReduce:
    def test_edge_aggregation_matches_direct_count(self, client, world):
        result = client.submit_mapreduce(transaction_edge_job(), "transactions")
        assert result.succeeded
        edges = {
            (row["payer_id"], row["payee_id"]): row["weight"]
            for row in result.result_table.rows()
        }
        sample = world.transactions[:3000]
        pair = (sample[0].payer_id, sample[0].payee_id)
        expected = sum(1 for t in sample if (t.payer_id, t.payee_id) == pair)
        assert edges[pair] == pytest.approx(expected)
        # The oracle for ``OfflineTrainingPipeline._build_network``'s twin
        # paths: the MapReduce edge table and the in-memory builder give the
        # same network, edge for edge.
        direct = {(payer, payee): weight for payer, payee, weight in build_network(sample).edges()}
        assert edges == direct

    def test_invalid_job_rejected(self):
        with pytest.raises(JobError):
            MapReduceJob(name="", map_function=lambda r: [], reduce_function=lambda k, v: [])


class TestClient:
    def test_unauthorized_account_rejected(self):
        with pytest.raises(JobError):
            MaxComputeClient(account="intruder", authorized_accounts=["titant_offline"])

    def test_result_table_registration(self, client):
        client.submit_sql(
            "SELECT payer_id, COUNT(*) AS n FROM transactions GROUP BY payer_id",
            result_table="payer_counts",
        )
        assert "payer_counts" in client.list_tables()
        assert client.get_table("payer_counts").num_rows > 0

    @staticmethod
    def _assert_failed(client, result, result_table):
        assert result.status is InstanceStatus.FAILED
        assert not result.succeeded and result.result_table is None
        assert not client.catalog.has_table(result_table)

    def test_failed_sql_job_reports_why(self, client):
        result = client.submit_sql("SELECT nope FROM transactions", result_table="bad_sql")
        self._assert_failed(client, result, "bad_sql")
        assert result.instance_id == "inst_00000001" and result.query_stats is None
        assert result.error == "SQLPlanError: unknown column 'nope' in table 'transactions'"

    def test_failed_mapreduce_job_reports_why(self, client):
        def broken_map(row):
            raise ValueError("broken map")

        job = MapReduceJob(
            name="broken", map_function=broken_map, reduce_function=lambda key, values: []
        )
        result = client.submit_mapreduce(job, "transactions", result_table="bad_mr")
        self._assert_failed(client, result, "bad_mr")
        assert result.stats is None and result.error == "ValueError: broken map"

    def test_backfill_error_names_the_sql_error(self, world, monkeypatch):
        """The backfill's error used to carry only the SQL text; the cause
        reached nothing but the job's status record."""
        engine = SQLBackfillEngine(AggregationConfig(window_days=1))
        bogus = f"SELECT bogus FROM {engine.STAGING_TABLE}"
        monkeypatch.setattr(engine, "_group_sql", lambda *args: bogus)
        with pytest.raises(FeatureError, match=r"SQLPlanError: unknown column 'bogus'"):
            engine.backfill(world.transactions[:50], as_of_time=10 * SECONDS_PER_DAY)


class TestPartitionedTable:
    @staticmethod
    def _table(rows):
        table = PartitionedTable(
            "events",
            Schema.from_dict({"day": "bigint", "ts": "bigint", "amount": "double"}),
            partition_key="day",
        )
        table.extend(rows)
        return table

    def test_routing_and_zone_maps(self):
        table = self._table(
            [
                {"day": 1, "ts": 90, "amount": 3.0},
                {"day": 0, "ts": 10, "amount": 1.0},
                {"day": 0, "ts": 20, "amount": None},
            ]
        )
        assert table.num_rows == 3 and table.num_partitions == 2
        assert table.partition_keys() == [0, 1]
        assert table.partition_indices(0) == [1, 2]
        zone = table.zone_map(0).zone("amount")
        assert zone.bounds == (1.0, 1.0) and zone.null_count == 1
        assert table.zone_map(1).zone("ts").bounds == (90, 90)

    def test_null_partition_key_rejected(self):
        table = self._table([{"day": 0, "ts": 0, "amount": 0.5}])
        with pytest.raises(SchemaError):
            table.append({"day": None, "ts": 1, "amount": 1.0})
        with pytest.raises(SchemaError):
            table.extend(
                [{"day": 1, "ts": 2, "amount": 2.0}, {"day": None, "ts": 3, "amount": 3.0}]
            )
        with pytest.raises(SchemaError):
            PartitionedTable(
                "t", Schema.from_dict({"x": "bigint"}), partition_key="nope"
            )
        # The key is validated before anything is stored: the row count, the
        # partitions and a COUNT(*) still agree (the rejected row used to be
        # stored first — num_rows 2, one partitioned index, COUNT(*) 1).
        client = MaxComputeClient()
        client.catalog.register(table)
        counted = SQLExecutor(client.catalog).execute("SELECT COUNT(*) AS n FROM events")
        sizes = [len(table.partition_indices(key)) for key in table.partition_keys()]
        assert table.num_rows == sum(sizes) == counted.column("n")[0] == 1
        assert len(list(table.rows())) == 1

    def test_pruning_skips_only_non_matching(self, client_partitioned):
        client, rows = client_partitioned
        executor = SQLExecutor(client.catalog)
        pruned = executor.execute("SELECT ts, amount FROM events WHERE ts > 250")
        pruned_stats = executor.last_stats
        full_executor = _plain_executor(client.get_table("events"))
        full = full_executor.execute("SELECT ts, amount FROM events WHERE ts > 250")
        full_stats = full_executor.last_stats
        assert list(pruned.rows()) == list(full.rows())
        assert full_stats.partitions_skipped == 0
        assert pruned_stats.partitions_skipped > 0
        assert pruned_stats.rows_scanned < full_stats.rows_scanned
        # Every partition whose zone map votes "skip" is provably
        # non-matching, and every partition with a matching row was scanned.
        table = client.get_table("events")
        condition = parse_sql("SELECT ts FROM events WHERE ts > 250").where
        matching_partitions = 0
        for key in table.partition_keys():
            indices, zone = table.partition_indices(key), table.zone_map(key)
            has_match = any(table.row(i)["ts"] > 250 for i in indices)
            if not condition_may_match(condition, zone):
                assert not has_match
            if has_match:
                matching_partitions += 1
        assert pruned_stats.partitions_scanned >= matching_partitions

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pruning_equivalence_property(self, data):
        values = data.draw(
            st.lists(st.integers(0, 99), min_size=1, max_size=60), label="values"
        )
        threshold = data.draw(st.integers(-5, 105), label="threshold")
        operator_ = data.draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), label="op")
        table = PartitionedTable(
            "t",
            Schema.from_dict({"day": "bigint", "v": "bigint"}),
            partition_key="day",
        )
        table.extend([{"day": v // 10, "v": v} for v in values])
        client = MaxComputeClient()
        client.catalog.register(table)
        sql = f"SELECT v FROM t WHERE v {operator_} {threshold}"
        pruned = SQLExecutor(client.catalog).execute(sql)
        assert list(pruned.rows()) == list(_plain_executor(table).execute(sql).rows())

    def test_nan_cell_never_hides_its_partition(self):
        """``min`` / ``max`` over ``[nan, 5.0]`` are NaN, which every bound
        check rejects: ``amount > 3`` skipped day 0 and lost ``5.0``.  Over
        ``[5.0, nan]`` they are 5.0, and ``amount != 5`` skipped the NaN row."""
        table = self._table(
            [
                {"day": 0, "ts": 0, "amount": float("nan")},
                {"day": 0, "ts": 1, "amount": 5.0},
                {"day": 1, "ts": 2, "amount": 1.0},
                {"day": 2, "ts": 3, "amount": 5.0},
                {"day": 2, "ts": 4, "amount": float("nan")},
            ]
        )
        assert table.zone_map(0).zone("amount").bounds is None
        assert table.zone_map(2).zone("amount").bounds is None
        client = MaxComputeClient()
        client.catalog.register(table)
        executor = SQLExecutor(client.catalog)
        above = executor.execute("SELECT day, amount FROM events WHERE amount > 3")
        assert list(above.rows()) == [{"day": 0, "amount": 5.0}, {"day": 2, "amount": 5.0}]
        assert executor.last_stats.partitions_skipped == 1
        unequal = executor.execute("SELECT ts FROM events WHERE amount != 5")
        assert unequal.column("ts") == [0, 2, 4]

    def test_catalog_create_partitioned(self):
        client = MaxComputeClient()
        table = client.create_partitioned_table(
            "p", {"day": "bigint", "x": "double"}, partition_key="day"
        )
        table.append({"day": 3, "x": 1.5})
        assert client.get_table("p") is table
        again = client.create_partitioned_table(
            "p", {"day": "bigint", "x": "double"}, partition_key="day"
        )
        assert again is table


def _plain_executor(table):
    """An executor over a plain copy of ``table``'s rows in its partitioned
    scan order: a plain table is never pruned, so it is the full-scan oracle."""
    catalog = TableCatalog()
    order = [i for key in table.partition_keys() for i in table.partition_indices(key)]
    catalog.register(
        table_from_records(table.name, [table.row(i) for i in order], schema=table.schema)
    )
    return SQLExecutor(catalog)


@pytest.fixture()
def client_partitioned(rng):
    """A client holding a day-partitioned events table with 400 random rows."""
    table = PartitionedTable(
        "events",
        Schema.from_dict({"day": "bigint", "ts": "bigint", "amount": "double"}),
        partition_key="day",
    )
    rows = []
    for _ in range(400):
        ts = int(rng.integers(0, 500))
        rows.append({"day": ts // 100, "ts": ts, "amount": int(rng.integers(1, 100)) / 4.0})
    table.extend(rows)
    client = MaxComputeClient()
    client.catalog.register(table)
    return client, rows


class TestSQLEngineBugfixes:
    """Regression pins for bugs fixed alongside the window engine."""

    def test_empty_result_keeps_source_types(self, client):
        executor = SQLExecutor(client.catalog)
        result = executor.execute(
            "SELECT transaction_id, amount, day FROM transactions WHERE day = 10000"
        )
        assert result.num_rows == 0
        assert result.schema.column("amount").type is ColumnType.DOUBLE
        assert result.schema.column("day").type is ColumnType.BIGINT
        assert result.schema.column("transaction_id").type is ColumnType.STRING
        # A later extend with well-typed rows must not be string-mangled.
        result.append({"transaction_id": "t1", "amount": 2.5, "day": 3})
        assert result.row(0) == {"transaction_id": "t1", "amount": 2.5, "day": 3}

    def test_empty_aggregate_result_typing(self, client):
        executor = SQLExecutor(client.catalog)
        result = executor.execute(
            "SELECT COUNT(*) AS n, SUM(amount) AS s, SUM(day) AS d, "
            "MAX(day) AS hi FROM transactions WHERE day = 10000"
        )
        assert result.schema.column("n").type is ColumnType.BIGINT
        assert result.schema.column("s").type is ColumnType.DOUBLE
        assert result.schema.column("d").type is ColumnType.BIGINT
        assert result.schema.column("hi").type is ColumnType.BIGINT
        # Aggregates over zero rows still yield the SQL one-row result.
        assert list(result.rows()) == [{"n": 0, "s": None, "d": None, "hi": None}]

    def test_where_columns_validated_upfront(self, client):
        executor = SQLExecutor(client.catalog)
        with pytest.raises(SQLPlanError):
            executor.execute("SELECT transaction_id FROM transactions WHERE bogus = 1")

    def test_schema_infer_scans_all_rows(self):
        schema = Schema.infer([{"x": 1, "y": None}, {"x": 2.5, "y": "s"}])
        assert schema.column("x").type is ColumnType.DOUBLE
        assert schema.column("y").type is ColumnType.STRING
        # The widened schema preserves the float that first-row inference
        # used to truncate through int().
        table = Table("t", schema)
        table.extend([{"x": 1, "y": None}, {"x": 2.5, "y": "s"}])
        assert table.column("x") == [1.0, 2.5]

    def test_schema_infer_rejects_unresolvable_columns(self):
        with pytest.raises(SchemaError):
            Schema.infer([{"x": None}, {"x": None}])
        with pytest.raises(SchemaError):
            Schema.infer([{"x": 1}, {"x": "s"}])
        with pytest.raises(SchemaError):
            Schema.infer([{"x": 1}, {"y": 1}])


@settings(max_examples=20, deadline=None)
@given(
    amounts=st.lists(st.floats(0.1, 1e5, allow_nan=False), min_size=1, max_size=40),
    threshold=st.floats(1.0, 5e4),
)
def test_sql_where_filter_property(amounts, threshold):
    """SQL WHERE amount > t returns exactly the rows a direct filter returns."""
    client = MaxComputeClient()
    client.load_records("t", [{"i": i, "amount": float(a)} for i, a in enumerate(amounts)])
    result = client.submit_sql(f"SELECT i FROM t WHERE amount > {threshold}")
    expected = sum(1 for a in amounts if a > threshold)
    assert result.result_table.num_rows == expected


# ---------------------------------------------------------------------------
# Differential oracle: the executor against a row-at-a-time reference
# ---------------------------------------------------------------------------
# The reference keeps the semantics the executor had before it ran over
# columns: a dict per scanned row, a per-row WHERE with Python's short
# circuit, and per-group folds with the same arithmetic (so float folds are
# compared bit for bit under repr).  The property also checks each zone map
# against its partition and that no skipped partition holds a matching row.


_REF_OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _ref_where(where, row):
    for comparison in where:
        left = row[comparison.column]
        if left is None:
            return False
        try:
            if not _REF_OPERATORS[comparison.operator](left, comparison.value):
                return False
        except TypeError as exc:
            raise SQLPlanError("incomparable") from exc
    return True


def _ref_fold(function, distinct, values):
    """A GROUP BY aggregate over ``values`` (NULLs included) in scan order."""
    present = [value for value in values if value is not None]
    if function == "count":
        return len(set(present)) if distinct else len(present)
    if not present:
        return None
    return functools.reduce(operator.add, present) if function == "sum" else max(present)


def _ref_type(item, source):
    if isinstance(item, ColumnRef):
        return source.schema.column(item.name).type
    if item.function == "count":
        return ColumnType.BIGINT
    source_type = source.schema.column(item.column).type
    if item.function == "sum" and source_type is ColumnType.BOOLEAN:
        return ColumnType.BIGINT
    return source_type


def reference_execute(catalog, sql):
    """``(records, [(name, type)], QueryStats)`` the row-at-a-time way."""
    statement = parse_sql(sql)
    source = catalog.get_table(statement.table)
    stats = QueryStats()
    scanned = list(range(source.num_rows))
    if isinstance(source, PartitionedTable):
        stats.partitions_total, stats.partitions_scanned = source.num_partitions, 0
        scanned = []
        for key in source.partition_keys():
            if statement.where and not condition_may_match(statement.where, source.zone_map(key)):
                stats.partitions_skipped += 1
                continue
            stats.partitions_scanned += 1
            scanned.extend(source.partition_indices(key))
    stats.rows_scanned = len(scanned)
    rows = [row for row in map(source.row, scanned) if _ref_where(statement.where, row)]
    stats.rows_matched = len(rows)

    items = statement.items
    if statement.group_by or statement.has_aggregates:
        plain = [item.name for item in items if isinstance(item, ColumnRef)]
        if any(name not in statement.group_by for name in plain):
            raise SQLPlanError("column outside GROUP BY")
        groups = {(): rows} if not statement.group_by else {}
        for row in rows if statement.group_by else ():
            groups.setdefault(tuple(row[name] for name in statement.group_by), []).append(row)
        output = []
        for key, members in groups.items():
            record = dict(zip(statement.group_by, key))
            for item in items:
                if isinstance(item, ColumnRef):
                    record[item.output_name] = record[item.name]
                elif item.column is None:
                    record[item.output_name] = len(members)
                else:
                    record[item.output_name] = _ref_fold(
                        item.function, item.distinct, [row[item.column] for row in members]
                    )
            output.append(record)
    else:
        output = [{item.output_name: row[item.name] for item in items} for row in rows]

    types = {name: source.schema.column(name).type for name in statement.group_by}
    for item in items:
        types.setdefault(item.output_name, _ref_type(item, source))
    records = [{name: type_.coerce(row[name]) for name, type_ in types.items()} for row in output]
    return records, list(types.items()), stats


_ORACLE_SCHEMA = {
    "day": "bigint",
    "k": "string",
    "g": "bigint",
    "t": "bigint",
    "x": "double",
    "b": "boolean",
}
#: Per WHERE column, the number literals compared against it (any number
#: against the string column ``k`` is a type error once a row reaches it).
_ORACLE_LITERALS = {
    "day": st.integers(-1, 4).map(str),
    "k": st.integers(0, 2).map(str),
    "g": st.integers(-1, 4).map(str),
    "t": st.integers(-2, 14).map(str),
    "x": st.sampled_from(["0.1", "0.35", "2", "-1.5", "-0.7", "10000000000000000"]),
    "b": st.sampled_from(["0", "1"]),
}
_ORACLE_AGGREGATES = [
    "COUNT(*)", "COUNT(x)", "COUNT(k)", "COUNT(DISTINCT k)", "COUNT(DISTINCT g)",
    "COUNT(DISTINCT x)", "SUM(x)", "SUM(g)", "SUM(b)", "MAX(x)", "MAX(k)", "MAX(t)", "MAX(b)",
]


def _nullable(strategy, null_weight=4):
    return st.one_of(*([strategy] * null_weight), st.none())


@st.composite
def _oracle_rows(draw):
    """Up to 30 rows with NULLs in every column but the partition key."""
    nan, inf = float("nan"), float("inf")
    row = st.fixed_dictionaries(
        {
            "day": st.integers(0, 3),
            "k": _nullable(st.sampled_from(["a", "b", "c"])),
            "g": _nullable(st.integers(0, 3)),
            "t": _nullable(st.integers(0, 12)),
            # Tenths and thirds: the order of a float fold shows in the last
            # bit.  NaN defeats min / max, and inf - inf is NaN.
            "x": _nullable(
                st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 2.5, -0.7, 1e16, -1e16, nan, inf, -inf])
            ),
            "b": _nullable(st.booleans()),
        }
    )
    size = draw(st.integers(0, 30))  # drawn first: uniform sizes, not mostly tiny tables
    return draw(st.lists(row, min_size=size, max_size=size))


@st.composite
def _oracle_comparisons(draw):
    column = draw(st.sampled_from(["day", "g", "t", "x", "x", "b", "k"]))
    operator_ = draw(st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="]))
    return f"{column} {operator_} {draw(_ORACLE_LITERALS[column])}"


@st.composite
def _oracle_statements(draw):
    keys = []
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(["k", "g", "b", "day"]), max_size=2, unique=True))
        select = list(keys) + [
            f"{draw(st.sampled_from(_ORACLE_AGGREGATES))} AS a{i}"
            for i in range(draw(st.integers(1, 3)))
        ]
    else:
        columns = draw(st.lists(st.sampled_from(sorted(_ORACLE_SCHEMA)), min_size=1, max_size=4))
        select = [f"{name} AS p{i}" if draw(st.booleans()) else name for i, name in enumerate(columns)]
    sql = f"SELECT {', '.join(select)} FROM facts"
    if draw(st.integers(0, 3)):
        sql += " WHERE " + " AND ".join(draw(st.lists(_oracle_comparisons(), min_size=1, max_size=3)))
    if keys:
        sql += f" GROUP BY {', '.join(keys)}"
    return sql


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - the *class* is what is compared
        return type(exc)


def _executor_matches_reference(data):
    rows = data.draw(_oracle_rows(), label="rows")
    partitioned = data.draw(st.booleans(), label="partitioned")
    sql = data.draw(_oracle_statements(), label="sql")
    schema = Schema.from_dict(_ORACLE_SCHEMA)
    table = Table("facts", schema)
    if partitioned:
        table = PartitionedTable("facts", schema, partition_key="day")
    table.extend(rows)
    catalog = TableCatalog()
    catalog.register(table)
    executor = SQLExecutor(catalog)

    def run_executor():
        result = executor.execute(sql)
        types = [(column.name, column.type) for column in result.schema.columns]
        return list(result.rows()), types, executor.last_stats

    got = _outcome(run_executor)
    expected = _outcome(lambda: reference_execute(catalog, sql))
    if isinstance(expected, type) or isinstance(got, type):
        assert got is expected, (sql, got, expected)
    else:
        assert repr(got[0]) == repr(expected[0]), sql
        assert got[1] == expected[1], sql
        assert dataclasses.asdict(got[2]) == dataclasses.asdict(expected[2]), sql
    if not partitioned:
        return
    where = parse_sql(sql).where
    for key in table.partition_keys():
        members = [table.row(index) for index in table.partition_indices(key)]
        zone_map = table.zone_map(key)
        # The lazily built zone maps are the per-value fold of their partition,
        # with no bounds on a column holding a NaN.
        for name, zone in zone_map.columns.items():
            present = [row[name] for row in members if row[name] is not None]
            ordered = present and all(value == value for value in present)
            assert zone.bounds == ((min(present), max(present)) if ordered else None)
            nulls = len(members) - len(present)
            assert (zone.null_count, zone.value_count) == (nulls, len(present))
        if where and not condition_may_match(where, zone_map):
            # A skipped partition holds no row the WHERE accepts.
            for row in members:
                assert _outcome(lambda: _ref_where(where, row)) is not True, (sql, row)


class TestColumnarExecutorExamples:
    """Named cases beside the differential property."""

    @staticmethod
    def _executor(rows, schema):
        catalog = TableCatalog()
        catalog.register(table_from_records("t", rows, schema=Schema.from_dict(schema)))
        return SQLExecutor(catalog)

    def test_later_and_operand_sees_only_the_survivors(self):
        """``b < 5`` on a string column is a type error — raised only when a
        row reaches it, exactly as a per-row short circuit would."""
        schema = {"a": "bigint", "b": "string"}
        sql = "SELECT a FROM t WHERE a = 1 AND b < 5"
        none_survive = self._executor([{"a": 0, "b": "s"}, {"a": None, "b": "s"}], schema)
        assert none_survive.execute(sql).num_rows == 0
        null_survives = self._executor([{"a": 1, "b": None}], schema)
        assert null_survives.execute(sql).num_rows == 0  # NULL b: no comparison made
        with pytest.raises(SQLPlanError):
            self._executor([{"a": 0, "b": "s"}, {"a": 1, "b": "s"}], schema).execute(sql)

    def test_group_by_sum_is_a_left_fold(self):
        """``GROUP BY`` SUM adds in scan order, as the backfill loop's running
        ``+=`` does — not with the builtin ``sum``, which is compensated from
        Python 3.12 on (ten 0.1s: 1.0 there, 0.9999999999999999 folded).
        Before the fix this fails on 3.12 only; 3.10 / 3.11 ``sum`` is the fold.
        """
        amounts = {"a": [0.1] * 10, "b": [0.3, 0.7, 1e16, -1e16, 0.1]}
        rows = [
            {"account": account, "amount": amount}
            for account, values in amounts.items()
            for amount in values
        ]
        executor = self._executor(rows, {"account": "string", "amount": "double"})
        grouped = executor.execute("SELECT account, SUM(amount) AS s FROM t GROUP BY account")
        assert dict(zip(grouped.column("account"), grouped.column("s"))) == {
            account: functools.reduce(operator.add, values) for account, values in amounts.items()
        }

    def test_zone_map_is_rebuilt_after_a_write(self):
        """A zone map is never older than its partition's last write: a row
        appended into a partition the previous query skipped is found."""
        table = PartitionedTable(
            "events", Schema.from_dict({"day": "bigint", "ts": "bigint"}), partition_key="day"
        )
        table.extend([{"day": 0, "ts": 10}, {"day": 0, "ts": 20}, {"day": 1, "ts": 150}])
        catalog = TableCatalog()
        catalog.register(table)
        executor = SQLExecutor(catalog)
        sql = "SELECT day, ts FROM events WHERE ts > 100"
        assert list(executor.execute(sql).rows()) == [{"day": 1, "ts": 150}]
        assert executor.last_stats.partitions_skipped == 1
        stale = table.zone_map(0)
        assert stale is table.zone_map(0) and stale.zone("ts").bounds == (10, 20)
        table.append({"day": 0, "ts": 120})
        assert table.zone_map(0) is not stale and table.zone_map(0).zone("ts").bounds == (10, 120)
        assert table.zone_map(0).row_count == 3
        assert list(executor.execute(sql).rows()) == [{"day": 0, "ts": 120}, {"day": 1, "ts": 150}]
        assert executor.last_stats.partitions_skipped == 0
        # A write to one partition leaves the other partitions' maps alone.
        kept = table.zone_map(1)
        table.extend_columns({"day": [0, 2], "ts": [1, 2]}, 2)
        assert table.zone_map(1) is kept and table.zone_map(2).zone("ts").bounds == (2, 2)


test_executor_matches_row_at_a_time_reference = settings(max_examples=60, deadline=None)(
    given(data=st.data())(_executor_matches_reference)
)
test_executor_matches_row_at_a_time_reference_soak = pytest.mark.slow(
    settings(max_examples=1500, deadline=None)(given(data=st.data())(_executor_matches_reference))
)
