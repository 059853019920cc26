"""Tests of the MaxCompute substrate: tables, SQL, MapReduce, scheduling."""

from __future__ import annotations

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    JobError,
    ResourceExhaustedError,
    SchemaError,
    SQLParseError,
    SQLPlanError,
    TableAlreadyExistsError,
    TableNotFoundError,
)
from repro.maxcompute import (
    Column,
    ColumnType,
    FuxiScheduler,
    InstanceStatus,
    MapReduceJob,
    MaxComputeClient,
    OpenTableService,
    PanguStorage,
    Schema,
    Table,
    TableCatalog,
    run_mapreduce,
)
from repro.maxcompute import PartitionedTable, condition_may_match
from repro.maxcompute.mapreduce import daily_fraud_rate_job, transaction_edge_job
from repro.maxcompute.sql import SQLExecutor, WindowAggregate, parse_sql
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

    def test_storage_and_catalog_lifecycle(self, tmp_path):
        storage = PanguStorage(root_directory=tmp_path)
        catalog = TableCatalog(storage)
        schema = Schema.from_dict({"user": "string", "score": "double"})
        catalog.create_table("scores", schema)
        catalog.insert_rows("scores", [{"user": "u1", "score": 0.5}])
        with pytest.raises(TableAlreadyExistsError):
            catalog.create_table("scores", schema)
        storage.snapshot("scores")
        storage.delete("scores")
        with pytest.raises(TableNotFoundError):
            catalog.get_table("scores")
        restored = storage.restore("scores")
        assert restored.num_rows == 1


class TestSQL:
    def test_parse_full_statement(self):
        statement = parse_sql(
            "SELECT payer_id, COUNT(*) AS n FROM txns "
            "WHERE amount > 100 AND (is_fraud = true OR hour >= 22) "
            "GROUP BY payer_id ORDER BY n DESC LIMIT 5"
        )
        assert statement.table == "txns"
        assert statement.group_by == ["payer_id"]
        assert statement.order_by == "n" and statement.order_desc
        assert statement.limit == 5

    def test_parse_errors(self):
        with pytest.raises(SQLParseError):
            parse_sql("SELEC * FROM t")
        with pytest.raises(SQLParseError):
            parse_sql("SELECT * FROM t WHERE amount >")
        with pytest.raises(SQLParseError):
            parse_sql("")

    def test_where_filter_and_projection(self, client):
        result = client.submit_sql(
            "SELECT transaction_id, amount FROM transactions WHERE is_fraud = true"
        )
        assert result.succeeded
        records = result.result_table.to_records()
        table = client.get_table("transactions")
        expected = sum(1 for row in table.rows() if row["is_fraud"])
        assert len(records) == expected

    def test_group_by_aggregates(self, client):
        result = client.submit_sql(
            "SELECT day, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS mean_amount "
            "FROM transactions GROUP BY day ORDER BY day"
        )
        records = result.result_table.to_records()
        assert records, "expected at least one group"
        for row in records:
            assert row["mean_amount"] == pytest.approx(row["total"] / row["n"])

    def test_limit_and_order(self, client):
        result = client.submit_sql(
            "SELECT transaction_id, amount FROM transactions ORDER BY amount DESC LIMIT 10"
        )
        amounts = [row["amount"] for row in result.result_table.to_records()]
        assert len(amounts) == 10
        assert amounts == sorted(amounts, reverse=True)

    def test_unknown_column_planning_error(self, client):
        executor = SQLExecutor(client.catalog)
        with pytest.raises(SQLPlanError):
            executor.execute("SELECT nope FROM transactions")

    def test_in_and_not_conditions(self, client):
        result = client.submit_sql(
            "SELECT transaction_id FROM transactions WHERE day IN (0, 1) AND NOT is_fraud = true"
        )
        table = client.get_table("transactions")
        expected = sum(1 for row in table.rows() if row["day"] in (0, 1) and not row["is_fraud"])
        assert result.result_table.num_rows == expected


class TestMapReduce:
    def test_edge_aggregation_matches_direct_count(self, client, world):
        result = client.submit_mapreduce(transaction_edge_job(), "transactions")
        assert result.succeeded
        edges = {
            (row["payer_id"], row["payee_id"]): row["weight"]
            for row in result.result_table.to_records()
        }
        sample = world.transactions[:3000]
        pair = (sample[0].payer_id, sample[0].payee_id)
        expected = sum(1 for t in sample if (t.payer_id, t.payee_id) == pair)
        assert edges[pair] == pytest.approx(expected)

    def test_daily_fraud_rate_job(self, client):
        result = client.submit_mapreduce(daily_fraud_rate_job(), "transactions")
        rows = result.result_table.to_records()
        assert all(0.0 <= row["fraud_rate"] <= 1.0 for row in rows)
        assert result.stats is not None and result.stats.input_rows == 3000

    def test_invalid_job_rejected(self):
        job = MapReduceJob(name="", map_function=lambda r: [], reduce_function=lambda k, v: [])
        table = table_from_records("t", [{"x": 1}])
        with pytest.raises(JobError):
            run_mapreduce(job, table)


class TestScheduler:
    def test_job_lifecycle_in_ots(self):
        scheduler = FuxiScheduler()
        instance = scheduler.submit("demo", "sql", [lambda: 1, lambda: 2])
        assert scheduler.ots.get(instance.instance_id).status is InstanceStatus.RUNNING
        scheduler.run_instance(instance.instance_id)
        record = scheduler.ots.get(instance.instance_id)
        assert record.status is InstanceStatus.TERMINATED
        assert record.progress == pytest.approx(1.0)
        assert instance.results() == [1, 2]

    def test_failed_subtask_marks_instance_failed(self):
        scheduler = FuxiScheduler()

        def _boom():
            raise ValueError("broken subtask")

        instance = scheduler.submit("demo", "sql", [_boom])
        scheduler.run_instance(instance.instance_id)
        assert scheduler.ots.get(instance.instance_id).status is InstanceStatus.FAILED

    def test_priority_order(self):
        scheduler = FuxiScheduler()
        executed = []
        scheduler.submit("low", "sql", [lambda: executed.append("low")], priority=20)
        scheduler.submit("high", "sql", [lambda: executed.append("high")], priority=1)
        scheduler.run_pending()
        assert executed[0] == "high"

    def test_resource_exhaustion(self):
        scheduler = FuxiScheduler(total_slots=2)
        with pytest.raises(ResourceExhaustedError):
            scheduler.submit("big", "sql", [lambda: None], slots_per_task=5)

    def test_ots_summary_counts(self):
        ots = OpenTableService()
        record = ots.register("a", "sql")
        ots.set_status(record.instance_id, InstanceStatus.RUNNING)
        summary = ots.summary()
        assert summary["running"] == 1


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

    def test_store_artifact(self, client):
        table = client.store_artifact("model_meta", [{"version": "v1", "f1": 0.6}])
        assert table.num_rows == 1
        assert "model_meta" in client.list_tables()

    def test_job_summary_counts_terminated_instances(self, client):
        client.submit_sql("SELECT COUNT(*) AS n FROM transactions")
        assert client.job_summary()["terminated"] >= 1


def _window_client(rows):
    client = MaxComputeClient()
    client.catalog.register(
        table_from_records(
            "events",
            rows,
            schema=Schema.from_dict(
                {"account": "string", "ts": "bigint", "amount": "double"}
            ),
        )
    )
    return client


def _brute_window(rows, function, column, partition, order, width, *, distinct=False):
    """Per-row frame recompute: value-based RANGE, left-open/right-closed."""
    out = []
    for row in rows:
        frame = [
            other
            for other in rows
            if other[partition] == row[partition]
            and row[order] - width < other[order] <= row[order]
        ]
        if function == "count" and column is None:
            out.append(len(frame))
            continue
        values = [other[column] for other in frame if other[column] is not None]
        if distinct:
            out.append(len(set(values)))
        elif function == "count":
            out.append(len(values))
        elif not values:
            out.append(None)
        elif function == "sum":
            out.append(sum(values))
        elif function == "avg":
            out.append(sum(values) / len(values))
        elif function == "min":
            out.append(min(values))
        else:
            out.append(max(values))
    return out


class TestWindowFunctions:
    def test_parse_over_clause(self):
        statement = parse_sql(
            "SELECT account, SUM(amount) OVER (PARTITION BY account ORDER BY ts "
            "RANGE BETWEEN 3600 PRECEDING AND CURRENT ROW) AS w FROM events"
        )
        assert statement.has_window_functions and not statement.has_aggregates
        item = statement.items[1]
        assert isinstance(item, WindowAggregate)
        assert item.partition_by == "account" and item.order_by == "ts"
        assert item.frame.preceding == 3600.0 and item.output_name == "w"

    def test_parse_over_errors(self):
        with pytest.raises(SQLParseError):
            parse_sql(
                "SELECT SUM(amount) OVER (PARTITION BY a ORDER BY ts DESC "
                "RANGE BETWEEN 10 PRECEDING AND CURRENT ROW) FROM t"
            )
        with pytest.raises(SQLParseError):
            parse_sql("SELECT SUM(DISTINCT amount) FROM t")
        with pytest.raises(SQLParseError):
            parse_sql("SELECT COUNT(DISTINCT *) FROM t")
        with pytest.raises(SQLParseError):
            parse_sql(
                "SELECT SUM(amount) OVER (PARTITION BY a ORDER BY ts "
                "RANGE BETWEEN -10 PRECEDING AND CURRENT ROW) FROM t"
            )

    @pytest.mark.parametrize(
        "function,column,distinct",
        [
            ("sum", "amount", False),
            ("avg", "amount", False),
            ("min", "amount", False),
            ("max", "amount", False),
            ("count", "amount", False),
            ("count", None, False),
            ("count", "amount", True),
        ],
    )
    def test_window_parity_vs_brute_force(self, rng, function, column, distinct):
        rows = [
            {
                "account": f"a{int(rng.integers(0, 5))}",
                "ts": int(rng.integers(0, 500)),
                # Dyadic amounts from a small pool: exact sums under any
                # fold order, and repeated values exercise DISTINCT.
                "amount": int(rng.integers(1, 40)) / 4.0,
            }
            for _ in range(200)
        ]
        width = 120
        target = "*" if column is None else column
        if distinct:
            target = f"DISTINCT {target}"
        sql = (
            f"SELECT account, ts, {function.upper()}({target}) OVER "
            f"(PARTITION BY account ORDER BY ts RANGE BETWEEN {width} "
            f"PRECEDING AND CURRENT ROW) AS w FROM events"
        )
        result = SQLExecutor(_window_client(rows).catalog).execute(sql)
        got = [row["w"] for row in result.rows()]
        # The executor scans a plain table in insertion order, so output row
        # i corresponds to input row i.
        expected = _brute_window(
            rows, function, column, "account", "ts", width, distinct=distinct
        )
        assert got == expected

    def test_window_frame_is_left_open(self):
        # Events exactly `width` apart: the older one must fall out, matching
        # AggregationWindowSpec's (t - W, t] convention.
        rows = [
            {"account": "a", "ts": 0, "amount": 2.0},
            {"account": "a", "ts": 100, "amount": 8.0},
        ]
        result = SQLExecutor(_window_client(rows).catalog).execute(
            "SELECT SUM(amount) OVER (PARTITION BY account ORDER BY ts "
            "RANGE BETWEEN 100 PRECEDING AND CURRENT ROW) AS w FROM events"
        )
        assert [row["w"] for row in result.rows()] == [2.0, 8.0]

    def test_window_peers_share_frames(self):
        rows = [
            {"account": "a", "ts": 10, "amount": 1.0},
            {"account": "a", "ts": 10, "amount": 2.0},
        ]
        result = SQLExecutor(_window_client(rows).catalog).execute(
            "SELECT SUM(amount) OVER (PARTITION BY account ORDER BY ts "
            "RANGE BETWEEN 5 PRECEDING AND CURRENT ROW) AS w FROM events"
        )
        # RANGE frames are value-based: both peer rows see both amounts.
        assert [row["w"] for row in result.rows()] == [3.0, 3.0]

    def test_window_rejects_group_by_mix(self):
        client = _window_client([{"account": "a", "ts": 1, "amount": 1.0}])
        executor = SQLExecutor(client.catalog)
        with pytest.raises(SQLPlanError):
            executor.execute(
                "SELECT account, SUM(amount) OVER (PARTITION BY account ORDER BY ts "
                "RANGE BETWEEN 10 PRECEDING AND CURRENT ROW) AS w "
                "FROM events GROUP BY account"
            )

    def test_group_by_sum_folds_left_like_the_window_sum(self):
        """``GROUP BY`` SUM / AVG add in scan order, exactly as the windowed
        running sum does — not with the builtin ``sum``, which is compensated
        from Python 3.12 on (ten 0.1s: 1.0 there, 0.9999999999999999 folded).
        Before the fix this fails on 3.12 only; 3.10 / 3.11 ``sum`` is the fold.
        """
        amounts = {"a": [0.1] * 10, "b": [0.3, 0.7, 1e16, -1e16, 0.1]}
        rows = [
            {"account": account, "ts": ts, "amount": amount}
            for account, values in amounts.items()
            for ts, amount in enumerate(values)
        ]
        executor = SQLExecutor(_window_client(rows).catalog)
        grouped = executor.execute(
            "SELECT account, SUM(amount) AS s, AVG(amount) AS m FROM events GROUP BY account"
        )
        windowed = executor.execute(
            "SELECT account, SUM(amount) OVER (PARTITION BY account ORDER BY ts "
            "RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW) AS w FROM events"
        )
        last_window = {row["account"]: row["w"] for row in windowed.rows()}
        assert {row["account"] for row in grouped.rows()} == set(amounts)
        for row in grouped.rows():
            folded = functools.reduce(operator.add, amounts[row["account"]])
            assert row["s"] == folded == last_window[row["account"]]
            assert row["m"] == folded / len(amounts[row["account"]])

    def test_window_unknown_partition_column(self):
        client = _window_client([{"account": "a", "ts": 1, "amount": 1.0}])
        with pytest.raises(SQLPlanError):
            SQLExecutor(client.catalog).execute(
                "SELECT SUM(amount) OVER (PARTITION BY bogus ORDER BY ts "
                "RANGE BETWEEN 10 PRECEDING AND CURRENT ROW) FROM events"
            )


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
        table = self._table([])
        with pytest.raises(SchemaError):
            table.append({"day": None, "ts": 1, "amount": 1.0})
        with pytest.raises(SchemaError):
            PartitionedTable(
                "t", Schema.from_dict({"x": "bigint"}), partition_key="nope"
            )

    def test_pruning_skips_only_non_matching(self, client_partitioned):
        client, rows = client_partitioned
        executor = SQLExecutor(client.catalog)
        pruned = executor.execute("SELECT ts, amount FROM events WHERE ts > 250")
        pruned_stats = executor.last_stats
        full = executor.execute(
            "SELECT ts, amount FROM events WHERE ts > 250", prune_partitions=False
        )
        full_stats = executor.last_stats
        assert pruned.to_records() == full.to_records()
        assert full_stats.partitions_skipped == 0
        assert pruned_stats.partitions_skipped > 0
        assert pruned_stats.rows_scanned < full_stats.rows_scanned
        # Every partition whose zone map votes "skip" is provably
        # non-matching, and every partition with a matching row was scanned.
        table = client.get_table("events")
        condition = parse_sql("SELECT ts FROM events WHERE ts > 250").where
        matching_partitions = 0
        for _key, indices, zone in table.iter_partitions():
            has_match = any(table.row(i)["ts"] > 250 for i in indices)
            if not condition_may_match(condition, zone):
                assert not has_match
            if has_match:
                matching_partitions += 1
        assert pruned_stats.partitions_scanned >= matching_partitions

    def test_not_condition_never_prunes_null_rows(self):
        table = PartitionedTable(
            "t",
            Schema.from_dict({"day": "bigint", "flag": "bigint"}),
            partition_key="day",
        )
        table.extend([{"day": 0, "flag": 7}, {"day": 1, "flag": None}])
        client = MaxComputeClient()
        client.catalog.register(table)
        executor = SQLExecutor(client.catalog)
        # Under collapsed 3VL, `flag = 7` is False for the NULL row, so
        # NOT(flag = 7) keeps it — day 1 must not be pruned.
        result = executor.execute("SELECT day FROM t WHERE NOT flag = 7")
        assert [row["day"] for row in result.rows()] == [1]
        assert executor.last_stats.partitions_scanned == 1
        assert executor.last_stats.partitions_skipped == 1

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pruning_equivalence_property(self, data):
        values = data.draw(
            st.lists(st.integers(0, 99), min_size=1, max_size=60), label="values"
        )
        threshold = data.draw(st.integers(-5, 105), label="threshold")
        negate = data.draw(st.booleans(), label="negate")
        table = PartitionedTable(
            "t",
            Schema.from_dict({"day": "bigint", "v": "bigint"}),
            partition_key="day",
        )
        table.extend([{"day": v // 10, "v": v} for v in values])
        client = MaxComputeClient()
        client.catalog.register(table)
        executor = SQLExecutor(client.catalog)
        predicate = f"v >= {threshold}"
        if negate:
            predicate = f"NOT {predicate}"
        pruned = executor.execute(f"SELECT v FROM t WHERE {predicate}")
        full = executor.execute(
            f"SELECT v FROM t WHERE {predicate}", prune_partitions=False
        )
        assert pruned.to_records() == full.to_records()

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
    """Regression pins for the five bugs fixed alongside the window engine."""

    def test_negative_limit_rejected_at_parse_time(self):
        with pytest.raises(SQLParseError):
            parse_sql("SELECT x FROM t LIMIT -5")
        # Zero and positive limits still parse.
        assert parse_sql("SELECT x FROM t LIMIT 0").limit == 0

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
            "SELECT COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS m, "
            "MIN(day) AS lo FROM transactions WHERE day = 10000"
        )
        assert result.schema.column("n").type is ColumnType.BIGINT
        assert result.schema.column("s").type is ColumnType.DOUBLE
        assert result.schema.column("m").type is ColumnType.DOUBLE
        assert result.schema.column("lo").type is ColumnType.BIGINT
        # Aggregates over zero rows still yield the SQL one-row result.
        assert result.to_records() == [{"n": 0, "s": None, "m": None, "lo": None}]

    def test_order_by_validated_on_empty_results(self, client):
        executor = SQLExecutor(client.catalog)
        with pytest.raises(SQLPlanError):
            executor.execute(
                "SELECT transaction_id FROM transactions WHERE day = 10000 "
                "ORDER BY bogus_column"
            )

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
