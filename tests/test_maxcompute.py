"""Tests of the MaxCompute substrate: tables, SQL, MapReduce, the job client."""

from __future__ import annotations

import dataclasses
import functools
import json
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
    run_mapreduce,
)
from repro.features.aggregation import SECONDS_PER_DAY, AggregationConfig
from repro.features.sql_backfill import SQLBackfillEngine
from repro.graph.builder import build_network
from repro.maxcompute import PartitionedTable, condition_may_match
from repro.maxcompute.mapreduce import daily_fraud_rate_job, transaction_edge_job
from repro.maxcompute.sql import SQLExecutor, WindowAggregate, parse_sql
from repro.maxcompute.sql import executor as executor_module
from repro.maxcompute.sql.executor import QueryStats
from repro.maxcompute.sql.parser import BooleanOp, ColumnRef, Comparison, InList, Not
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
        catalog = TableCatalog()
        schema = Schema.from_dict({"user": "string", "score": "double"})
        catalog.create_table("scores", schema)
        catalog.insert_rows("scores", [{"user": "u1", "score": 0.5}])
        with pytest.raises(TableAlreadyExistsError):
            catalog.create_table("scores", schema)
        catalog.snapshot("scores", tmp_path)
        catalog.drop_table("scores")
        with pytest.raises(TableNotFoundError):
            catalog.get_table("scores")
        restored = catalog.restore("scores", tmp_path)
        assert restored.num_rows == 1

    @staticmethod
    def _assert_consistent(table, records):
        assert table.num_rows == len(table) == len(records)
        assert {len(table.column(name)) for name in table.schema.names()} == {len(records)}
        assert table.to_records() == records

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

    def test_partitioned_snapshot_round_trip(self, tmp_path):
        """A snapshotted ``PartitionedTable`` used to come back as a plain
        ``Table``: the key was not in the payload, so nothing was ever pruned."""
        catalog = TableCatalog()
        table = PartitionedTable(
            "p",
            Schema.from_dict({"day": "bigint", "ts": "bigint", "amount": "double"}),
            partition_key="day",
        )
        table.extend(
            [
                {"day": ts // 100, "ts": ts, "amount": None if ts % 7 == 0 else ts / 8}
                for ts in range(0, 500, 9)
            ]
        )
        catalog.register(table)
        executor = SQLExecutor(catalog)
        sql = "SELECT ts, amount FROM p WHERE ts > 250"

        def view():
            current = catalog.get_table("p")
            rows = executor.execute(sql).to_records()
            bounds = {
                key: {
                    name: (zone.bounds, zone.null_count)
                    for name, zone in current.zone_map(key).columns.items()
                }
                for key in current.partition_keys()
            }
            return type(current), current.partition_keys(), bounds, rows, executor.last_stats

        before = view()
        catalog.snapshot("p", tmp_path)
        catalog.drop_table("p")
        restored = catalog.restore("p", tmp_path)
        assert restored is not table and isinstance(restored, PartitionedTable)
        assert restored.partition_key == "day"
        assert view() == before
        assert before[4].partitions_skipped == 2 and before[4].partitions_total == 5
        # A payload written before the key was persisted restores as a plain table.
        path = tmp_path / "p.json"
        payload = json.loads(path.read_text())
        del payload["partition_key"]
        path.write_text(json.dumps(payload))
        old = catalog.restore("p", tmp_path)
        assert type(old) is Table and old.to_records() == table.to_records()


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
        # The oracle for ``OfflineTrainingPipeline._build_network``'s twin
        # paths: the MapReduce edge table and the in-memory builder give the
        # same network, edge for edge.
        direct = {(payer, payee): weight for payer, payee, weight in build_network(sample).edges()}
        assert edges == direct

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

    @staticmethod
    def _assert_failed(client, result, failed_before, result_table):
        assert result.status is InstanceStatus.FAILED
        assert not result.succeeded and result.result_table is None
        assert not client.catalog.has_table(result_table)
        assert client.job_summary()["failed"] == failed_before + 1

    def test_failed_sql_job_reports_why(self, client):
        failed_before = client.job_summary()["failed"]
        result = client.submit_sql("SELECT nope FROM transactions", result_table="bad_sql")
        self._assert_failed(client, result, failed_before, "bad_sql")
        assert result.instance_id == "inst_00000001" and result.query_stats is None
        assert result.error == "SQLPlanError: unknown column 'nope' in table 'transactions'"

    def test_failed_mapreduce_job_reports_why(self, client):
        def broken_map(row):
            raise ValueError("broken map")

        job = MapReduceJob(
            name="broken", map_function=broken_map, reduce_function=lambda key, values: []
        )
        failed_before = client.job_summary()["failed"]
        result = client.submit_mapreduce(job, "transactions", result_table="bad_mr")
        self._assert_failed(client, result, failed_before, "bad_mr")
        assert result.stats is None and result.error == "ValueError: broken map"

    def test_backfill_error_names_the_sql_error(self, world, monkeypatch):
        """The backfill's error used to carry only the SQL text; the cause
        reached nothing but the job's status record."""
        engine = SQLBackfillEngine(AggregationConfig(window_days=1))
        bogus = f"SELECT bogus FROM {engine.STAGING_TABLE}"
        monkeypatch.setattr(engine, "_group_sql", lambda *args: bogus)
        with pytest.raises(FeatureError, match=r"SQLPlanError: unknown column 'bogus'"):
            engine.backfill(world.transactions[:50], as_of_time=10 * SECONDS_PER_DAY)


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
        assert len(table.to_records()) == 1

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


# ---------------------------------------------------------------------------
# Differential oracle: the executor against a row-at-a-time reference
# ---------------------------------------------------------------------------
# The reference keeps the semantics the executor had before it ran over
# columns: a dict per scanned row, a recursive per-row WHERE with Python's
# short circuit, and per *aggregate* bucket / sort / sweep with the same
# running arithmetic (so float folds are compared bit for bit under repr).


_REF_OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _ref_where(condition, row):
    if isinstance(condition, Comparison):
        left, right = row[condition.column], condition.value
        if left is None or right is None:
            return False
        try:
            return _REF_OPERATORS[condition.operator](left, right)
        except TypeError as exc:
            raise SQLPlanError("incomparable") from exc
    if isinstance(condition, InList):
        return row[condition.column] in condition.values
    if isinstance(condition, Not):
        return not _ref_where(condition.operand, row)
    assert isinstance(condition, BooleanOp)
    fold = all if condition.operator == "and" else any
    return fold(_ref_where(operand, row) for operand in condition.operands)


def _ref_fold(function, distinct, values):
    """A non-windowed aggregate over ``values`` (NULLs included) in scan order."""
    present = [value for value in values if value is not None]
    if function == "count":
        return len(set(present)) if distinct else len(present)
    if not present:
        return None
    if function in ("sum", "avg"):
        total = functools.reduce(operator.add, present)
        return total if function == "sum" else total / len(present)
    return min(present) if function == "min" else max(present)


def _ref_window(item, rows):
    if item.function != "count" and item.column is None:
        raise SQLPlanError("requires a column")
    out = [None] * len(rows)
    buckets = {}
    for index, row in enumerate(rows):
        buckets.setdefault(row[item.partition_by], []).append(index)
    for bucket in buckets.values():
        if any(rows[i][item.order_by] is None for i in bucket):
            raise SQLPlanError("NULL window ORDER BY value")
        order = sorted(bucket, key=lambda i: (rows[i][item.order_by], i))
        times = [rows[i][item.order_by] for i in order]
        values = [None if item.column is None else rows[i][item.column] for i in order]
        start = end = count = 0
        total = 0
        for position, index in enumerate(order):
            while end < len(order) and times[end] <= times[position]:
                if values[end] is not None and item.function in ("sum", "avg"):
                    total += values[end]
                    count += 1
                end += 1
            while start < end and times[start] <= times[position] - item.frame.preceding:
                if values[start] is not None and item.function in ("sum", "avg"):
                    total -= values[start]
                    count -= 1
                start += 1
            if item.column is None:
                out[index] = end - start
            elif item.function == "sum":
                out[index] = total if count else None
            elif item.function == "avg":
                out[index] = total / count if count else None
            else:  # count / min / max hold no float state: recompute the frame
                out[index] = _ref_fold(item.function, item.distinct, values[start:end])
    return out


def _ref_type(item, source):
    if isinstance(item, ColumnRef):
        return source.schema.column(item.name).type
    if item.function in ("count", "avg"):
        return ColumnType.BIGINT if item.function == "count" else ColumnType.DOUBLE
    if item.column is None:
        raise SQLPlanError("requires a column")
    source_type = source.schema.column(item.column).type
    if item.function == "sum" and source_type is ColumnType.BOOLEAN:
        return ColumnType.BIGINT
    return source_type


def reference_execute(catalog, sql, prune):
    """``(records, [(name, type)], QueryStats)`` the row-at-a-time way."""
    statement = parse_sql(sql)
    source = catalog.get_table(statement.table)
    stats = QueryStats(pruning_enabled=prune)
    if isinstance(source, PartitionedTable):
        stats.partitions_total, stats.partitions_scanned = source.num_partitions, 0
        scanned = []
        for key in source.partition_keys():
            zone_map = source.zone_map(key)
            prunable = prune and statement.where is not None
            if prunable and not condition_may_match(statement.where, zone_map):
                stats.partitions_skipped += 1
                continue
            stats.partitions_scanned += 1
            scanned.extend(source.partition_indices(key))
    else:
        scanned = list(range(source.num_rows))
    stats.rows_scanned = len(scanned)
    rows = [source.row(index) for index in scanned]
    rows = [row for row in rows if statement.where is None or _ref_where(statement.where, row)]
    stats.rows_matched = len(rows)

    items = statement.items
    if statement.has_window_functions:
        if statement.group_by or statement.has_aggregates:
            raise SQLPlanError("window with GROUP BY")
        windows = {
            id(item): _ref_window(item, rows) for item in items if isinstance(item, WindowAggregate)
        }
        output = [
            {
                item.output_name: windows[id(item)][i] if id(item) in windows else row[item.name]
                for item in items
            }
            for i, row in enumerate(rows)
        ]
    elif statement.group_by or statement.has_aggregates:
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
                elif item.column is None and item.function != "count":
                    raise SQLPlanError("requires a column")
                elif item.column is None:
                    record[item.output_name] = len(members)
                else:
                    record[item.output_name] = _ref_fold(
                        item.function, item.distinct, [row[item.column] for row in members]
                    )
            output.append(record)
    elif statement.select_all:
        output = rows
    else:
        output = [{item.output_name: row[item.name] for item in items} for row in rows]

    if statement.select_all:
        types = {column.name: column.type for column in source.schema.columns}
    else:
        types = {name: source.schema.column(name).type for name in statement.group_by}
        for item in items:
            types.setdefault(item.output_name, _ref_type(item, source))
    if statement.order_by is not None:
        if statement.order_by not in types:
            raise SQLPlanError("ORDER BY column not in result")
        output.sort(
            key=lambda row: (row[statement.order_by] is None, row[statement.order_by]),
            reverse=statement.order_desc,
        )
    if statement.limit is not None:
        output = output[: statement.limit]
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
#: Per column: a literal of the column's type, and one of a type it cannot be ordered against.
_ORACLE_LITERALS = {
    "day": (st.integers(-1, 4).map(str), st.just("'x'")),
    "k": (st.sampled_from(["'a'", "'b'", "'zz'"]), st.just("1")),
    "g": (st.integers(-1, 4).map(str), st.just("'x'")),
    "t": (st.integers(-2, 14).map(str), st.just("'x'")),
    "x": (st.sampled_from(["0.1", "0.35", "2", "-1.5"]), st.just("'x'")),
    "b": (st.sampled_from(["true", "false"]), st.just("'x'")),
}
_ORACLE_AGGREGATES = [
    "COUNT(*)", "COUNT(x)", "COUNT(k)", "COUNT(DISTINCT k)", "COUNT(DISTINCT g)", "SUM(x)",
    "SUM(g)", "SUM(b)", "AVG(x)", "AVG(g)", "MIN(x)", "MAX(x)", "MIN(k)", "MAX(t)", "MAX(b)",
]


def _nullable(strategy, null_weight=4):
    return st.one_of(*([strategy] * null_weight), st.none())


@st.composite
def _oracle_rows(draw):
    """Up to 30 rows with NULLs in every column but the partition key."""
    times = st.integers(0, 12)  # few instants: peers (ties in ORDER BY) are common
    if draw(st.integers(0, 7)) == 0:
        # A NULL window ORDER BY value is an error both sides must raise:
        # only one table in eight carries them.
        times = _nullable(times)
    row = st.fixed_dictionaries(
        {
            "day": st.integers(0, 3),
            "k": _nullable(st.sampled_from(["a", "b", "c"])),
            "g": _nullable(st.integers(0, 3)),
            "t": times,
            # Tenths and thirds: the order of a float fold shows in the last bit.
            "x": _nullable(st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 2.5, -0.7, 1e16, -1e16])),
            "b": _nullable(st.booleans()),
        }
    )
    size = draw(st.integers(0, 30))  # drawn first: uniform sizes, not mostly tiny tables
    return draw(st.lists(row, min_size=size, max_size=size))


def _draw_where(draw, depth=0):
    kinds = ["cmp"] * 4 + ["in", "and", "or", "not"] if depth < 2 else ["cmp", "in"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("and", "or"):
        operands = [_draw_where(draw, depth + 1) for _ in range(draw(st.integers(2, 3)))]
        return "(" + f" {kind.upper()} ".join(operands) + ")"
    if kind == "not":
        return f"NOT {_draw_where(draw, depth + 1)}"
    column = draw(st.sampled_from(sorted(_ORACLE_SCHEMA)))
    typed, mistyped = _ORACLE_LITERALS[column]
    literal = st.one_of(*([typed] * 10), mistyped, st.just("NULL"))
    if kind == "in":
        return f"{column} IN ({', '.join(draw(st.lists(literal, min_size=1, max_size=3)))})"
    operator_ = draw(st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="]))
    return f"{column} {operator_} {draw(literal)}"


@st.composite
def _oracle_statements(draw):
    shape = draw(st.sampled_from(["window", "window", "group", "project"]))
    outputs = []
    if shape == "window":
        clauses = [
            f"OVER (PARTITION BY {draw(st.sampled_from(['k', 'g', 'day']))} ORDER BY "
            f"{draw(st.sampled_from(['t'] * 6 + ['day', 'x']))} RANGE BETWEEN "
            f"{draw(st.sampled_from(['0', '2', '5.5', '1000']))} PRECEDING AND CURRENT ROW)"
            for _ in range(draw(st.sampled_from([1, 1, 2])))
        ]
        plain = draw(st.lists(st.sampled_from(sorted(_ORACLE_SCHEMA)), max_size=2))
        select = [f"{column} AS p{i}" for i, column in enumerate(plain)]
        for i in range(draw(st.integers(1, 4))):
            call, over = draw(st.sampled_from(_ORACLE_AGGREGATES)), draw(st.sampled_from(clauses))
            select.append(f"{call} {over} AS w{i}")
        outputs = [part.rsplit(" AS ", 1)[1] for part in select]
    elif shape == "group":
        keys = draw(st.lists(st.sampled_from(["k", "g", "b", "day"]), max_size=2, unique=True))
        select = list(keys) + [
            f"{draw(st.sampled_from(_ORACLE_AGGREGATES))} AS a{i}"
            for i in range(draw(st.integers(1, 3)))
        ]
        outputs = list(keys) + [part.rsplit(" AS ", 1)[1] for part in select[len(keys):]]
    elif draw(st.booleans()):
        select, outputs = ["*"], sorted(_ORACLE_SCHEMA)
    else:
        columns = st.sampled_from(sorted(_ORACLE_SCHEMA))
        outputs = draw(st.lists(columns, min_size=1, max_size=4, unique=True))
        select = list(outputs)
    sql = f"SELECT {', '.join(select)} FROM facts"
    if draw(st.integers(0, 3)):
        sql += f" WHERE {_draw_where(draw)}"
    if shape == "group" and keys:
        sql += f" GROUP BY {', '.join(keys)}"
    if draw(st.booleans()):
        direction = draw(st.sampled_from(["", " ASC", " DESC"]))
        sql += f" ORDER BY {draw(st.sampled_from(outputs))}{direction}"
    if draw(st.integers(0, 2)) == 0:
        sql += f" LIMIT {draw(st.integers(0, 6))}"
    return sql


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - the *class* is what is compared
        return type(exc)


def _executor_matches_reference(data):
    rows = data.draw(_oracle_rows(), label="rows")
    partitioned = data.draw(st.booleans(), label="partitioned")
    prune = data.draw(st.booleans(), label="prune")
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
        result = executor.execute(sql, prune_partitions=prune)
        types = [(column.name, column.type) for column in result.schema.columns]
        return result.to_records(), types, executor.last_stats

    got = _outcome(run_executor)
    expected = _outcome(lambda: reference_execute(catalog, sql, prune))
    if isinstance(expected, type) or isinstance(got, type):
        assert got is expected, (sql, got, expected)
        return
    assert repr(got[0]) == repr(expected[0]), sql
    assert got[1] == expected[1], sql
    assert dataclasses.asdict(got[2]) == dataclasses.asdict(expected[2]), sql
    if partitioned:
        # The lazily built zone maps are the per-value fold of their partition.
        for key in table.partition_keys():
            members = [table.row(index) for index in table.partition_indices(key)]
            for name, zone in table.zone_map(key).columns.items():
                present = [row[name] for row in members if row[name] is not None]
                assert zone.bounds == ((min(present), max(present)) if present else None)
                nulls = len(members) - len(present)
                assert (zone.null_count, zone.value_count) == (nulls, len(present))


class TestColumnarExecutorExamples:
    """Named cases beside the differential property."""

    @staticmethod
    def _executor(rows, schema):
        catalog = TableCatalog()
        catalog.register(table_from_records("t", rows, schema=Schema.from_dict(schema)))
        return SQLExecutor(catalog)

    def test_later_and_operand_sees_only_the_survivors(self):
        """``b < 'x'`` on a bigint column is a type error — raised only when a
        row reaches it, exactly as a per-row short circuit would."""
        schema = {"a": "bigint", "b": "bigint"}
        sql = "SELECT a FROM t WHERE a = 1 AND b < 'x'"
        none_survive = self._executor([{"a": 0, "b": 5}, {"a": None, "b": 5}], schema)
        assert none_survive.execute(sql).num_rows == 0
        null_survives = self._executor([{"a": 1, "b": None}], schema)
        assert null_survives.execute(sql).num_rows == 0  # NULL b: no comparison made
        with pytest.raises(SQLPlanError):
            self._executor([{"a": 0, "b": 5}, {"a": 1, "b": 5}], schema).execute(sql)
        # OR evaluates a later operand only on the rows no earlier one accepted.
        either = "SELECT a FROM t WHERE a = 1 OR b < 'x'"
        assert self._executor([{"a": 1, "b": 5}], schema).execute(either).column("a") == [1]
        with pytest.raises(SQLPlanError):
            self._executor([{"a": 1, "b": 5}, {"a": 0, "b": 5}], schema).execute(either)

    def test_one_layout_per_over_clause(self, monkeypatch):
        """Five OVER items over one clause bucket and sort the rows once; a
        second clause in the same statement gets its own layout."""
        calls = []
        layout = executor_module._window_layout

        def counting(columns, indices, partition_by, order_by):
            calls.append((partition_by, order_by))
            return layout(columns, indices, partition_by, order_by)

        monkeypatch.setattr(executor_module, "_window_layout", counting)
        rows = [{"account": f"a{i % 3}", "ts": i, "amount": i / 4} for i in range(12)]
        executor = SQLExecutor(_window_client(rows).catalog)
        over = "OVER (PARTITION BY account ORDER BY ts RANGE BETWEEN 5 PRECEDING AND CURRENT ROW)"
        five = ", ".join(
            f"{call} {over} AS w{i}"
            for i, call in enumerate(
                ["COUNT(*)", "SUM(amount)", "MAX(amount)", "AVG(amount)", "COUNT(DISTINCT amount)"]
            )
        )
        result = executor.execute(f"SELECT {five} FROM events")
        assert calls == [("account", "ts")] and result.num_rows == 12
        other = "OVER (PARTITION BY ts ORDER BY amount RANGE BETWEEN 1 PRECEDING AND CURRENT ROW)"
        executor.execute(f"SELECT {five}, COUNT(*) {other} AS v FROM events")
        assert calls[1:] == [("account", "ts"), ("ts", "amount")]

    def test_peers_enter_the_frame_in_input_order(self):
        """Ties in ORDER BY keep input position, and the running sum shows it:
        (1e16 + 0.3) - 1e16 is 0.0, (1e16 - 1e16) + 0.3 is 0.3."""
        rows = [
            {"account": "a", "ts": 1, "amount": 1e16},
            {"account": "a", "ts": 2, "amount": 0.3},
            {"account": "a", "ts": 2, "amount": -1e16},
        ]
        result = SQLExecutor(_window_client(rows).catalog).execute(
            "SELECT SUM(amount) OVER (PARTITION BY account ORDER BY ts RANGE BETWEEN 10 "
            "PRECEDING AND CURRENT ROW) AS w FROM events"
        )
        assert result.column("w") == [1e16, 0.0, 0.0]

    def test_zero_width_frame_is_empty(self):
        """``RANGE BETWEEN 0 PRECEDING`` is the empty frame ``(t, t]``; the sweep
        used to run its eviction pointer off the end of the partition."""
        rows = [{"account": "a", "ts": ts, "amount": 1.5} for ts in (1, 1, 2)]
        result = SQLExecutor(_window_client(rows).catalog).execute(
            "SELECT COUNT(*) OVER (PARTITION BY account ORDER BY ts RANGE BETWEEN 0 "
            "PRECEDING AND CURRENT ROW) AS n, SUM(amount) OVER (PARTITION BY account "
            "ORDER BY ts RANGE BETWEEN 0 PRECEDING AND CURRENT ROW) AS s FROM events"
        )
        assert result.to_records() == [{"n": 0, "s": None}] * 3

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
        assert executor.execute(sql).to_records() == [{"day": 1, "ts": 150}]
        assert executor.last_stats.partitions_skipped == 1
        stale = table.zone_map(0)
        assert stale is table.zone_map(0) and stale.zone("ts").bounds == (10, 20)
        table.append({"day": 0, "ts": 120})
        assert table.zone_map(0) is not stale and table.zone_map(0).zone("ts").bounds == (10, 120)
        assert table.zone_map(0).row_count == 3
        assert executor.execute(sql).to_records() == [{"day": 0, "ts": 120}, {"day": 1, "ts": 150}]
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
