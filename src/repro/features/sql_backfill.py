"""SQL-native aggregation backfill over partitioned MaxCompute tables.

The paper's production pipeline expresses the T+1 aggregate backfill as
windowed SQL over day-partitioned transaction tables; the pure-Python loop in
:meth:`~repro.features.aggregation.TransactionAggregator.fit` was the last
seed-era stand-in.  :class:`SQLBackfillEngine` closes that gap: it stages the
history into a :class:`~repro.maxcompute.partitioned.PartitionedTable` keyed
by day, runs one generated ``GROUP BY payer_id`` and one ``GROUP BY
payee_id`` query (count, sum, max, night count and distinct counterparties
per account) plus one GROUP BY for the distinct payer/payee pair sets, and
assembles the exact per-user state the loop produces.  Zone maps let the
executor skip every partition outside ``(as_of - W, as_of]``, and the scan
accounting lands in :class:`BackfillStats`.

Why GROUP BY suffices: the WHERE clause already clips the staged rows to
``(as_of - W, as_of]``, so every account's window is the whole of its group.
A window query (``OVER (... RANGE BETWEEN W PRECEDING AND CURRENT ROW)``)
would compute a row per event only for the backfill to keep each account's
last one; the GROUP BY asks for exactly the row it keeps, and these three
statements are the whole of the SQL dialect the executor speaks.

Why the results are *bit-identical* to the loop: counts, maxima and distinct
sets do not depend on order, and each SUM is a pure left fold of additions,
to which the backfill adds the loop's starting ``0.0`` (so an all ``-0.0``
sum becomes ``+0.0``, as in the loop).  The fold *order* is the scan order,
``(day partition, staged position)``; the loop folds in raw history order,
so float sums agree to the last bit whenever each account's history is in
day order (as the event-ordered datagen streams are) or the amounts are
dyadic (the parity-harness convention).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.datagen.schema import Transaction
from repro.exceptions import FeatureError
from repro.features.aggregation import (
    SECONDS_PER_DAY,
    AggregationConfig,
    _UserAggregate,
    is_night_hour,
    transaction_event_time,
)
from repro.maxcompute import MaxComputeClient, Table
from repro.maxcompute.sql.executor import QueryStats

#: Schema of the staged transactions table the generated queries run over.
STAGING_SCHEMA: Dict[str, str] = {
    "payer_id": "string",
    "payee_id": "string",
    "event_time": "bigint",
    "amount": "double",
    "night_flag": "bigint",
    "day": "bigint",
}


def _sql_number(value: float) -> str:
    """Render a numeric literal the SQL tokenizer can read back exactly."""
    if float(value) == int(value):
        return str(int(value))
    text = repr(float(value))
    if "e" in text or "E" in text:
        raise FeatureError(f"numeric literal {value!r} does not round-trip through SQL")
    return text


@dataclass
class BackfillStats:
    """Scan accounting for one SQL backfill (three generated queries)."""

    #: Day partitions in the staging table.
    partitions_total: int = 0
    #: Partitions actually read per query (identical across the three).
    partitions_scanned: int = 0
    #: Partitions proven non-matching by their zone maps and skipped.
    partitions_skipped: int = 0
    #: Rows read across all queries (3x the per-query scan when not pruned).
    rows_scanned: int = 0
    #: Rows inside the window per query.
    rows_matched: int = 0
    #: Rows staged into the partitioned table (the full history).
    rows_staged: int = 0
    #: Raw per-query stats, in payer / payee / pairs order.
    per_query: List[QueryStats] = field(default_factory=list)


class SQLBackfillEngine:
    """Runs the aggregation backfill as SQL on the MaxCompute substrate.

    Produces the same ``account -> _UserAggregate`` state as the Python loop
    in :class:`~repro.features.aggregation.TransactionAggregator` (see the
    module docstring for the bit-identity argument), while exercising the
    real scan path: partitioned staging table, zone-map pruning, grouped
    aggregation.  :attr:`last_stats` reports the scan accounting of the most
    recent :meth:`backfill`.
    """

    STAGING_TABLE = "txn_backfill_staging"

    def __init__(self, config: Optional[AggregationConfig] = None):
        self.config = config or AggregationConfig()
        self.client = MaxComputeClient()
        #: Scan accounting of the most recent :meth:`backfill` call.
        self.last_stats: Optional[BackfillStats] = None

    # ------------------------------------------------------------------
    def stage_history(self, history: Sequence[Transaction]) -> int:
        """(Re)load the day-partitioned staging table; returns rows staged."""
        self.client.catalog.drop_table(self.STAGING_TABLE, if_exists=True)
        table = self.client.create_partitioned_table(
            self.STAGING_TABLE, dict(STAGING_SCHEMA), partition_key="day"
        )
        event_times = [transaction_event_time(txn) for txn in history]
        table.extend_columns(
            {
                "payer_id": [txn.payer_id for txn in history],
                "payee_id": [txn.payee_id for txn in history],
                "event_time": event_times,
                "amount": [txn.amount for txn in history],
                "night_flag": [1 if is_night_hour(txn.hour) else 0 for txn in history],
                "day": [event_time // SECONDS_PER_DAY for event_time in event_times],
            },
            len(history),
        )
        return table.num_rows

    def backfill(
        self, history: Sequence[Transaction], *, as_of_time: float
    ) -> Dict[str, _UserAggregate]:
        """Stage ``history`` and compute the window ending at ``as_of_time``.

        Returns the ``account -> _UserAggregate`` map; scan accounting is
        left in :attr:`last_stats`.
        """
        stats = BackfillStats(rows_staged=self.stage_history(history))
        window_seconds = self.config.effective_window_seconds
        window_start = as_of_time - window_seconds
        where = (
            f"event_time > {_sql_number(window_start)} "
            f"AND event_time <= {_sql_number(as_of_time)}"
        )
        # A miss builds its aggregate on first touch (no throwaway per lookup).
        aggregates: Dict[str, _UserAggregate] = defaultdict(_UserAggregate)

        payer_table = self._run(self._group_sql("payer_id", where), stats)
        payee_table = self._run(self._group_sql("payee_id", where), stats)
        pair_table = self._run(
            f"SELECT payer_id, payee_id, COUNT(*) AS n "
            f"FROM {self.STAGING_TABLE} WHERE {where} GROUP BY payer_id, payee_id",
            stats,
        )
        self._finalize_stats(stats)

        # The loop's sums and maxima start from 0.0, so these do too (only an
        # all -0.0 sum moves, to +0.0).
        out = ("payer_id", "out_count", "out_amount_sum", "out_amount_max", "out_night_count")
        for account, count, total, peak, nights in zip(*map(payer_table.column, out)):
            aggregate = aggregates[account]
            aggregate.out_count = int(count)
            aggregate.out_amount_sum = 0.0 + total
            aggregate.out_amount_max = max(0.0, peak)
            aggregate.out_night_count = int(nights)
        in_ = ("payee_id", "in_count", "in_amount_sum", "in_amount_max")
        for account, count, total, peak in zip(*map(payee_table.column, in_)):
            aggregate = aggregates[account]
            aggregate.in_count = int(count)
            aggregate.in_amount_sum = 0.0 + total
            aggregate.in_amount_max = max(0.0, peak)

        for payer, payee in zip(pair_table.column("payer_id"), pair_table.column("payee_id")):
            aggregates[payer].payees.add(payee)
            aggregates[payee].payers.add(payer)

        self._cross_check_distinct_counts(aggregates, "payees", payer_table, "payer_id")
        self._cross_check_distinct_counts(aggregates, "payers", payee_table, "payee_id")
        self.last_stats = stats
        return dict(aggregates)

    # ------------------------------------------------------------------
    def _group_sql(self, side: str, where: str) -> str:
        """The generated per-side GROUP BY: one row per payer (payee) with its
        count, sum, max, (payer) night count and distinct counterparties."""
        payer_side = side == "payer_id"
        prefix, counter = ("out", "payee_id") if payer_side else ("in", "payer_id")
        night = "SUM(night_flag) AS out_night_count, " if payer_side else ""
        return (
            f"SELECT {side}, COUNT(amount) AS {prefix}_count, "
            f"SUM(amount) AS {prefix}_amount_sum, MAX(amount) AS {prefix}_amount_max, "
            f"{night}COUNT(DISTINCT {counter}) AS distinct_counterparties "
            f"FROM {self.STAGING_TABLE} WHERE {where} GROUP BY {side}"
        )

    def _run(self, sql: str, stats: BackfillStats) -> Table:
        result = self.client.submit_sql(sql)
        if not result.succeeded or result.result_table is None:
            raise FeatureError(f"backfill query failed ({result.error}): {sql}")
        if result.query_stats is not None:
            stats.per_query.append(result.query_stats)
        return result.result_table

    def _finalize_stats(self, stats: BackfillStats) -> None:
        if not stats.per_query:
            return
        first = stats.per_query[0]
        stats.partitions_total = first.partitions_total
        stats.partitions_scanned = first.partitions_scanned
        stats.partitions_skipped = first.partitions_skipped
        stats.rows_matched = first.rows_matched
        stats.rows_scanned = sum(query.rows_scanned for query in stats.per_query)

    @staticmethod
    def _cross_check_distinct_counts(
        aggregates: Dict[str, _UserAggregate], counterparties: str, table: Table, key: str
    ) -> None:
        """COUNT(DISTINCT ...) per account must equal the pair sets.

        The two are computed by independent query shapes (one account's
        distinct counterparties vs the distinct pairs); a mismatch means an
        engine bug, and silently publishing either number would poison the
        aggregate rows — fail loudly instead.
        """
        for account, distinct in zip(table.column(key), table.column("distinct_counterparties")):
            expected = len(getattr(aggregates[account], counterparties))
            if int(distinct) != expected:
                raise FeatureError(
                    f"distinct-{counterparties} mismatch for {account!r}: per-account "
                    f"query says {distinct}, pair sets say {expected}"
                )
