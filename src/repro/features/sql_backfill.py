"""SQL-native aggregation backfill over partitioned MaxCompute tables.

The paper's production pipeline expresses the T+1 aggregate backfill as
windowed SQL over day-partitioned transaction tables; the pure-Python loop in
:meth:`~repro.features.aggregation.TransactionAggregator.fit` was the last
seed-era stand-in.  :class:`SQLBackfillEngine` closes that gap: it stages the
history into a :class:`~repro.maxcompute.partitioned.PartitionedTable` keyed
by day, runs generated ``... OVER (PARTITION BY account ORDER BY event_time
RANGE BETWEEN <W> PRECEDING AND CURRENT ROW)`` queries for the payer and
payee sides plus one GROUP BY for the distinct payer/payee pair sets, and
assembles the exact per-user state the loop produces.  Zone maps let the
executor skip every partition outside ``(as_of - W, as_of]``, and the scan
accounting lands in :class:`BackfillStats`.

Why the results are *bit-identical* to the loop: the WHERE clause restricts
the staged rows to ``(as_of - W, as_of]``, so for every row at time ``t`` the
frame start ``t - W`` lies strictly before every staged time — the frame is
always the full partition prefix, no value ever leaves the window, and the
running sum is the same pure left fold of additions the loop performs.  The
fold *order* is ascending ``(event_time, input position)``; the loop folds in
raw history order, so float sums agree to the last bit whenever each
account's history is event-time-ordered (as the datagen streams are) or the
amounts are dyadic (the parity-harness convention).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    """Runs the aggregation backfill as windowed SQL on the MaxCompute substrate.

    Produces the same ``account -> _UserAggregate`` state as the Python loop
    in :class:`~repro.features.aggregation.TransactionAggregator` (see the
    module docstring for the bit-identity argument), while exercising the
    real scan path: partitioned staging table, zone-map pruning, window
    evaluation.  :attr:`last_stats` reports the scan accounting of the most
    recent :meth:`backfill`.
    """

    STAGING_TABLE = "txn_backfill_staging"

    def __init__(
        self,
        config: Optional[AggregationConfig] = None,
        *,
        prune_partitions: bool = True,
    ):
        self.config = config or AggregationConfig()
        self.config.validate()
        self.client = MaxComputeClient()
        self.prune_partitions = prune_partitions
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

        payer_table = self._run(self._window_sql("payer_id", "payee_id", where), stats)
        payee_table = self._run(self._window_sql("payee_id", "payer_id", where), stats)
        pair_table = self._run(
            f"SELECT payer_id, payee_id, COUNT(*) AS n "
            f"FROM {self.STAGING_TABLE} WHERE {where} GROUP BY payer_id, payee_id",
            stats,
        )
        self._finalize_stats(stats)

        payer_last = self._last_row_per_account("payer_id", payer_table)
        counts, sums = payer_table.column("out_count"), payer_table.column("out_amount_sum")
        maxima, nights = payer_table.column("out_amount_max"), payer_table.column("out_night_count")
        for account, row in payer_last:
            aggregate = aggregates[account]
            aggregate.out_count = int(counts[row])
            aggregate.out_amount_sum = sums[row]
            # The loop's max-fold starts from the dataclass default 0.0.
            aggregate.out_amount_max = max(0.0, maxima[row])
            aggregate.out_night_count = int(nights[row])
        payee_last = self._last_row_per_account("payee_id", payee_table)
        counts, sums = payee_table.column("in_count"), payee_table.column("in_amount_sum")
        maxima = payee_table.column("in_amount_max")
        for account, row in payee_last:
            aggregate = aggregates[account]
            aggregate.in_count = int(counts[row])
            aggregate.in_amount_sum = sums[row]
            aggregate.in_amount_max = max(0.0, maxima[row])

        for payer, payee in zip(pair_table.column("payer_id"), pair_table.column("payee_id")):
            aggregates[payer].payees.add(payee)
            aggregates[payee].payers.add(payer)

        distinct_payees = payer_table.column("distinct_payees")
        self._cross_check_distinct_counts(aggregates, "payees", payer_last, distinct_payees)
        distinct_payers = payee_table.column("distinct_payers")
        self._cross_check_distinct_counts(aggregates, "payers", payee_last, distinct_payers)
        self.last_stats = stats
        return dict(aggregates)

    # ------------------------------------------------------------------
    def _window_sql(self, side: str, counter_side: str, where: str) -> str:
        """The generated per-side window query (payer or payee view)."""
        prefix = "out" if side == "payer_id" else "in"
        width = _sql_number(self.config.effective_window_seconds)
        over = (
            f"OVER (PARTITION BY {side} ORDER BY event_time "
            f"RANGE BETWEEN {width} PRECEDING AND CURRENT ROW)"
        )
        night = (
            f"SUM(night_flag) {over} AS out_night_count, " if prefix == "out" else ""
        )
        distinct_name = "distinct_payees" if prefix == "out" else "distinct_payers"
        return (
            f"SELECT {side}, event_time, "
            f"COUNT(amount) {over} AS {prefix}_count, "
            f"SUM(amount) {over} AS {prefix}_amount_sum, "
            f"MAX(amount) {over} AS {prefix}_amount_max, "
            f"{night}"
            f"COUNT(DISTINCT {counter_side}) {over} AS {distinct_name} "
            f"FROM {self.STAGING_TABLE} WHERE {where}"
        )

    def _run(self, sql: str, stats: BackfillStats) -> Table:
        result = self.client.submit_sql(sql, prune_partitions=self.prune_partitions)
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
    def _last_row_per_account(key: str, table: Table) -> List[Tuple[str, int]]:
        """Each account's final window row (its index), in sorted account order.

        Every staged row's frame start precedes every staged time (WHERE
        already clipped to the window), so the last row of each partition
        carries the aggregate over the account's entire in-window history.
        """
        times = table.column("event_time")
        last: Dict[str, int] = {}
        for row, account in enumerate(table.column(key)):
            current = last.get(account)
            if current is None or times[row] >= times[current]:
                last[account] = row
        return sorted(last.items())

    @staticmethod
    def _cross_check_distinct_counts(
        aggregates: Dict[str, _UserAggregate],
        counterparties: str,
        last_rows: List[Tuple[str, int]],
        distinct: List[int],
    ) -> None:
        """COUNT(DISTINCT ...) from the window path must equal the pair sets.

        The two are computed by independent query shapes (sliding multiset vs
        GROUP BY); a mismatch means an engine bug, and silently publishing
        either number would poison the aggregate rows — fail loudly instead.
        """
        for account, row in last_rows:
            expected = len(getattr(aggregates[account], counterparties))
            if int(distinct[row]) != expected:
                raise FeatureError(
                    f"distinct-{counterparties} mismatch for {account!r}: window query "
                    f"says {distinct[row]}, pair sets say {expected}"
                )
