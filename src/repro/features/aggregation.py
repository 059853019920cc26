"""Windowed transaction-aggregation features.

Transaction aggregation is one of the classical strategies the related-work
section discusses (Whitrow et al., Jha et al.): summarise each account's
recent history into per-user aggregates and attach them to every new
transaction.  TitAnt supersedes this with node embeddings, but we keep the
aggregation features as (a) an ablation baseline and (b) the source of the
per-user rows in the ``transaction_aggregates`` Ali-HBase column family that
the Model Server reads online.

This module holds the *batch* path (fit a look-back window once, apply it to
a scoring batch) plus the pieces shared with the *streaming* path in
:mod:`repro.features.streaming`:

* :func:`~repro.datagen.schema.transaction_event_time` — the canonical
  event-time mapping (re-exported here), and :func:`batch_as_of_time`, the
  instant a day's T+1 snapshot is taken at,
* :class:`AggregationWindowSpec` — the serialisable window definition a
  :class:`~repro.features.plan.FeaturePlan` exports alongside a model,
* :func:`aggregate_cells`, the one owner of an account's aggregate values, and
  :func:`aggregation_vector` over rows (:func:`splice_aggregate_cells` over
  cells), the one way two accounts become the feature vector.

Window semantics are event-time and left-open/right-closed: an event at time
``t`` is inside the window ending at ``as_of`` iff ``as_of - W < t <= as_of``.
The legacy day-based API (``fit(..., as_of_day=d)``) maps onto the same rule
with ``as_of = batch_as_of_time(d)`` and is bit-compatible with the
historical ``start_day <= txn.day < as_of_day`` filter.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Container, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.schema import (
    SECONDS_PER_DAY,
    Transaction,
    transaction_event_time,
)
from repro.contracts import POSITIVE, check_fields, checked, optional
from repro.exceptions import FeatureError

if TYPE_CHECKING:  # the SQL engine imports this module
    from repro.features.sql_backfill import BackfillStats

AGGREGATION_FEATURE_NAMES: List[str] = [
    "agg_payer_out_count",
    "agg_payer_out_amount_sum",
    "agg_payer_out_amount_mean",
    "agg_payer_out_amount_max",
    "agg_payer_distinct_payees",
    "agg_payer_night_fraction",
    "agg_payee_in_count",
    "agg_payee_in_amount_sum",
    "agg_payee_in_amount_mean",
    "agg_payee_in_amount_max",
    "agg_payee_distinct_payers",
    "agg_payee_new_payer_fraction",
]

#: Scalar qualifiers of a per-user aggregate row (HBase ``transaction_aggregates``
#: family).  The row additionally carries a ``payers`` set cell (the in-window
#: payer ids of the account) so the serving path can compute
#: ``agg_payee_new_payer_fraction`` without a second lookup.
AGGREGATE_ROW_FIELDS: List[str] = [
    "out_count",
    "out_amount_sum",
    "out_amount_mean",
    "out_amount_max",
    "distinct_payees",
    "night_fraction",
    "in_count",
    "in_amount_sum",
    "in_amount_mean",
    "in_amount_max",
    "distinct_payers",
]


def batch_as_of_time(day: int) -> int:
    """The instant a T+1 snapshot for ``day`` is taken at: the last second of
    the day before, so ``start_day <= txn.day < day`` is the window's content."""
    return day * SECONDS_PER_DAY - 1


def is_night_hour(hour: int) -> bool:
    """The night-activity definition shared by batch and streaming paths."""
    return hour >= 22 or hour < 6


#: One account's :data:`AGGREGATE_ROW_FIELDS` values, in that order.
AggregateCells = Tuple[float, ...]


def aggregate_cells(
    *,
    out_count: int,
    out_amount_sum: float,
    out_amount_max: float,
    out_night_count: int,
    num_payees: int,
    in_count: int,
    in_amount_sum: float,
    in_amount_max: float,
    num_payers: int,
) -> AggregateCells:
    """The canonical per-user aggregate cells (:data:`AGGREGATE_ROW_FIELDS` order).

    Both the batch and the streaming engines compute their rows through this
    one function, so the derived-field conventions (zero-count means and
    night fractions are 0.0) cannot drift between the two paths.
    """
    return (
        float(out_count),
        out_amount_sum,
        out_amount_sum / out_count if out_count else 0.0,
        out_amount_max,
        float(num_payees),
        out_night_count / out_count if out_count else 0.0,
        float(in_count),
        in_amount_sum,
        in_amount_sum / in_count if in_count else 0.0,
        in_amount_max,
        float(num_payers),
    )


def build_aggregate_row(**fields: Any) -> Dict[str, float]:
    """The canonical per-user row: :func:`aggregate_cells` keyed by field."""
    return dict(zip(AGGREGATE_ROW_FIELDS, aggregate_cells(**fields)))


def aggregation_vector(
    payer_row: Mapping[str, Any],
    payee_row: Mapping[str, Any],
    payer_id: str,
) -> List[float]:
    """The 12-column :data:`AGGREGATION_FEATURE_NAMES` vector for one transaction.

    ``payer_row`` supplies the out-going side, ``payee_row`` the in-coming side;
    missing fields degrade to the cold-account zeros, and an unseen payee makes
    the payer a "new payer" (fraction 1.0) exactly as the batch path does.
    Every producer of aggregation features (the plan executor over batch,
    SQL-backfilled or HBase rows; the streaming engine over its cells, with
    :func:`splice_aggregate_cells`) goes through it so the paths cannot drift.
    """
    known_payers = payee_row.get("payers", ())
    return [
        float(payer_row.get("out_count", 0.0)),
        float(payer_row.get("out_amount_sum", 0.0)),
        float(payer_row.get("out_amount_mean", 0.0)),
        float(payer_row.get("out_amount_max", 0.0)),
        float(payer_row.get("distinct_payees", 0.0)),
        float(payer_row.get("night_fraction", 0.0)),
        float(payee_row.get("in_count", 0.0)),
        float(payee_row.get("in_amount_sum", 0.0)),
        float(payee_row.get("in_amount_mean", 0.0)),
        float(payee_row.get("in_amount_max", 0.0)),
        float(payee_row.get("distinct_payers", 0.0)),
        0.0 if payer_id in known_payers else 1.0,
    ]


def splice_aggregate_cells(
    payer_cells: AggregateCells,
    payee_cells: AggregateCells,
    payee_payers: Container[str],
    payer_id: str,
) -> List[float]:
    """:func:`aggregation_vector` over cells: the payer's out-cells, the
    payee's in-cells and the new-payer flag (``payee_payers``: any container)."""
    return [*payer_cells[:6], *payee_cells[6:], 0.0 if payer_id in payee_payers else 1.0]


@dataclass(frozen=True)
class AggregationConfig:
    """Configuration of the aggregation look-back window.

    Exactly one of ``window_days`` / ``window_seconds`` may be set; with
    neither set the window defaults to 14 days.  ``window_seconds`` admits
    sub-day windows (e.g. ``3600`` for one hour), which the day-granular
    legacy field cannot express.
    """

    #: Length of the look-back window in days (legacy granularity).
    window_days: Optional[float] = checked(optional(POSITIVE), None)
    #: Length of the look-back window in seconds (takes any positive value).
    window_seconds: Optional[float] = checked(optional(POSITIVE), None)

    DEFAULT_WINDOW_DAYS = 14

    def __post_init__(self) -> None:
        check_fields(self, FeatureError)
        if self.window_days is not None and self.window_seconds is not None:
            raise FeatureError("set window_days or window_seconds, not both")

    @property
    def effective_window_seconds(self) -> float:
        """The configured window length, resolved to seconds."""
        if self.window_seconds is not None:
            return float(self.window_seconds)
        days = self.DEFAULT_WINDOW_DAYS if self.window_days is None else self.window_days
        return float(days) * SECONDS_PER_DAY


@dataclass(frozen=True)
class AggregationWindowSpec:
    """Serialisable window definition shared by offline and online worlds.

    The trainer exports this spec inside the :class:`FeaturePlan`; the online
    side configures its :class:`~repro.features.streaming.SlidingWindowAggregator`
    from the very same object, so there is exactly one windowing definition.
    """

    window_seconds: float = checked(POSITIVE, float(14 * SECONDS_PER_DAY))

    def __post_init__(self) -> None:
        check_fields(self, FeatureError)

    @classmethod
    def from_config(cls, config: AggregationConfig) -> "AggregationWindowSpec":
        return cls(window_seconds=config.effective_window_seconds)

    def to_dict(self) -> Dict[str, float]:
        return {"window_seconds": float(self.window_seconds)}


class PointInTimeAggregateProvider(abc.ABC):
    """Explicit capability marker: providers that compute *per-transaction*
    point-in-time aggregation blocks (each row as of the instant before its
    transaction) instead of serving per-user rows.  The plan executor
    dispatches on this base class, so a provider opts into block semantics
    deliberately — a coincidental ``aggregation_block`` attribute on a
    row-serving provider cannot silently change feature values.
    """

    @abc.abstractmethod
    def aggregation_block(self, transactions: Sequence[Transaction]) -> np.ndarray:
        """(len(transactions), 12) point-in-time aggregation feature block."""


@dataclass
class _UserAggregate:
    out_count: int = 0
    out_amount_sum: float = 0.0
    out_amount_max: float = 0.0
    out_night_count: int = 0
    in_count: int = 0
    in_amount_sum: float = 0.0
    in_amount_max: float = 0.0

    def __post_init__(self) -> None:
        self.payees: set[str] = set()
        self.payers: set[str] = set()


class TransactionAggregator:
    """Computes per-user aggregates from a history window and applies them."""

    def __init__(self, config: AggregationConfig | None = None):
        self.config = config or AggregationConfig()
        self._aggregates: Dict[str, _UserAggregate] = {}
        self._fitted = False
        #: Scan accounting of the last ``fit(engine="sql")`` (None for the loop).
        self.last_backfill_stats: Optional[BackfillStats] = None

    # ------------------------------------------------------------------
    @property
    def feature_names(self) -> List[str]:
        return list(AGGREGATION_FEATURE_NAMES)

    @property
    def window_spec(self) -> AggregationWindowSpec:
        return AggregationWindowSpec.from_config(self.config)

    def fit(
        self,
        history: Sequence[Transaction],
        *,
        as_of_day: Optional[int] = None,
        as_of_time: Optional[float] = None,
        engine: str = "loop",
    ) -> "TransactionAggregator":
        """Aggregate the window ending at ``as_of_day`` (exclusive) or
        ``as_of_time`` (inclusive, seconds).

        The window is event-time and left-open/right-closed: a transaction at
        time ``t`` counts iff ``as_of_time - W < t <= as_of_time``.  The
        day-based form ``as_of_day=d`` is shorthand for
        ``as_of_time = batch_as_of_time(d)`` and reproduces the historical
        ``start_day <= txn.day < as_of_day`` behaviour exactly.

        ``engine="loop"`` is the in-process fold in history order;
        ``engine="sql"`` pushes it through the MaxCompute substrate as
        per-account GROUP BY queries over a day-partitioned staging table
        (:class:`~repro.features.sql_backfill.SQLBackfillEngine`), leaving
        its scan accounting in :attr:`last_backfill_stats`.  Its sums fold
        in (day partition, staged position) order, so both engines produce
        the same state, bit for bit, for a history in day order.
        """
        if as_of_day is not None and as_of_time is not None:
            raise FeatureError("pass as_of_day or as_of_time, not both")
        if as_of_time is None:
            if as_of_day is None:
                as_of_day = max((t.day for t in history), default=0) + 1
            as_of_time = batch_as_of_time(as_of_day)
        if engine == "sql":
            # Imported here: the SQL engine lives on the MaxCompute side and
            # itself imports this module's aggregate state.
            from repro.features.sql_backfill import SQLBackfillEngine

            sql_engine = SQLBackfillEngine(self.config)
            self._aggregates = sql_engine.backfill(history, as_of_time=as_of_time)
            self.last_backfill_stats = sql_engine.last_stats
            self._fitted = True
            return self
        if engine != "loop":
            raise FeatureError(f"unknown backfill engine {engine!r}")
        window_start = as_of_time - self.config.effective_window_seconds
        self._aggregates = {}
        self.last_backfill_stats = None
        for txn in history:
            event_time = transaction_event_time(txn)
            if not window_start < event_time <= as_of_time:
                continue
            payer = self._aggregates.setdefault(txn.payer_id, _UserAggregate())
            payee = self._aggregates.setdefault(txn.payee_id, _UserAggregate())
            payer.out_count += 1
            payer.out_amount_sum += txn.amount
            payer.out_amount_max = max(payer.out_amount_max, txn.amount)
            payer.payees.add(txn.payee_id)
            if is_night_hour(txn.hour):
                payer.out_night_count += 1
            payee.in_count += 1
            payee.in_amount_sum += txn.amount
            payee.in_amount_max = max(payee.in_amount_max, txn.amount)
            payee.payers.add(txn.payer_id)
        self._fitted = True
        return self

    def account_ids(self) -> List[str]:
        """Accounts with at least one in-window transaction (sorted)."""
        return sorted(self._aggregates)

    def user_row(self, user_id: str) -> Dict[str, float]:
        """Per-user aggregate row (what the pipeline uploads to Ali-HBase)."""
        if not self._fitted:
            # Serving all-zero rows for an unfitted window would silently
            # train models on cold aggregates — the exact train/serve skew
            # this layer exists to prevent.
            raise FeatureError("TransactionAggregator must be fitted before user_row")
        aggregate = self._aggregates.get(user_id, _UserAggregate())
        return build_aggregate_row(
            out_count=aggregate.out_count,
            out_amount_sum=aggregate.out_amount_sum,
            out_amount_max=aggregate.out_amount_max,
            out_night_count=aggregate.out_night_count,
            num_payees=len(aggregate.payees),
            in_count=aggregate.in_count,
            in_amount_sum=aggregate.in_amount_sum,
            in_amount_max=aggregate.in_amount_max,
            num_payers=len(aggregate.payers),
        )

    def hbase_row(self, user_id: str) -> Dict[str, object]:
        """The serialised aggregate row: scalar fields plus the ``payers`` cell
        (a frozenset — order-free equality and O(1) membership for the
        new-payer check, even for hot merchants with huge payer sets)."""
        row: Dict[str, object] = dict(self.user_row(user_id))
        aggregate = self._aggregates.get(user_id, _UserAggregate())
        row["payers"] = frozenset(aggregate.payers)
        return row

    def snapshot_rows(self) -> Dict[str, Dict[str, object]]:
        """``user_id -> hbase_row`` for every account with in-window activity."""
        return {user_id: self.hbase_row(user_id) for user_id in self.account_ids()}
