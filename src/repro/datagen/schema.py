"""Data schema of the synthetic transaction world.

Two record types flow through the whole reproduction:

* :class:`UserProfile` — static per-user attributes (the paper's "user
  profile" source of basic features: age, gender, home city, account age ...).
* :class:`Transaction` — one transfer event (the paper's "transfer
  environment" source: amount, hour, channel, device, transfer city ...).

Both are plain dataclasses convertible to dictionaries so that they can be
loaded into the MaxCompute table substrate and processed by the SQL /
MapReduce layers exactly like the production logs in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import Dict, List, Optional, Protocol, Tuple


class Gender(str, Enum):
    """User gender as recorded in the profile store."""

    FEMALE = "F"
    MALE = "M"
    UNKNOWN = "U"


class TransactionChannel(str, Enum):
    """Channel through which a transfer was initiated."""

    APP = "app"
    WEB = "web"
    QR_CODE = "qr"
    BANK_CARD = "bank_card"


#: Relative fraud intensity per (synthetic) city tier.  The paper observes that
#: "the fraudulent rates in some specific locations are always higher than
#: other areas"; we encode that as three location tiers.
CITY_FRAUD_TIERS: Dict[str, float] = {
    "tier_low": 0.6,
    "tier_mid": 1.0,
    "tier_high": 2.4,
}

#: Number of distinct synthetic cities.  City ids are ``city_<k>``; the tier of
#: a city is a deterministic function of ``k`` (see :func:`city_tier`).
NUM_CITIES = 40


def city_name(index: int) -> str:
    """Return the canonical name of city ``index``."""
    return f"city_{index:03d}"


def city_tier(city: str) -> str:
    """Map a city name to its fraud-intensity tier.

    Cities are assigned tiers deterministically: one in five cities is
    "high-risk", two in five are "mid", the rest are "low".
    """
    try:
        index = int(city.rsplit("_", 1)[1])
    except (IndexError, ValueError):
        return "tier_mid"
    bucket = index % 5
    if bucket == 0:
        return "tier_high"
    if bucket in (1, 2):
        return "tier_mid"
    return "tier_low"


@dataclass
class UserProfile:
    """Static profile of one account (a node in the transaction network)."""

    user_id: str
    age: int
    gender: Gender
    home_city: str
    account_age_days: int
    kyc_level: int
    is_merchant: bool
    device_count: int
    community: int
    #: Hidden generative attributes (never exposed as features).
    is_fraudster: bool = False
    risk_propensity: float = 0.0
    activity_level: float = 1.0

    def to_row(self) -> Dict[str, object]:
        """Serialise the profile for the MaxCompute table substrate."""
        row = asdict(self)
        row["gender"] = self.gender.value
        return row

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "UserProfile":
        data = dict(row)
        data["gender"] = Gender(data["gender"])
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class Transaction:
    """One transfer from ``payer_id`` to ``payee_id``.

    ``is_fraud`` is the ground-truth label; ``label_available_day`` models the
    reporting delay of user fraud reports (labels are not observable in real
    time, which is why the paper trains offline and predicts online).

    ``fraud_typology`` tags campaign frauds with the generating typology
    (``"mule_chain"``, ``"smurfing"``, ...) so evaluation can report recall
    per fraud scenario; it is ``""`` for normal transfers, background fraud
    and worlds generated without a typology suite.  Ground truth only — the
    tag is never exposed as a feature.
    """

    transaction_id: str
    day: int
    hour: int
    payer_id: str
    payee_id: str
    amount: float
    channel: TransactionChannel
    trans_city: str
    device_id: str
    is_new_device: bool
    ip_risk_score: float
    payer_recent_txn_count: int
    payer_recent_amount: float
    payee_recent_inbound_count: int
    is_fraud: bool
    label_available_day: int
    fraud_typology: str = ""

    def to_row(self) -> Dict[str, object]:
        """Serialise the transaction for the MaxCompute table substrate."""
        row = asdict(self)
        row["channel"] = self.channel.value
        return row

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "Transaction":
        data = dict(row)
        data["channel"] = TransactionChannel(data["channel"])
        return cls(**data)  # type: ignore[arg-type]


class TransferFields(Protocol):
    """The fields of one transfer that feature assembly reads: a labelled
    :class:`Transaction` offline, the Model Server's unlabelled request online."""

    payer_id: str
    payee_id: str
    amount: float
    hour: int
    day: int
    channel: TransactionChannel
    trans_city: str
    is_new_device: bool
    ip_risk_score: float
    payer_recent_txn_count: int
    payer_recent_amount: float
    payee_recent_inbound_count: int


#: Column order used when materialising transactions as MaxCompute tables.
TRANSACTION_COLUMNS: List[str] = [
    "transaction_id",
    "day",
    "hour",
    "payer_id",
    "payee_id",
    "amount",
    "channel",
    "trans_city",
    "device_id",
    "is_new_device",
    "ip_risk_score",
    "payer_recent_txn_count",
    "payer_recent_amount",
    "payee_recent_inbound_count",
    "is_fraud",
    "label_available_day",
]

#: Column order for the user-profile table.
PROFILE_COLUMNS: List[str] = [
    "user_id",
    "age",
    "gender",
    "home_city",
    "account_age_days",
    "kyc_level",
    "is_merchant",
    "device_count",
    "community",
    "is_fraudster",
    "risk_propensity",
    "activity_level",
]


@dataclass
class WorldSummary:
    """Aggregate statistics of a generated world, used by tests and examples."""

    num_users: int
    num_fraudsters: int
    num_transactions: int
    num_fraud_transactions: int
    days: int
    fraud_rate: float
    repeat_fraudster_fraction: float
    extras: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable one-paragraph description."""
        return (
            f"{self.num_transactions} transactions over {self.days} days, "
            f"{self.num_users} users ({self.num_fraudsters} fraudsters), "
            f"fraud rate {self.fraud_rate:.3%}, "
            f"{self.repeat_fraudster_fraction:.0%} of fraudsters repeat"
        )


#: Seconds per simulated hour/day — the schema is hour-granular, so these are
#: the only time constants the data layer needs.
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


def transaction_event_time(txn: TransferFields) -> int:
    """Event time of a transaction in seconds (the schema is hour-granular)."""
    return txn.day * SECONDS_PER_DAY + txn.hour * SECONDS_PER_HOUR


def transaction_sort_key(txn: Transaction) -> Tuple[int, str]:
    """The canonical total order of a stream: event time, ties broken by
    transaction id.  Every path that orders transactions — stream generators,
    the online Alipay replay, engine seeding, the point-in-time training
    source — sorts with this one key, so replayed state can never depend on
    which path ordered the stream."""
    return (transaction_event_time(txn), txn.transaction_id)


def label_as_of(txn: Transaction, as_of_day: int) -> Transaction:
    """``txn`` as the training pipeline sees it on ``as_of_day``: a fraud report
    filed after that day has not arrived, so the copy it gets reads non-fraud."""
    if txn.is_fraud and txn.label_available_day > as_of_day:
        return Transaction(**{**txn.to_row(), "channel": txn.channel, "is_fraud": False})
    return txn


def transfer_value_error(amount: float, ip_risk_score: float) -> Optional[str]:
    """The schema's rule for a transfer's amount (finite and positive) and IP
    risk score (in [0, 1]) as an error string, or None; NaN fails both."""
    if not 0.0 < amount < math.inf:
        return f"amount must be a finite positive number, got {amount!r}"
    if not 0.0 <= ip_risk_score <= 1.0:
        return f"ip_risk_score must be in [0, 1], got {ip_risk_score!r}"
    return None


def validate_transaction(txn: Transaction) -> Optional[str]:
    """Return an error string if ``txn`` violates schema invariants, else None."""
    value_error = transfer_value_error(txn.amount, txn.ip_risk_score)
    if value_error is not None:
        return value_error
    if not 0 <= txn.hour <= 23:
        return f"hour must be in [0, 23], got {txn.hour}"
    if txn.payer_id == txn.payee_id:
        return "self transfers are not allowed"
    if txn.day < 0:
        return f"day must be non-negative, got {txn.day}"
    if txn.label_available_day < txn.day:
        return "labels cannot become available before the transaction day"
    return None
