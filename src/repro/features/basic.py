"""The 52 basic features.

The paper reports "a total of 52 basic features carefully extracted" from the
user profile and the transfer environment (Figure 1a names age, gender and
trans_city explicitly).  We reproduce a 52-column feature vector per
transaction drawn from the same sources:

* payer profile (age, gender one-hot, account age, KYC level, merchant flag,
  device count, home-city risk tier, home-city bucket),
* payee profile (the same ten attributes),
* transfer environment (amount, hour, channel one-hot, transfer-city risk,
  device novelty, IP risk, recent-activity counters),
* simple cross features (age gap, same-city flag, KYC gap, amount ratios).

Everything is observable at prediction time — the hidden generative attributes
(``is_fraudster``, ``risk_propensity``) are deliberately excluded.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.datagen.schema import (
    CITY_FRAUD_TIERS,
    Gender,
    Transaction,
    TransactionChannel,
    TransferFields,
    UserProfile,
    city_tier,
)
from repro.exceptions import FeatureError
from repro.features.aggregation import is_night_hour
from repro.features.matrix import FeatureMatrix

#: Names of the 52 basic features, in column order.
BASIC_FEATURE_NAMES: List[str] = [
    # --- payer profile (10) ---
    "payer_age",
    "payer_gender_f",
    "payer_gender_m",
    "payer_gender_u",
    "payer_account_age_days",
    "payer_kyc_level",
    "payer_is_merchant",
    "payer_device_count",
    "payer_home_city_risk",
    "payer_home_city_bucket",
    # --- payee profile (10) ---
    "payee_age",
    "payee_gender_f",
    "payee_gender_m",
    "payee_gender_u",
    "payee_account_age_days",
    "payee_kyc_level",
    "payee_is_merchant",
    "payee_device_count",
    "payee_home_city_risk",
    "payee_home_city_bucket",
    # --- transfer environment (22) ---
    "amount",
    "log_amount",
    "hour",
    "hour_sin",
    "hour_cos",
    "is_night",
    "is_business_hours",
    "channel_app",
    "channel_web",
    "channel_qr",
    "channel_bank_card",
    "trans_city_risk",
    "trans_city_bucket",
    "trans_city_is_payer_home",
    "is_new_device",
    "ip_risk_score",
    "payer_recent_txn_count",
    "payer_recent_amount",
    "log_payer_recent_amount",
    "payee_recent_inbound_count",
    "log_payee_recent_inbound",
    "amount_over_recent_amount",
    # --- cross features (10) ---
    "age_gap",
    "same_home_city",
    "kyc_gap",
    "both_low_kyc",
    "log_payer_account_age",
    "log_payee_account_age",
    "amount_per_payer_device",
    "is_round_amount",
    "is_high_amount",
    "day_of_week",
]

#: Basic features that are inherently categorical / already discrete; the
#: rule-based methods (ID3, C5.0) only discretise the remaining continuous ones.
CATEGORICAL_BASIC_FEATURES: List[str] = [
    "payer_gender_f",
    "payer_gender_m",
    "payer_gender_u",
    "payer_is_merchant",
    "payee_gender_f",
    "payee_gender_m",
    "payee_gender_u",
    "payee_is_merchant",
    "is_night",
    "is_business_hours",
    "channel_app",
    "channel_web",
    "channel_qr",
    "channel_bank_card",
    "trans_city_is_payer_home",
    "is_new_device",
    "same_home_city",
    "both_low_kyc",
    "is_round_amount",
    "is_high_amount",
]

_NUM_CITY_BUCKETS = 10
_HIGH_AMOUNT_THRESHOLD = 5000.0

#: One account as the row builder reads it: its ten profile cells in
#: ``BASIC_FEATURE_NAMES[:10]`` order, and its home city.
ProfileCells = Tuple[Tuple[float, ...], str]

#: The cold-account default: the one profile an account without a stored one
#: is scored with, offline (absent from the profile dict) and online (absent
#: cells of an HBase row, as production serves a brand-new account).
DEFAULT_PROFILE = UserProfile(
    user_id="__default__",
    age=35,
    gender=Gender.UNKNOWN,
    home_city="city_000",
    account_age_days=365,
    kyc_level=2,
    is_merchant=False,
    device_count=1,
    community=-1,
)


@lru_cache(maxsize=4096)
def _city_bucket(city: str) -> int:
    try:
        return int(city.rsplit("_", 1)[1]) % _NUM_CITY_BUCKETS
    except (IndexError, ValueError):
        return 0


@lru_cache(maxsize=4096)
def _city_risk(city: str) -> float:
    return CITY_FRAUD_TIERS[city_tier(city)]


def profile_cells(row: Mapping[str, Any]) -> ProfileCells:
    """The :data:`ProfileCells` of one account from its attributes by name: a
    basic-features HBase row online (once per stored snapshot, through
    ``Row.decoded``), ``vars(profile)`` of a
    :class:`UserProfile` offline.  Absent cells read :data:`DEFAULT_PROFILE`'s,
    so a cold account scores identically in both worlds."""
    default = DEFAULT_PROFILE
    gender = Gender(row.get("gender", default.gender))
    home_city = str(row.get("home_city", default.home_city))
    return (
        (
            float(row.get("age", default.age)),
            1.0 if gender is Gender.FEMALE else 0.0,
            1.0 if gender is Gender.MALE else 0.0,
            1.0 if gender is Gender.UNKNOWN else 0.0,
            float(row.get("account_age_days", default.account_age_days)),
            float(row.get("kyc_level", default.kyc_level)),
            1.0 if row.get("is_merchant", default.is_merchant) else 0.0,
            float(row.get("device_count", default.device_count)),
            _city_risk(home_city),
            float(_city_bucket(home_city)),
        ),
        home_city,
    )


def cells_for(
    profiles: Mapping[str, UserProfile], user_ids: Iterable[str]
) -> Dict[str, ProfileCells]:
    """:func:`profile_cells` of each of ``user_ids`` that has a profile."""
    return {
        user_id: profile_cells(vars(profiles[user_id]))
        for user_id in user_ids
        if user_id in profiles
    }


#: :func:`profile_cells` of an account with nothing stored, decoded once.
DEFAULT_CELLS = profile_cells({})
#: ``hour`` … ``is_business_hours`` of each hour of the day, with the scalar
#: ufunc calls of :meth:`BasicFeatureExtractor.extract_one`.
_HOUR_CELLS = {
    hour: (
        float(hour),
        float(np.sin(2.0 * np.pi * hour / 24.0)),
        float(np.cos(2.0 * np.pi * hour / 24.0)),
        1.0 if is_night_hour(hour) else 0.0,
        1.0 if 9 <= hour <= 18 else 0.0,
    )
    for hour in range(24)
}
#: The channel one-hot of each member, keyed by identity (the reference tests
#: ``is``): any other value, a member's plain string included, is all zeros.
_CHANNEL_CELLS = {
    id(member): tuple(1.0 if other is member else 0.0 for other in TransactionChannel)
    for member in TransactionChannel
}
_NO_CHANNEL = (0.0,) * len(TransactionChannel)
_LOG1P_COLUMNS = [
    index for index, name in enumerate(BASIC_FEATURE_NAMES) if name.startswith("log_")
]


@lru_cache(maxsize=4096)
def _trans_city_cells(city: str) -> Tuple[float, float]:
    return _city_risk(city), float(_city_bucket(city))


@lru_cache(maxsize=64)
def _log1p_mask(width: int) -> np.ndarray:
    """Which of a ``width``-column matrix's cells :func:`finish_basic_columns`
    takes ``log1p`` of; read-only, shared by every call of that width."""
    mask = np.zeros(width, dtype=bool)
    mask[_LOG1P_COLUMNS] = True
    mask.flags.writeable = False
    return mask


def basic_rows(
    transactions: Sequence[TransferFields],
    profiles: Mapping[str, ProfileCells],
) -> List[Tuple[float, ...]]:
    """The 52 basic cells of each of ``transactions`` — transactions or
    requests, read as they are — as one flat tuple per transaction in column
    order.

    The arithmetic is :meth:`BasicFeatureExtractor.extract_one`'s, with the
    hour cells (``sin`` / ``cos`` included), the channel one-hot and the
    transfer city's risk and bucket read from tables built once.  The five
    ``log_`` cells carry their argument: :func:`finish_basic_columns` runs
    ``log1p`` once over the matrix the rows become, so every value is
    bit-identical to the reference.  The amount ratio is the reference's
    IEEE division, made in the row; a zero denominator (a caller-supplied
    ``payer_recent_amount`` of -1) divides as numpy does, to an ``inf`` in
    its own row, not a ``ZeroDivisionError`` for every row of the call.
    Accounts absent from ``profiles`` get the cold-account default; an hour
    outside 0-23 raises :class:`FeatureError`.
    """
    rows = []
    for txn in transactions:
        payer, payer_city = profiles.get(txn.payer_id, DEFAULT_CELLS)
        payee, payee_city = profiles.get(txn.payee_id, DEFAULT_CELLS)
        hour_cells = _HOUR_CELLS.get(txn.hour)
        if hour_cells is None:
            raise FeatureError(f"hour must be an integer in 0-23, got {txn.hour!r}")
        amount = float(txn.amount)
        trans_city = txn.trans_city
        recent_amount = float(txn.payer_recent_amount)
        denominator = recent_amount + 1.0
        inbound = float(txn.payee_recent_inbound_count)
        payer_kyc, payee_kyc = payer[5], payee[5]
        rows.append(
            (
                *payer,
                *payee,
                # --- transfer environment (22) ---
                amount,
                amount,  # log1p below
                *hour_cells,
                *_CHANNEL_CELLS.get(id(txn.channel), _NO_CHANNEL),
                *_trans_city_cells(trans_city),
                1.0 if trans_city == payer_city else 0.0,
                1.0 if txn.is_new_device else 0.0,
                float(txn.ip_risk_score),
                float(txn.payer_recent_txn_count),
                recent_amount,
                recent_amount,  # log1p below
                inbound,
                inbound,  # log1p below
                amount / denominator if denominator else float(np.divide(amount, denominator)),
                # --- cross features (10) ---
                abs(payer[0] - payee[0]),
                1.0 if payer_city == payee_city else 0.0,
                abs(payer_kyc - payee_kyc),
                1.0 if (payer_kyc == 1.0 and payee_kyc == 1.0) else 0.0,
                payer[4],  # log1p below
                payee[4],  # log1p below
                amount / max(payer[7], 1.0),
                1.0 if abs(amount % 100.0) < 1e-9 else 0.0,
                1.0 if amount >= _HIGH_AMOUNT_THRESHOLD else 0.0,
                float(txn.day % 7),
            )
        )
    if rows and len(rows[0]) != len(BASIC_FEATURE_NAMES):
        raise FeatureError(
            f"expected {len(BASIC_FEATURE_NAMES)} features, produced {len(rows[0])}"
        )
    return rows


def finish_basic_columns(values: np.ndarray) -> np.ndarray:
    """Take ``log1p`` of the ``log_`` cells of a float64 matrix whose rows
    begin with :func:`basic_rows`' cells, in place and in one ufunc call;
    returns ``values``."""
    return np.log1p(values, out=values, where=_log1p_mask(values.shape[1]))


def labelled_matrix(
    feature_names: List[str],
    values: np.ndarray,
    transactions: Sequence[Transaction],
    with_labels: bool,
) -> FeatureMatrix:
    """``values`` with the transactions' ids and, optionally, fraud labels."""
    labels = np.array([float(t.is_fraud) for t in transactions]) if with_labels else None
    row_ids = [t.transaction_id for t in transactions]
    return FeatureMatrix(feature_names, values, row_ids=row_ids, labels=labels)


class BasicFeatureExtractor:
    """Extracts the 52 basic features for transactions.

    Parameters
    ----------
    profiles:
        Mapping ``user_id -> UserProfile``.  Missing profiles fall back to
        :data:`DEFAULT_PROFILE`.
    """

    def __init__(self, profiles: Mapping[str, UserProfile]) -> None:
        self._profiles = profiles

    # ------------------------------------------------------------------
    def extract_one(self, transaction: Transaction) -> np.ndarray:
        """Feature vector (length 52) for a single transaction.

        The scalar reference: :func:`basic_rows` is tested bit-for-bit
        against it, nothing on a serving or training path calls it.
        """
        payer = self._profiles.get(transaction.payer_id, DEFAULT_PROFILE)
        payee = self._profiles.get(transaction.payee_id, DEFAULT_PROFILE)
        values = (
            list(profile_cells(vars(payer))[0])
            + list(profile_cells(vars(payee))[0])
            + self._environment_block(transaction, payer)
            + self._cross_block(transaction, payer, payee)
        )
        return np.array(values, dtype=np.float64)

    def extract(
        self,
        transactions: Sequence[Transaction],
        *,
        with_labels: bool = True,
    ) -> FeatureMatrix:
        """Design matrix for a batch of transactions (:func:`basic_rows` over
        this extractor's profiles)."""
        accounts = dict.fromkeys(
            account for txn in transactions for account in (txn.payer_id, txn.payee_id)
        )
        rows = basic_rows(transactions, cells_for(self._profiles, accounts))
        width = len(BASIC_FEATURE_NAMES)
        values = np.fromiter(chain.from_iterable(rows), np.float64, len(rows) * width)
        values = finish_basic_columns(values.reshape(len(rows), width))
        return labelled_matrix(list(BASIC_FEATURE_NAMES), values, transactions, with_labels)

    # ------------------------------------------------------------------
    def _environment_block(self, txn: Transaction, payer: UserProfile) -> List[float]:
        hour_angle = 2.0 * np.pi * txn.hour / 24.0
        return [
            float(txn.amount),
            float(np.log1p(txn.amount)),
            float(txn.hour),
            float(np.sin(hour_angle)),
            float(np.cos(hour_angle)),
            1.0 if (txn.hour >= 22 or txn.hour < 6) else 0.0,
            1.0 if 9 <= txn.hour <= 18 else 0.0,
            1.0 if txn.channel is TransactionChannel.APP else 0.0,
            1.0 if txn.channel is TransactionChannel.WEB else 0.0,
            1.0 if txn.channel is TransactionChannel.QR_CODE else 0.0,
            1.0 if txn.channel is TransactionChannel.BANK_CARD else 0.0,
            _city_risk(txn.trans_city),
            float(_city_bucket(txn.trans_city)),
            1.0 if txn.trans_city == payer.home_city else 0.0,
            1.0 if txn.is_new_device else 0.0,
            float(txn.ip_risk_score),
            float(txn.payer_recent_txn_count),
            float(txn.payer_recent_amount),
            float(np.log1p(txn.payer_recent_amount)),
            float(txn.payee_recent_inbound_count),
            float(np.log1p(txn.payee_recent_inbound_count)),
            float(txn.amount / (txn.payer_recent_amount + 1.0)),
        ]

    def _cross_block(
        self, txn: Transaction, payer: UserProfile, payee: UserProfile
    ) -> List[float]:
        return [
            float(abs(payer.age - payee.age)),
            1.0 if payer.home_city == payee.home_city else 0.0,
            float(abs(payer.kyc_level - payee.kyc_level)),
            1.0 if (payer.kyc_level == 1 and payee.kyc_level == 1) else 0.0,
            float(np.log1p(payer.account_age_days)),
            float(np.log1p(payee.account_age_days)),
            float(txn.amount / max(payer.device_count, 1)),
            1.0 if abs(txn.amount % 100.0) < 1e-9 else 0.0,
            1.0 if txn.amount >= _HIGH_AMOUNT_THRESHOLD else 0.0,
            float(txn.day % 7),
        ]
