"""Daily transaction-stream generation.

:func:`generate_world` simulates a full horizon of days.  Each day contains

* normal transfers: payers choose payees mostly inside their own community
  (friends/family) or merchants (purchases), with day-time hours and modest
  amounts,
* fraudulent transfers scheduled by :class:`~repro.datagen.fraud.FraudsterBehaviorModel`:
  victims transferring to fraudster accounts with shifted amount/hour/context
  distributions and delayed labels.

The resulting :class:`TransactionWorld` is the single source of truth consumed
by the MaxCompute loading step, the transaction-network builder, the feature
layer and the T+1 dataset slicer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import POSITIVE, PROBABILITY, SEED, check_fields, checked, integer, number
from repro.datagen.fraud import FraudConfig, PlannedFraud, TypologyConfig
from repro.datagen.profiles import ProfileConfig, profiles_by_id
from repro.datagen.schema import (
    NUM_CITIES,
    Transaction,
    TransactionChannel,
    UserProfile,
    WorldSummary,
    city_name,
    city_tier,
    label_as_of,
    CITY_FRAUD_TIERS,
)
from repro.exceptions import DataGenerationError
from repro.rng import Categorical, SeedLike, clamp, ensure_rng, spawn_child

#: Channels in sampling order, and the channel mix of normal and fraudulent
#: transfers over them.
_CHANNELS = tuple(TransactionChannel)
_NORMAL_CHANNEL_MIX = Categorical((0.6, 0.15, 0.2, 0.05))
_FRAUD_CHANNEL_MIX = Categorical((0.5, 0.3, 0.1, 0.1))

#: Default diurnal intensity by hour of day (relative weights, later
#: normalized to mean 1).  Shape: a deep overnight trough, a morning ramp, a
#: lunchtime plateau and an evening peak — the canonical consumer-payments
#: load curve the sustained-load harness replays.
DIURNAL_HOURLY_WEIGHTS: Tuple[float, ...] = (
    0.20, 0.14, 0.10, 0.08, 0.10, 0.22,
    0.55, 0.95, 1.25, 1.40, 1.50, 1.65,
    1.75, 1.55, 1.40, 1.35, 1.40, 1.55,
    1.85, 2.05, 1.95, 1.55, 0.95, 0.50,
)


@dataclass(frozen=True)
class BurstSpec:
    """A transient load burst: extra arrival intensity over a few hours.

    The burst multiplies the diurnal intensity by ``amplitude`` for
    ``duration_hours`` hours starting at ``start_hour`` on ``day`` — modelling
    promotions / flash sales whose traffic spikes the paper's serving fleet
    must absorb or shed.
    """

    day: int = checked(integer(0))
    start_hour: int = checked(integer(0, 23))
    duration_hours: int = checked(integer(1), 2)
    #: At least 1: bursts add load.
    amplitude: float = checked(number(ge=1.0), 3.0)

    def __post_init__(self) -> None:
        check_fields(self, DataGenerationError)
        if self.start_hour + self.duration_hours > 24:
            raise DataGenerationError("burst must end within its day (start_hour + duration <= 24)")


@dataclass(frozen=True)
class ArrivalConfig:
    """Non-homogeneous arrival process: diurnal load curve + bursts.

    ``hourly_weights`` are 24 relative intensities normalized to mean 1, so
    the configured ``transactions_per_user_per_day`` stays the daily budget
    regardless of curve shape; bursts multiply specific hours on specific
    days.
    """

    hourly_weights: Sequence[float] = DIURNAL_HOURLY_WEIGHTS
    bursts: Sequence[BurstSpec] = ()

    def __post_init__(self) -> None:
        """Check the curve, and every burst against the day's budget.

        A burst's *surplus* — the extra expected events it injects, as a
        fraction of the day's total budget — is ``(amplitude - 1) x (share of
        the diurnal curve inside the burst window)``.  Summed per day it must
        stay <= 1.0 (a day may at most double); anything larger would blow the
        transaction budget the rest of the pipeline (admission control, label
        delays) is calibrated against.  Whether each burst's day lies inside
        the horizon is :class:`WorldConfig`'s check.  Both are kept as tuples,
        so what was checked cannot be edited in place.
        """
        object.__setattr__(self, "hourly_weights", tuple(self.hourly_weights))
        object.__setattr__(self, "bursts", tuple(self.bursts))
        weights = np.asarray(self.hourly_weights, dtype=np.float64)
        if weights.shape != (24,):
            raise DataGenerationError("hourly_weights must contain exactly 24 values")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise DataGenerationError("hourly_weights must be finite and non-negative")
        if weights.sum() <= 0:
            raise DataGenerationError("hourly_weights must not be all zero")
        normalized = weights / weights.mean()
        surplus_by_day: Dict[int, float] = {}
        for burst in self.bursts:
            window = normalized[burst.start_hour : burst.start_hour + burst.duration_hours]
            share = float(window.sum()) / 24.0
            surplus_by_day[burst.day] = surplus_by_day.get(burst.day, 0.0) + (
                burst.amplitude - 1.0
            ) * share
        for day, surplus in surplus_by_day.items():
            if surplus > 1.0:
                raise DataGenerationError(
                    f"burst parameters on day {day} exceed the day's transaction "
                    f"budget: surplus load {surplus:.2f}x > 1.0x of the daily budget"
                )

    def hour_multipliers(self, day: int) -> np.ndarray:
        """Intensity multiplier for each hour of ``day`` (diurnal x bursts)."""
        weights = np.asarray(self.hourly_weights, dtype=np.float64)
        multipliers = weights / weights.mean()
        for burst in self.bursts:
            if burst.day == day:
                multipliers = multipliers.copy()
                multipliers[burst.start_hour : burst.start_hour + burst.duration_hours] *= (
                    burst.amplitude
                )
        return multipliers


@dataclass(frozen=True)
class WorldConfig:
    """Configuration of a full synthetic transaction world.

    The defaults generate a laptop-scale world (a few hundred thousand
    transactions) whose statistical shape follows the paper's production data:
    the evaluation horizon is 90 days of network-building records, 14 days of
    training records and 7 consecutive test days (Figure 8).
    """

    profile: ProfileConfig = field(default_factory=ProfileConfig)
    fraud: FraudConfig = field(default_factory=FraudConfig)
    #: Total number of simulated days.  The paper's rolling evaluation needs
    #: 90 (network) + 14 (train) + 7 (test days) = 111.
    num_days: int = checked(integer(1), 111)
    #: Mean number of normal transfers initiated per user per day.
    transactions_per_user_per_day: float = checked(POSITIVE, 0.35)
    #: Probability that a normal transfer goes to a merchant account.
    merchant_transfer_probability: float = checked(PROBABILITY, 0.45)
    #: Probability that a normal transfer stays inside the payer's community.
    intra_community_probability: float = checked(PROBABILITY, 0.8)
    #: Additional background fraud rate applied to normal-looking transfers
    #: (mislabelled / noisy fraud not driven by campaign fraudsters).
    background_fraud_rate: float = checked(PROBABILITY, 0.0005)
    #: Optional non-homogeneous arrival process (diurnal curve + bursts) used
    #: by the scalable stream; ``None`` keeps the legacy uniform-day model.
    arrival: Optional[ArrivalConfig] = None
    #: Optional labeled fraud-typology suite; ``None`` keeps the legacy single
    #: gathering-campaign fraud model.  When set, fraudsters are partitioned
    #: across the enabled typologies and every campaign fraud carries its
    #: generating typology on ``Transaction.fraud_typology``.
    typologies: Optional[TypologyConfig] = None
    seed: Optional[int] = checked(SEED, 7)

    def __post_init__(self) -> None:
        check_fields(self, DataGenerationError)
        # Population structure: catch configurations that would previously
        # fail deep inside generation with an opaque error.
        num_users = self.profile.num_users
        if num_users < 2:
            raise DataGenerationError(
                "population must contain at least two users (num_users >= 2)"
            )
        num_fraudsters = min(int(round(num_users * self.profile.fraudster_fraction)), num_users)
        if num_fraudsters >= num_users:
            raise DataGenerationError(
                f"fraudster_fraction {self.profile.fraudster_fraction} leaves no "
                f"normal users in a population of {num_users}"
            )
        # Fraud budget: the campaign model must not schedule more frauds than
        # the day's expected normal transaction budget can plausibly carry.
        fraud = self.fraud
        if self.typologies is not None:
            expected_frauds_per_day = self.typologies.expected_frauds_per_day(num_fraudsters)
        else:
            expected_frauds_per_day = num_fraudsters * (
                fraud.repeat_offender_fraction
                * fraud.active_day_probability
                * max(1.0, fraud.frauds_per_active_day)
                + (1.0 - fraud.repeat_offender_fraction) * 0.02
            )
        expected_normal_per_day = num_users * self.transactions_per_user_per_day
        if expected_frauds_per_day > expected_normal_per_day:
            raise DataGenerationError(
                f"fraud parameters exceed the day's transaction budget: "
                f"~{expected_frauds_per_day:.1f} planned frauds/day vs "
                f"~{expected_normal_per_day:.1f} expected normal transactions/day; "
                f"lower frauds_per_active_day/active_day_probability or raise "
                f"transactions_per_user_per_day"
            )
        for burst in self.arrival.bursts if self.arrival is not None else ():
            if burst.day >= self.num_days:
                raise DataGenerationError(
                    f"burst day {burst.day} outside the simulated horizon [0, {self.num_days})"
                )


@dataclass
class TransactionWorld:
    """A fully generated synthetic world."""

    config: WorldConfig
    profiles: List[UserProfile]
    transactions: List[Transaction]

    def __post_init__(self) -> None:
        self._profiles_by_id = profiles_by_id(self.profiles)

    # ------------------------------------------------------------------
    @property
    def profiles_by_id(self) -> Dict[str, UserProfile]:
        return self._profiles_by_id

    def transactions_in_days(self, start_day: int, end_day: int) -> List[Transaction]:
        """Transactions with ``start_day <= day < end_day``."""
        if start_day > end_day:
            raise DataGenerationError("start_day must not exceed end_day")
        return [t for t in self.transactions if start_day <= t.day < end_day]

    def labeled_transactions_in_days(
        self, start_day: int, end_day: int, *, as_of_day: Optional[int] = None
    ) -> List[Transaction]:
        """Transactions in the window whose labels are observable.

        ``as_of_day`` models the paper's delayed label collection: a fraud
        report filed after ``as_of_day`` has not yet reached the training
        pipeline, so its transaction is treated as (still) non-fraud.  When
        ``as_of_day`` is None, the ground-truth labels are returned.
        """
        window = self.transactions_in_days(start_day, end_day)
        if as_of_day is None:
            return window
        return [label_as_of(txn, as_of_day) for txn in window]

    def summary(self) -> WorldSummary:
        """Aggregate statistics of the world."""
        fraudsters = [p for p in self.profiles if p.is_fraudster]
        fraud_txns = [t for t in self.transactions if t.is_fraud]
        frauds_by_fraudster: Dict[str, int] = {}
        for txn in fraud_txns:
            frauds_by_fraudster[txn.payee_id] = frauds_by_fraudster.get(txn.payee_id, 0) + 1
        active = [c for c in frauds_by_fraudster.values() if c > 0]
        repeat_fraction = (
            sum(1 for c in active if c > 1) / len(active) if active else 0.0
        )
        return WorldSummary(
            num_users=len(self.profiles),
            num_fraudsters=len(fraudsters),
            num_transactions=len(self.transactions),
            num_fraud_transactions=len(fraud_txns),
            days=self.config.num_days,
            fraud_rate=(len(fraud_txns) / len(self.transactions)) if self.transactions else 0.0,
            repeat_fraudster_fraction=repeat_fraction,
        )


class _ActivityTracker:
    """Rolling per-user activity counters feeding the recent-behaviour features."""

    def __init__(self) -> None:
        self.payer_counts: Dict[str, int] = {}
        self.payer_amounts: Dict[str, float] = {}
        self.payee_inbound: Dict[str, int] = {}

    def observe(self, payer: str, payee: str, amount: float) -> None:
        self.payer_counts[payer] = self.payer_counts.get(payer, 0) + 1
        self.payer_amounts[payer] = self.payer_amounts.get(payer, 0.0) + amount
        self.payee_inbound[payee] = self.payee_inbound.get(payee, 0) + 1

    def decay(self, factor: float = 0.85) -> None:
        """Apply exponential decay at the end of each day."""
        self.payer_counts = {k: int(v * factor) for k, v in self.payer_counts.items() if v * factor >= 1}
        self.payer_amounts = {k: v * factor for k, v in self.payer_amounts.items() if v * factor >= 1}
        self.payee_inbound = {k: int(v * factor) for k, v in self.payee_inbound.items() if v * factor >= 1}


def generate_world(config: WorldConfig | None = None, *, rng: SeedLike = None) -> TransactionWorld:
    """Generate a complete :class:`TransactionWorld`.

    Since the streaming refactor this is a thin materialized view: it drains a
    :class:`~repro.datagen.stream.WorldStream` (the same seeded generator the
    lazy path iterates) into memory, so the output is bit-identical to the
    pre-stream implementation at the same seed.  Large worlds should consume
    the stream directly instead of materializing.

    The per-event engine draws every value of a row with a scalar call;
    clamps and weighted choices use :func:`repro.rng.clamp` and
    :class:`repro.rng.Categorical`, scalar spellings bit-identical to numpy's
    ``np.clip`` and ``Generator.choice(..., p=...)`` that leave the generator
    in the same state, so a world is the same at the same seed.
    """
    from repro.datagen.stream import WorldStream  # local import: stream builds on us

    config = config or WorldConfig()
    return WorldStream(config, rng=rng).materialize()


class _DailyStreamGenerator:
    """Generates the transaction stream for one world (internal helper).

    One transaction at a time, one scalar draw per value: single-value clamps
    and channel choices go through :func:`repro.rng.clamp` and
    :class:`repro.rng.Categorical`, which are bit-identical to ``np.clip`` and
    ``Generator.choice(..., p=...)`` without their array machinery.
    """

    def __init__(
        self,
        config: WorldConfig,
        profiles: Sequence[UserProfile],
        rng: np.random.Generator,
    ) -> None:
        self._config = config
        self._rng = rng
        self._profiles = list(profiles)
        self._profiles_by_id = profiles_by_id(self._profiles)
        self._merchants = [p for p in self._profiles if p.is_merchant]
        self._by_community: Dict[int, List[UserProfile]] = {}
        for profile in self._profiles:
            self._by_community.setdefault(profile.community, []).append(profile)
        self._activity = _ActivityTracker()
        self._txn_counter = 0
        self._device_counter: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def generate_day(self, day: int, planned_frauds: List[PlannedFraud]) -> List[Transaction]:
        """Generate all transactions of one day (normal + fraudulent)."""
        records: List[Transaction] = []
        activities = self._rng.poisson(
            self._config.transactions_per_user_per_day
            * np.array([p.activity_level for p in self._profiles])
        )
        for profile, count in zip(self._profiles, activities):
            for _ in range(int(count)):
                records.append(self._normal_transaction(day, profile))
        for fraud in planned_frauds:
            records.append(self._fraud_transaction(fraud))
        self._rng.shuffle(records)  # interleave within the day
        self._activity.decay()
        return records

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        self._txn_counter += 1
        return f"t{self._txn_counter:010d}"

    def _device_for(self, user_id: str, *, force_new: bool = False) -> tuple[str, bool]:
        """Return (device id, is_new_device) for a payer."""
        profile = self._profiles_by_id[user_id]
        known = self._device_counter.get(user_id, 0)
        new_device = force_new or known == 0 or self._rng.random() < 0.04
        if new_device:
            self._device_counter[user_id] = known + 1
            return f"d_{user_id}_{known + 1}", known > 0 or force_new
        slot = int(self._rng.integers(1, min(known, profile.device_count) + 1))
        return f"d_{user_id}_{slot}", False

    def _normal_transaction(self, day: int, payer: UserProfile) -> Transaction:
        payee = self._pick_normal_payee(payer)
        amount = float(clamp(self._rng.lognormal(4.4, 1.1), 0.5, 100_000.0))
        hour = int(clamp(self._rng.normal(14.0, 4.5), 0, 23))
        channel = _CHANNELS[_NORMAL_CHANNEL_MIX.draw(self._rng)]
        trans_city = payer.home_city if self._rng.random() < 0.85 else city_name(
            int(self._rng.integers(0, NUM_CITIES))
        )
        device_id, is_new_device = self._device_for(payer.user_id)
        ip_risk = float(clamp(self._rng.beta(1.2, 12.0), 0, 1))
        is_fraud = self._rng.random() < self._background_fraud_probability(trans_city)
        return self._emit(
            day=day,
            hour=hour,
            payer=payer.user_id,
            payee=payee.user_id,
            amount=amount,
            channel=channel,
            trans_city=trans_city,
            device_id=device_id,
            is_new_device=is_new_device,
            ip_risk=ip_risk,
            is_fraud=is_fraud,
            report_delay=int(self._rng.integers(1, 8)) if is_fraud else 0,
        )

    def _fraud_transaction(self, fraud: PlannedFraud) -> Transaction:
        victim = self._profiles_by_id[fraud.victim_id]
        channel = _CHANNELS[_FRAUD_CHANNEL_MIX.draw(self._rng)]
        # Fraud skews toward high-risk transfer cities and fresh devices.
        if self._rng.random() < 0.6:
            high_risk = [c for c in range(NUM_CITIES) if city_tier(city_name(c)) == "tier_high"]
            trans_city = city_name(int(self._rng.choice(high_risk)))
        else:
            trans_city = victim.home_city
        device_id, is_new_device = self._device_for(
            victim.user_id, force_new=self._rng.random() < 0.5
        )
        ip_risk = float(clamp(self._rng.beta(4.0, 4.0), 0, 1))
        return self._emit(
            day=fraud.day,
            hour=fraud.hour,
            payer=victim.user_id,
            payee=fraud.fraudster_id,
            amount=fraud.amount,
            channel=channel,
            trans_city=trans_city,
            device_id=device_id,
            is_new_device=is_new_device,
            ip_risk=ip_risk,
            is_fraud=True,
            report_delay=fraud.report_delay_days,
            typology=fraud.typology,
        )

    def _emit(
        self,
        *,
        day: int,
        hour: int,
        payer: str,
        payee: str,
        amount: float,
        channel: TransactionChannel,
        trans_city: str,
        device_id: str,
        is_new_device: bool,
        ip_risk: float,
        is_fraud: bool,
        report_delay: int,
        typology: str = "",
    ) -> Transaction:
        txn = Transaction(
            transaction_id=self._next_id(),
            day=day,
            hour=hour,
            payer_id=payer,
            payee_id=payee,
            amount=round(amount, 2),
            channel=channel,
            trans_city=trans_city,
            device_id=device_id,
            is_new_device=is_new_device,
            ip_risk_score=round(ip_risk, 4),
            payer_recent_txn_count=self._activity.payer_counts.get(payer, 0),
            payer_recent_amount=round(self._activity.payer_amounts.get(payer, 0.0), 2),
            payee_recent_inbound_count=self._activity.payee_inbound.get(payee, 0),
            is_fraud=is_fraud,
            label_available_day=day + (report_delay if is_fraud else 0),
            fraud_typology=typology,
        )
        self._activity.observe(payer, payee, amount)
        return txn

    def _pick_normal_payee(self, payer: UserProfile) -> UserProfile:
        cfg = self._config
        if self._merchants and self._rng.random() < cfg.merchant_transfer_probability:
            candidates = self._merchants
        elif self._rng.random() < cfg.intra_community_probability:
            candidates = self._by_community.get(payer.community, self._profiles)
        else:
            candidates = self._profiles
        payee = candidates[int(self._rng.integers(0, len(candidates)))]
        attempts = 0
        while payee.user_id == payer.user_id and attempts < 10:
            payee = self._profiles[int(self._rng.integers(0, len(self._profiles)))]
            attempts += 1
        if payee.user_id == payer.user_id:
            # Extremely small populations may need a deterministic fallback.
            for candidate in self._profiles:
                if candidate.user_id != payer.user_id:
                    return candidate
            raise DataGenerationError("population must contain at least two users")
        return payee

    def _background_fraud_probability(self, trans_city: str) -> float:
        tier = city_tier(trans_city)
        return self._config.background_fraud_rate * CITY_FRAUD_TIERS[tier]
