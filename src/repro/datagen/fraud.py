"""Fraudster behaviour model.

The paper's key empirical observation is that roughly 70 % of fraudsters repeat
their deceitful actions once successful, producing a "gathering" topology in
the transaction network: many victims transfer to the same fraudster node, so
the victims are 2-hop neighbours of each other (Figure 2 of the paper).

This module models each fraudster as a small campaign process:

* a fraudster is either a *repeat offender* (active over many days, accumulating
  victims) or a *one-shot* offender (a single fraudulent transfer),
* each active day the fraudster lures a few victims, preferentially from
  communities it has already penetrated (which strengthens the 2-hop structure),
* fraudulent transfers have shifted context distributions (amount, hour,
  transfer city, device novelty, IP risk) — this is where the basic features
  obtain their predictive power,
* victims file fraud reports after a random delay, producing delayed labels.

Beyond the single gathering campaign, :class:`TypologyFraudSuite` partitions
the fraudster population across five distinct fraud typologies (mule/relay
chains, account takeover, bust-out, merchant collusion, smurfing).  Every
planned transfer carries a typology code, which both stream generators thread
onto :attr:`~repro.datagen.schema.Transaction.fraud_typology` — the labeled
eval slices behind the per-typology recall report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import NON_NEGATIVE, POSITIVE, PROBABILITY, check_fields, checked, integer, number
from repro.datagen.schema import UserProfile
from repro.exceptions import DataGenerationError
from repro.rng import SeedLike, clamp, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.datagen.profiles import ColumnarAccounts


#: The five labeled fraud typologies, in their canonical (assignment) order.
FRAUD_TYPOLOGIES: Tuple[str, ...] = (
    "mule_chain",
    "account_takeover",
    "bust_out",
    "merchant_collusion",
    "smurfing",
)


def typology_code(name: str) -> int:
    """Integer code of a typology name (0 = untagged legacy campaign fraud)."""
    if not name:
        return 0
    try:
        return FRAUD_TYPOLOGIES.index(name) + 1
    except ValueError:
        raise DataGenerationError(f"unknown fraud typology {name!r}") from None


def typology_name(code: int) -> str:
    """Typology name for an integer code produced by :func:`typology_code`."""
    if code == 0:
        return ""
    if not 1 <= code <= len(FRAUD_TYPOLOGIES):
        raise DataGenerationError(f"unknown fraud typology code {code}")
    return FRAUD_TYPOLOGIES[code - 1]


@dataclass(frozen=True)
class FraudConfig:
    """Parameters of the fraudster behaviour model."""

    #: Fraction of fraudsters that become repeat offenders (paper: ~70 %).
    repeat_offender_fraction: float = checked(PROBABILITY, 0.7)
    #: Mean number of fraudulent transfers a repeat offender commits per active day.
    frauds_per_active_day: float = checked(POSITIVE, 1.6)
    #: Probability that a repeat offender is active on a given day.
    active_day_probability: float = checked(number(gt=0.0, le=1.0), 0.35)
    #: Mean label reporting delay in days.
    mean_report_delay_days: float = checked(NON_NEGATIVE, 3.0)
    #: Fraction of victims recruited from communities already targeted.
    community_stickiness: float = checked(PROBABILITY, 0.75)
    #: Log-normal parameters of fraudulent transfer amounts (any log-mean:
    #: the amounts are clipped to [10, 200000]).
    fraud_amount_log_mean: float = checked(number(), 6.3)
    fraud_amount_log_sigma: float = checked(NON_NEGATIVE, 0.9)

    def __post_init__(self) -> None:
        check_fields(self, DataGenerationError)


@dataclass
class FraudsterState:
    """Mutable per-fraudster campaign state."""

    user_id: str
    is_repeat_offender: bool
    preferred_communities: List[int] = field(default_factory=list)
    one_shot_done: bool = False


@dataclass
class PlannedFraud:
    """One fraudulent transfer scheduled by the behaviour model.

    ``victim_id`` is always the *payer* and ``fraudster_id`` the *payee* of
    the generated transfer.  Typologies with outbound money movement (e.g.
    bust-out cash-outs from the fraudster's own account) place the fraudster
    in the payer slot and the receiving counterparty in the payee slot.
    ``typology`` tags the generating scenario (one of
    :data:`FRAUD_TYPOLOGIES`, or ``""`` for the legacy gathering campaign).
    """

    day: int
    fraudster_id: str
    victim_id: str
    amount: float
    hour: int
    report_delay_days: int
    typology: str = ""


class FraudsterBehaviorModel:
    """Schedules fraudulent transfers for every fraudster in the population."""

    def __init__(
        self,
        profiles: Sequence[UserProfile],
        config: FraudConfig | None = None,
        *,
        rng: SeedLike = None,
    ):
        self.config = config or FraudConfig()
        self._rng = ensure_rng(rng)
        self._profiles = list(profiles)
        self._profiles_by_id = {p.user_id: p for p in self._profiles}
        self._fraudsters = [p for p in self._profiles if p.is_fraudster]
        self._normal_users = [p for p in self._profiles if not p.is_fraudster]
        if not self._normal_users:
            raise DataGenerationError("population contains no normal users")
        self._states: Dict[str, FraudsterState] = {}
        for profile in self._fraudsters:
            is_repeat = self._rng.random() < self.config.repeat_offender_fraction
            self._states[profile.user_id] = FraudsterState(
                user_id=profile.user_id,
                is_repeat_offender=is_repeat,
                preferred_communities=[profile.community],
            )
        self._normal_by_community: Dict[int, List[UserProfile]] = {}
        for profile in self._normal_users:
            self._normal_by_community.setdefault(profile.community, []).append(profile)

    # ------------------------------------------------------------------
    def plan_day(self, day: int) -> List[PlannedFraud]:
        """Return the fraudulent transfers scheduled for ``day``."""
        planned: List[PlannedFraud] = []
        for state in self._states.values():
            if state.is_repeat_offender:
                if self._rng.random() >= self.config.active_day_probability:
                    continue
                count = max(1, int(self._rng.poisson(self.config.frauds_per_active_day)))
            else:
                if state.one_shot_done:
                    continue
                # One-shot offenders strike on a random day with low probability.
                if self._rng.random() >= 0.02:
                    continue
                count = 1
                state.one_shot_done = True
            for _ in range(count):
                victim = self._pick_victim(state)
                planned.append(
                    PlannedFraud(
                        day=day,
                        fraudster_id=state.user_id,
                        victim_id=victim.user_id,
                        amount=self._sample_amount(),
                        hour=self._sample_hour(),
                        report_delay_days=self._sample_report_delay(),
                    )
                )
                if victim.community not in state.preferred_communities:
                    state.preferred_communities.append(victim.community)
        return planned

    # ------------------------------------------------------------------
    def _pick_victim(self, state: FraudsterState) -> UserProfile:
        """Pick a victim, preferring communities already penetrated."""
        if (
            state.preferred_communities
            and self._rng.random() < self.config.community_stickiness
        ):
            community = int(self._rng.choice(state.preferred_communities))
            pool = self._normal_by_community.get(community)
            if pool:
                return pool[int(self._rng.integers(0, len(pool)))]
        return self._normal_users[int(self._rng.integers(0, len(self._normal_users)))]

    def _sample_amount(self) -> float:
        cfg = self.config
        return float(
            clamp(
                self._rng.lognormal(cfg.fraud_amount_log_mean, cfg.fraud_amount_log_sigma),
                10.0,
                200_000.0,
            )
        )

    def _sample_hour(self) -> int:
        # Fraud skews toward late-night hours.
        if self._rng.random() < 0.55:
            return int(self._rng.integers(22, 24)) if self._rng.random() < 0.5 else int(
                self._rng.integers(0, 6)
            )
        return int(self._rng.integers(0, 24))

    def _sample_report_delay(self) -> int:
        return int(clamp(self._rng.exponential(self.config.mean_report_delay_days), 0, 30)) + 1


@dataclass(frozen=True)
class TypologyConfig:
    """Structure of the five labeled fraud typologies.

    ``enabled`` selects which typologies run (canonical order is preserved for
    deterministic fraudster assignment); the remaining knobs shape each
    scenario's volume and footprint.  Expected per-day fraud volume is folded
    into :class:`~repro.datagen.transactions.WorldConfig`'s budget check
    through :meth:`expected_frauds_per_day`.
    """

    #: Typologies to run, a subset of :data:`FRAUD_TYPOLOGIES`.
    enabled: Tuple[str, ...] = FRAUD_TYPOLOGIES
    #: Probability a typology campaign fires on a given day.
    active_day_probability: float = checked(number(gt=0.0, le=1.0), 0.3)
    #: Relay hops per mule chain (victim -> head -> mule -> ...).
    chain_length: int = checked(integer(1), 3)
    #: Mean transfers per account-takeover burst (same victim, rapid drain).
    takeover_burst: int = checked(integer(1), 3)
    #: Days of quiet buildup before a bust-out account can cash out.
    bust_out_buildup_days: int = checked(integer(0), 5)
    #: Mean outbound cash-out transfers in one bust-out event.
    bust_out_cashouts: int = checked(integer(1), 6)
    #: Colluding counterparties per fraudulent merchant.
    collusion_ring_size: int = checked(integer(1), 4)
    #: Mean sub-threshold transfers per smurfing day.
    smurf_transfers: int = checked(integer(1), 8)
    #: Reporting threshold smurfing stays below.
    smurf_threshold: float = checked(POSITIVE, 3000.0)

    def __post_init__(self) -> None:
        """Reject out-of-range knobs and unknown/duplicate typologies."""
        check_fields(self, DataGenerationError)
        if not self.enabled:
            raise DataGenerationError("typologies.enabled must not be empty")
        unknown = [name for name in self.enabled if name not in FRAUD_TYPOLOGIES]
        if unknown:
            raise DataGenerationError(
                f"unknown typologies {unknown}; valid: {list(FRAUD_TYPOLOGIES)}"
            )
        if len(set(self.enabled)) != len(self.enabled):
            raise DataGenerationError("typologies.enabled contains duplicates")

    def expected_frauds_per_fraudster_day(self, typology: str) -> float:
        """Upper-bound expected fraud transfers per assigned fraudster per day."""
        p = self.active_day_probability
        if typology == "mule_chain":
            # One active chain emits ~chain_length hops across chain_length
            # members: about one transfer per member per active day.
            return p
        if typology == "account_takeover":
            return p * max(2, self.takeover_burst)
        if typology == "bust_out":
            # At most one bust per fraudster over the horizon; bound by the
            # bust day itself.
            return p * max(2, self.bust_out_cashouts)
        if typology == "merchant_collusion":
            return p * self.collusion_ring_size
        if typology == "smurfing":
            return p * max(3, self.smurf_transfers)
        raise DataGenerationError(f"unknown fraud typology {typology!r}")

    def expected_frauds_per_day(self, num_fraudsters: int) -> float:
        """Expected daily fraud volume for a round-robin fraudster partition."""
        total = 0.0
        width = len(self.enabled)
        for index, name in enumerate(self.enabled):
            assigned = len(range(index, num_fraudsters, width))
            total += assigned * self.expected_frauds_per_fraudster_day(name)
        return total


@dataclass
class PlannedFraudBatch:
    """One day of planned frauds in columnar form (parallel numpy arrays)."""

    #: Account index of the fraudster receiving each transfer.
    fraudster_index: np.ndarray
    #: Account index of the victim initiating each transfer.
    victim_index: np.ndarray
    amount: np.ndarray
    hour: np.ndarray
    report_delay_days: np.ndarray
    #: Per-transfer typology code (:func:`typology_code`); ``None`` marks a
    #: legacy planner batch whose transfers are all untagged.
    typology: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.fraudster_index.size)


class ColumnarFraudPlanner:
    """Vectorized fraud-campaign planner over a :class:`ColumnarAccounts` population.

    Million-account streams cannot afford per-fraudster Python loops or
    per-victim ``UserProfile`` lookups, so this planner mirrors
    :class:`FraudsterBehaviorModel`'s campaign logic (repeat offenders with
    active days, one-shot strikes, community-sticky victim selection, shifted
    amount/hour/report-delay distributions) as whole-population numpy
    operations.  Community stickiness targets the fraudster's home community
    (the legacy model grows a preferred-community set per fraudster; at scale
    the home community dominates that set, so the simplification preserves the
    2-hop "gathering" topology without O(victims) per-fraudster state).
    """

    def __init__(
        self,
        accounts: "ColumnarAccounts",
        config: FraudConfig | None = None,
        *,
        rng: SeedLike = None,
    ):
        self.config = config or FraudConfig()
        self._rng = ensure_rng(rng)
        self._accounts = accounts
        self._fraudster_index = np.flatnonzero(accounts.is_fraudster)
        self._normal_index = np.flatnonzero(~accounts.is_fraudster)
        if self._normal_index.size == 0:
            raise DataGenerationError("population contains no normal users")
        # CSR of normal users grouped by community: victim pools without dicts.
        communities = accounts.community[self._normal_index]
        order = np.argsort(communities, kind="stable")
        self._normal_by_community = self._normal_index[order]
        num_communities = int(accounts.community.max()) + 1
        counts = np.bincount(communities, minlength=num_communities)
        self._community_offsets = np.zeros(num_communities + 1, dtype=np.int64)
        np.cumsum(counts, out=self._community_offsets[1:])
        self._is_repeat = (
            self._rng.random(self._fraudster_index.size)
            < self.config.repeat_offender_fraction
        )
        self._one_shot_done = np.zeros(self._fraudster_index.size, dtype=bool)

    # ------------------------------------------------------------------
    def plan_day(self, day: int) -> PlannedFraudBatch:
        """Plan one day of fraudulent transfers as a columnar batch."""
        cfg = self.config
        num_fraudsters = self._fraudster_index.size
        if num_fraudsters == 0:
            empty_int = np.zeros(0, dtype=np.int64)
            return PlannedFraudBatch(empty_int, empty_int, np.zeros(0), empty_int, empty_int)
        active = self._is_repeat & (
            self._rng.random(num_fraudsters) < cfg.active_day_probability
        )
        counts = np.where(
            active,
            np.maximum(1, self._rng.poisson(cfg.frauds_per_active_day, size=num_fraudsters)),
            0,
        ).astype(np.int64)
        strikes = (
            (~self._is_repeat)
            & (~self._one_shot_done)
            & (self._rng.random(num_fraudsters) < 0.02)
        )
        counts += strikes
        self._one_shot_done |= strikes
        slots = np.repeat(np.arange(num_fraudsters), counts)
        num_events = slots.size
        if num_events == 0:
            empty_int = np.zeros(0, dtype=np.int64)
            return PlannedFraudBatch(empty_int, empty_int, np.zeros(0), empty_int, empty_int)

        fraudsters = self._fraudster_index[slots]
        # Victim selection: community-sticky when the fraudster's community has
        # normal members, otherwise (or with prob 1 - stickiness) global.
        communities = self._accounts.community[fraudsters]
        pool_sizes = (
            self._community_offsets[communities + 1] - self._community_offsets[communities]
        )
        sticky = (self._rng.random(num_events) < cfg.community_stickiness) & (pool_sizes > 0)
        local = self._community_offsets[communities] + np.floor(
            self._rng.random(num_events) * np.maximum(pool_sizes, 1)
        ).astype(np.int64)
        local = np.minimum(local, self._normal_by_community.size - 1)
        global_pick = self._normal_index[
            self._rng.integers(0, self._normal_index.size, size=num_events)
        ]
        victims = np.where(sticky, self._normal_by_community[local], global_pick)

        amounts = np.clip(
            self._rng.lognormal(cfg.fraud_amount_log_mean, cfg.fraud_amount_log_sigma, num_events),
            10.0,
            200_000.0,
        )
        # Vectorized analogue of FraudsterBehaviorModel._sample_hour.
        night = self._rng.random(num_events) < 0.55
        late = self._rng.random(num_events) < 0.5
        hours = np.where(
            night,
            np.where(
                late,
                self._rng.integers(22, 24, size=num_events),
                self._rng.integers(0, 6, size=num_events),
            ),
            self._rng.integers(0, 24, size=num_events),
        ).astype(np.int64)
        delays = (
            np.clip(self._rng.exponential(cfg.mean_report_delay_days, num_events), 0, 30).astype(
                np.int64
            )
            + 1
        )
        return PlannedFraudBatch(
            fraudster_index=fraudsters,
            victim_index=victims,
            amount=amounts,
            hour=hours,
            report_delay_days=delays,
        )


def _empty_planned_batch() -> PlannedFraudBatch:
    empty_int = np.zeros(0, dtype=np.int64)
    return PlannedFraudBatch(
        fraudster_index=empty_int,
        victim_index=empty_int.copy(),
        amount=np.zeros(0),
        hour=empty_int.copy(),
        report_delay_days=empty_int.copy(),
        typology=empty_int.copy(),
    )


class TypologyFraudSuite:
    """The five labeled typologies planned over one fraudster mask.

    The suite knows the population only as ``is_fraudster`` — one flag per
    account position — so the same planner serves
    :class:`~repro.datagen.stream.WorldStream` (positions in its profile
    list) and :class:`~repro.datagen.stream.ScalableWorldStream` (indices of
    its :class:`~repro.datagen.profiles.ColumnarAccounts`), and a typology tag
    names one event process whichever stream emitted the row.

    Fraudster positions are partitioned round-robin across the enabled
    typologies and each day is planned with whole-population numpy draws in
    canonical typology order (one rng, fixed draw order, so the plan is a
    deterministic function of the rng state).  Static structure (chain
    grouping, collusion rings) is built once at construction; the only
    mutable state beyond the rng is the bust-out flags.  Emitted batches
    carry per-transfer typology codes which the streams thread onto
    ``Transaction.fraud_typology``.
    """

    def __init__(
        self,
        is_fraudster: np.ndarray,
        config: FraudConfig | None = None,
        typologies: TypologyConfig | None = None,
        *,
        rng: SeedLike = None,
    ):
        self.config = config or FraudConfig()
        self.typologies = typologies or TypologyConfig()
        self._rng = ensure_rng(rng)
        is_fraudster = np.asarray(is_fraudster, dtype=bool)
        fraudsters = np.flatnonzero(is_fraudster)
        self._normal_index = np.flatnonzero(~is_fraudster)
        if self._normal_index.size == 0:
            raise DataGenerationError("population contains no normal users")
        width = len(self.typologies.enabled)
        self._assigned: Dict[str, np.ndarray] = {
            name: fraudsters[index::width]
            for index, name in enumerate(self.typologies.enabled)
        }
        empty = fraudsters[:0]
        # Static collusion rings: one row of counterparty indices per merchant.
        merchants = self._assigned.get("merchant_collusion", empty)
        ring_width = min(self.typologies.collusion_ring_size, int(self._normal_index.size))
        self._rings = self._normal_index[
            self._rng.integers(0, self._normal_index.size, size=(merchants.size, ring_width))
        ]
        self._busted = np.zeros(self._assigned.get("bust_out", empty).size, dtype=bool)

    # ------------------------------------------------------------------
    def plan_day(self, day: int) -> PlannedFraudBatch:
        """Plan one day across every enabled typology as one columnar batch."""
        payees: List[np.ndarray] = []
        payers: List[np.ndarray] = []
        amounts: List[np.ndarray] = []
        hours: List[np.ndarray] = []
        delays: List[np.ndarray] = []
        codes: List[np.ndarray] = []
        for name in self.typologies.enabled:
            part = getattr(self, "_plan_" + name)(day)
            if part is None:
                continue
            payee, payer, amount, hour, delay = part
            if payee.size == 0:
                continue
            payees.append(payee.astype(np.int64))
            payers.append(payer.astype(np.int64))
            amounts.append(amount.astype(np.float64))
            hours.append(hour.astype(np.int64))
            delays.append(delay.astype(np.int64))
            codes.append(np.full(payee.size, typology_code(name), dtype=np.int64))
        if not payees:
            return _empty_planned_batch()
        return PlannedFraudBatch(
            fraudster_index=np.concatenate(payees),
            victim_index=np.concatenate(payers),
            amount=np.concatenate(amounts),
            hour=np.concatenate(hours),
            report_delay_days=np.concatenate(delays),
            typology=np.concatenate(codes),
        )

    # ------------------------------------------------------------------
    def _victims(self, size: int) -> np.ndarray:
        return self._normal_index[self._rng.integers(0, self._normal_index.size, size=size)]

    def _amounts(self, size: int, scale: float = 1.0) -> np.ndarray:
        cfg = self.config
        draw = self._rng.lognormal(cfg.fraud_amount_log_mean, cfg.fraud_amount_log_sigma, size)
        return np.clip(draw * scale, 10.0, 200_000.0)

    def _delays(self, size: int) -> np.ndarray:
        return (
            np.clip(
                self._rng.exponential(self.config.mean_report_delay_days, size), 0, 30
            ).astype(np.int64)
            + 1
        )

    # ------------------------------------------------------------------
    def _plan_mule_chain(self, day: int):
        assigned = self._assigned["mule_chain"]
        if assigned.size == 0:
            return None
        cfg = self.typologies
        width = max(2, cfg.chain_length)
        num_chains = -(-int(assigned.size) // width)
        active = self._rng.random(num_chains) < cfg.active_day_probability
        victims = self._victims(num_chains)
        amounts = self._amounts(num_chains)
        hours = self._rng.integers(0, 6, size=num_chains)
        delays = self._delays(num_chains)
        member = np.arange(assigned.size)
        chain_of = member // width
        pos = member % width
        payer = np.where(pos == 0, victims[chain_of], assigned[np.maximum(member - 1, 0)])
        mask = active[chain_of]
        return (
            assigned[mask],
            payer[mask],
            (amounts[chain_of] * 0.92**pos)[mask],
            np.minimum(23, hours[chain_of] + pos)[mask],
            delays[chain_of][mask],
        )

    def _plan_account_takeover(self, day: int):
        assigned = self._assigned["account_takeover"]
        if assigned.size == 0:
            return None
        cfg = self.typologies
        m = int(assigned.size)
        active = self._rng.random(m) < cfg.active_day_probability
        burst = np.maximum(2, self._rng.poisson(cfg.takeover_burst, m))
        victims = self._victims(m)
        hours = self._rng.integers(0, 5, size=m)
        delays = self._delays(m)
        counts = np.where(active, burst, 0)
        slots = np.repeat(np.arange(m), counts)
        if slots.size == 0:
            return None
        within = np.arange(slots.size) - np.repeat(np.cumsum(counts) - counts, counts)
        return (
            assigned[slots],
            victims[slots],
            self._amounts(int(slots.size), scale=0.5),
            np.minimum(23, hours[slots] + within // 2),
            delays[slots],
        )

    def _plan_bust_out(self, day: int):
        assigned = self._assigned["bust_out"]
        if assigned.size == 0:
            return None
        cfg = self.typologies
        m = int(assigned.size)
        draw = self._rng.random(m)
        active = (~self._busted) & (day >= cfg.bust_out_buildup_days) & (
            draw < cfg.active_day_probability
        )
        self._busted = self._busted | active
        counts = np.where(active, np.maximum(2, self._rng.poisson(cfg.bust_out_cashouts, m)), 0)
        hours = self._rng.integers(0, 24, size=m)
        delays = self._delays(m)
        slots = np.repeat(np.arange(m), counts)
        if slots.size == 0:
            return None
        counterparties = self._victims(int(slots.size))
        # Outbound direction: the busting account is the payer (victim slot).
        return (
            counterparties,
            assigned[slots],
            self._amounts(int(slots.size)),
            hours[slots],
            delays[slots],
        )

    def _plan_merchant_collusion(self, day: int):
        assigned = self._assigned["merchant_collusion"]
        if assigned.size == 0 or self._rings.shape[1] == 0:
            return None
        cfg = self.typologies
        m = int(assigned.size)
        active = self._rng.random(m) < cfg.active_day_probability
        delays = self._delays(m)
        ring_width = self._rings.shape[1]
        slots = np.repeat(np.arange(m), np.where(active, ring_width, 0))
        if slots.size == 0:
            return None
        members = self._rings[active].reshape(-1)
        amounts = self._rng.integers(2, 20, size=slots.size).astype(np.float64) * 50.0
        hours = self._rng.integers(9, 18, size=slots.size)
        return (assigned[slots], members, amounts, hours, delays[slots])

    def _plan_smurfing(self, day: int):
        assigned = self._assigned["smurfing"]
        if assigned.size == 0:
            return None
        cfg = self.typologies
        m = int(assigned.size)
        active = self._rng.random(m) < cfg.active_day_probability
        counts = np.where(active, np.maximum(3, self._rng.poisson(cfg.smurf_transfers, m)), 0)
        delays = self._delays(m)
        slots = np.repeat(np.arange(m), counts)
        if slots.size == 0:
            return None
        victims = self._victims(int(slots.size))
        amounts = cfg.smurf_threshold * self._rng.uniform(0.62, 0.98, size=slots.size)
        hours = self._rng.integers(8, 23, size=slots.size)
        return (assigned[slots], victims, amounts, hours, delays[slots])
