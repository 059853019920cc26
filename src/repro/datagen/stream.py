"""Streaming transaction generation: bounded memory at million-account scale.

This module turns the data layer from "materialize, then iterate" into
"stream, bounded memory":

* :class:`TransactionStream` — the protocol: a seeded, resumable,
  batched iterator of :class:`~repro.datagen.schema.Transaction` events.
  Checkpoints are O(active accounts): a day index, an intra-day offset and a
  pickled day-start generator state — never the transactions themselves.
* :class:`WorldStream` — the legacy world as a stream.  Bit-identical to the
  historical ``generate_world`` output at the same seed (``generate_world``
  is now a thin materializing wrapper around it).
* :class:`ScalableWorldStream` — the million-account path: a columnar
  population (:class:`~repro.datagen.profiles.ColumnarAccounts`), vectorized
  per-hour generation under a non-homogeneous arrival process (diurnal curve
  + bursts, :class:`~repro.datagen.transactions.ArrivalConfig`), and
  O(active-accounts) state.  Event-time ordered by construction, so the
  serving replay path can consume it without a global sort.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.datagen.fraud import (
    ColumnarFraudPlanner,
    FraudsterBehaviorModel,
    PlannedFraud,
    PlannedFraudBatch,
    TypologyFraudSuite,
    typology_name,
)
from repro.datagen.profiles import ColumnarAccounts, ProfileGenerator, profiles_by_id
from repro.datagen.schema import (
    CITY_FRAUD_TIERS,
    NUM_CITIES,
    Transaction,
    TransactionChannel,
    UserProfile,
    city_name,
    city_tier,
    transaction_sort_key,
)
from repro.datagen.transactions import (
    ArrivalConfig,
    TransactionWorld,
    WorldConfig,
    _DailyStreamGenerator,
)
from repro.exceptions import DataGenerationError
from repro.rng import SeedLike, ensure_rng, spawn_child

#: Background-fraud multiplier per city index (vectorized ``city_tier``).
_CITY_TIER_MULTIPLIERS = np.array(
    [CITY_FRAUD_TIERS[city_tier(city_name(i))] for i in range(NUM_CITIES)], dtype=np.float64
)

#: City indices in the high-risk tier (fraud skews toward these).
_HIGH_RISK_CITIES = np.array(
    [i for i in range(NUM_CITIES) if city_tier(city_name(i)) == "tier_high"], dtype=np.int64
)

#: Channel values in sampling order (matches the legacy generator's order).
_CHANNEL_VALUES = tuple(TransactionChannel)


@dataclass(frozen=True)
class StreamCheckpoint:
    """A resumable position in a :class:`TransactionStream`.

    ``state`` is the pickled generator state captured at the *start* of
    ``day``; resuming restores that state, regenerates the day and skips the
    first ``offset`` events.  Size is O(active accounts), independent of how
    many transactions were already emitted.
    """

    day: int
    offset: int
    events_emitted: int
    state: bytes


class TransactionStream(ABC):
    """A seeded, resumable, batched iterator of transactions.

    Subclasses implement day-chunked generation (:meth:`_generate_day`) plus
    state capture/restore; the base class owns iteration order, batching and
    the checkpoint/seek machinery.  Batching is a pure re-grouping of the
    deterministic event sequence, so output is batch-size invariant by
    construction.  Streams are single-consumer: ``events()``/``batches()``
    advance one shared position.
    """

    def __init__(self, num_days: int) -> None:
        self._num_days = num_days
        self._day = 0
        self._offset = 0
        self._events_emitted = 0
        self._day_start_state: Optional[bytes] = None

    # ------------------------------------------------------------------
    @property
    def num_days(self) -> int:
        """Number of simulated days in the stream's horizon."""
        return self._num_days

    @property
    def events_emitted(self) -> int:
        """Total events yielded so far (across resumes)."""
        return self._events_emitted

    @property
    @abstractmethod
    def num_accounts(self) -> int:
        """Size of the account population behind the stream."""

    @property
    @abstractmethod
    def event_time_ordered(self) -> bool:
        """True if events are totally ordered by (event time, transaction id)."""

    @abstractmethod
    def _capture_state(self) -> Dict[str, object]:
        """Snapshot all mutable generation state (picklable, O(accounts))."""

    @abstractmethod
    def _restore_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`_capture_state`."""

    @abstractmethod
    def _generate_day(self, day: int) -> Iterator[List[Transaction]]:
        """Yield one day of transactions as one or more ordered chunks."""

    # ------------------------------------------------------------------
    def events(self) -> Iterator[Transaction]:
        """Lazily yield every remaining transaction in stream order."""
        while self._day < self._num_days:
            if self._day_start_state is None:
                self._day_start_state = pickle.dumps(
                    self._capture_state(), protocol=pickle.HIGHEST_PROTOCOL
                )
            day = self._day
            skip = self._offset
            emitted = 0
            for chunk in self._generate_day(day):
                for txn in chunk:
                    emitted += 1
                    if emitted <= skip:
                        continue
                    self._offset = emitted
                    self._events_emitted += 1
                    yield txn
            self._day += 1
            self._offset = 0
            self._day_start_state = None

    def __iter__(self) -> Iterator[Transaction]:
        return self.events()

    def batches(self, batch_size: int) -> Iterator[List[Transaction]]:
        """Yield the remaining events re-grouped into ``batch_size`` lists."""
        if batch_size < 1:
            raise DataGenerationError("batch_size must be >= 1")
        batch: List[Transaction] = []
        for txn in self.events():
            batch.append(txn)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    # ------------------------------------------------------------------
    def checkpoint(self) -> StreamCheckpoint:
        """Capture the current position as a resumable checkpoint."""
        if self._day_start_state is None:
            self._day_start_state = pickle.dumps(
                self._capture_state(), protocol=pickle.HIGHEST_PROTOCOL
            )
        return StreamCheckpoint(
            day=self._day,
            offset=self._offset,
            events_emitted=self._events_emitted,
            state=self._day_start_state,
        )

    def seek(self, checkpoint: StreamCheckpoint) -> None:
        """Position this stream at ``checkpoint``.

        The stream must have been constructed from the same configuration and
        seed that produced the checkpoint; generation then continues exactly
        where the checkpointed stream left off (the current day is silently
        regenerated and its first ``offset`` events skipped).
        """
        self._restore_state(pickle.loads(checkpoint.state))
        self._day = checkpoint.day
        self._offset = checkpoint.offset
        self._events_emitted = checkpoint.events_emitted
        self._day_start_state = checkpoint.state


class WorldStream(TransactionStream):
    """The legacy synthetic world as a stream (bit-identical at equal seed).

    Construction performs exactly the RNG fan-out the historical
    ``generate_world`` performed (profile / fraud / stream children of the
    master seed, in that order), and each day is generated by the same
    :class:`~repro.datagen.transactions._DailyStreamGenerator`, so draining
    this stream reproduces the old materialized output bit for bit.

    ``order="legacy"`` keeps the historical within-day shuffle; the stream is
    then day-ordered but not event-time ordered.  ``order="event"`` sorts each
    day by the canonical (event time, transaction id) key, making the whole
    stream event-time ordered for direct serving replay.
    """

    def __init__(
        self,
        config: WorldConfig | None = None,
        *,
        rng: SeedLike = None,
        order: str = "legacy",
    ) -> None:
        if order not in ("legacy", "event"):
            raise DataGenerationError(f"order must be 'legacy' or 'event', got {order!r}")
        self._config = config or WorldConfig()
        self._config.validate()
        master_rng = ensure_rng(self._config.seed if rng is None else rng)
        profile_rng = spawn_child(master_rng, salt=1)
        fraud_rng = spawn_child(master_rng, salt=2)
        stream_rng = spawn_child(master_rng, salt=3)
        self._profiles = ProfileGenerator(self._config.profile, rng=profile_rng).generate()
        self._fraud_model: FraudsterBehaviorModel | TypologyFraudSuite
        if self._config.typologies is not None:
            self._fraud_model = TypologyFraudSuite(
                np.array([p.is_fraudster for p in self._profiles]),
                self._config.fraud,
                self._config.typologies,
                rng=fraud_rng,
            )
        else:
            self._fraud_model = FraudsterBehaviorModel(
                self._profiles, self._config.fraud, rng=fraud_rng
            )
        self._generator = _DailyStreamGenerator(self._config, self._profiles, stream_rng)
        self._order = order
        super().__init__(self._config.num_days)

    # ------------------------------------------------------------------
    @property
    def config(self) -> WorldConfig:
        """The world configuration this stream was built from."""
        return self._config

    @property
    def profiles(self) -> List[UserProfile]:
        """The full account population (small worlds only)."""
        return self._profiles

    @property
    def profiles_by_id(self) -> Dict[str, UserProfile]:
        """Profiles indexed by ``user_id``."""
        return profiles_by_id(self._profiles)

    @property
    def num_accounts(self) -> int:
        """Size of the generated user population."""
        return len(self._profiles)

    @property
    def event_time_ordered(self) -> bool:
        """True in ``order="event"`` mode (days re-sorted by event time)."""
        return self._order == "event"

    def expected_events_per_day(self) -> float:
        """Expected normal-transaction volume per day (activity-weighted)."""
        total_activity = sum(p.activity_level for p in self._profiles)
        return self._config.transactions_per_user_per_day * total_activity

    def materialize(self) -> TransactionWorld:
        """Drain the stream into a :class:`TransactionWorld` (small worlds)."""
        return TransactionWorld(
            config=self._config,
            profiles=self._profiles,
            transactions=list(self.events()),
        )

    # ------------------------------------------------------------------
    def _capture_state(self) -> Dict[str, object]:
        return {
            "fraud": self._fraud_model.capture_state(),
            "generator": self._generator.capture_state(),
        }

    def _restore_state(self, state: Dict[str, object]) -> None:
        self._fraud_model.restore_state(state["fraud"])  # type: ignore[arg-type]
        self._generator.restore_state(state["generator"])  # type: ignore[arg-type]

    def _generate_day(self, day: int) -> Iterator[List[Transaction]]:
        planned = self._fraud_model.plan_day(day)
        if isinstance(planned, PlannedFraudBatch):
            planned = self._planned_frauds(day, planned)
        records = self._generator.generate_day(day, planned)
        if self._order == "event":
            records = sorted(records, key=transaction_sort_key)
        yield records

    def _planned_frauds(self, day: int, batch: PlannedFraudBatch) -> List[PlannedFraud]:
        """The suite's columnar plan as the per-transfer records the day
        generator consumes; batch indices are positions in ``self._profiles``."""
        profiles = self._profiles
        return [
            PlannedFraud(
                day=day,
                fraudster_id=profiles[batch.fraudster_index[i]].user_id,
                victim_id=profiles[batch.victim_index[i]].user_id,
                amount=float(batch.amount[i]),
                hour=int(batch.hour[i]),
                report_delay_days=int(batch.report_delay_days[i]),
                typology=typology_name(int(batch.typology[i])),
            )
            for i in range(len(batch))
        ]


class ScalableWorldStream(TransactionStream):
    """Million-account transaction stream with O(active-accounts) state.

    The population lives in a :class:`~repro.datagen.profiles.ColumnarAccounts`
    store, fraud campaigns are planned by
    :class:`~repro.datagen.fraud.ColumnarFraudPlanner`, and each day is
    generated hour by hour with vectorized numpy draws under the configured
    arrival process (``config.arrival`` or the default diurnal curve).  Memory
    never grows with the number of transactions: the largest live object is
    one hour-chunk of events.

    Events are emitted hour by hour with monotonically increasing transaction
    ids, so the stream is event-time ordered by construction.

    Intra-hour approximations versus the legacy per-event generator (all
    deterministic, all documented): recent-activity counters and device slots
    advance per hour-chunk rather than per event, and self-transfers resolve
    to the next account index instead of re-drawing.
    """

    def __init__(self, config: WorldConfig | None = None, *, rng: SeedLike = None) -> None:
        self._config = config or WorldConfig()
        self._config.validate()
        master_rng = ensure_rng(self._config.seed if rng is None else rng)
        self._accounts = ColumnarAccounts(self._config.profile, rng=spawn_child(master_rng, salt=1))
        self._planner: ColumnarFraudPlanner | TypologyFraudSuite
        if self._config.typologies is not None:
            self._planner = TypologyFraudSuite(
                self._accounts.is_fraudster,
                self._config.fraud,
                self._config.typologies,
                rng=spawn_child(master_rng, salt=2),
            )
        else:
            self._planner = ColumnarFraudPlanner(
                self._accounts, self._config.fraud, rng=spawn_child(master_rng, salt=2)
            )
        self._rng = spawn_child(master_rng, salt=3)
        self._arrival = self._config.arrival or ArrivalConfig()
        n = self._accounts.num_accounts
        self._payer_count = np.zeros(n, dtype=np.float64)
        self._payer_amount = np.zeros(n, dtype=np.float64)
        self._payee_inbound = np.zeros(n, dtype=np.float64)
        self._device_slots = np.zeros(n, dtype=np.int32)
        self._txn_counter = 0
        super().__init__(self._config.num_days)

    # ------------------------------------------------------------------
    @property
    def config(self) -> WorldConfig:
        """The world configuration this stream was built from."""
        return self._config

    @property
    def accounts(self) -> ColumnarAccounts:
        """The columnar account population behind the stream."""
        return self._accounts

    @property
    def num_accounts(self) -> int:
        """Size of the columnar account population."""
        return self._accounts.num_accounts

    @property
    def event_time_ordered(self) -> bool:
        """Always True: hour-by-hour emission with monotone transaction ids."""
        return True

    def expected_events_per_day(self) -> float:
        """Expected normal-transaction volume per day (activity-weighted)."""
        return float(
            self._config.transactions_per_user_per_day * self._accounts.activity_level.sum()
        )

    # ------------------------------------------------------------------
    def _capture_state(self) -> Dict[str, object]:
        return {
            "rng_state": self._rng.bit_generator.state,
            "planner": self._planner.capture_state(),
            "payer_count": self._payer_count.copy(),
            "payer_amount": self._payer_amount.copy(),
            "payee_inbound": self._payee_inbound.copy(),
            "device_slots": self._device_slots.copy(),
            "txn_counter": self._txn_counter,
        }

    def _restore_state(self, state: Dict[str, object]) -> None:
        self._rng.bit_generator.state = state["rng_state"]
        self._planner.restore_state(state["planner"])  # type: ignore[arg-type]
        self._payer_count = np.array(state["payer_count"], dtype=np.float64, copy=True)
        self._payer_amount = np.array(state["payer_amount"], dtype=np.float64, copy=True)
        self._payee_inbound = np.array(state["payee_inbound"], dtype=np.float64, copy=True)
        self._device_slots = np.array(state["device_slots"], dtype=np.int32, copy=True)
        self._txn_counter = int(state["txn_counter"])  # type: ignore[arg-type]

    def _generate_day(self, day: int) -> Iterator[List[Transaction]]:
        planned = self._planner.plan_day(day)
        fraud_order = np.argsort(planned.hour, kind="stable")
        fraud_hours = planned.hour[fraud_order]
        multipliers = self._arrival.hour_multipliers(day)
        hourly_rate = self._config.transactions_per_user_per_day / 24.0
        for hour in range(24):
            lam = hourly_rate * multipliers[hour] * self._accounts.activity_level
            counts = self._rng.poisson(lam)
            payers = np.repeat(np.arange(self._accounts.num_accounts), counts)
            chunk = self._emit_normal(day, hour, payers)
            lo, hi = np.searchsorted(fraud_hours, [hour, hour + 1])
            if hi > lo:
                chunk.extend(self._emit_fraud(day, hour, planned, fraud_order[lo:hi]))
            if chunk:
                yield chunk
        self._decay()

    # ------------------------------------------------------------------
    def _next_ids(self, count: int) -> List[str]:
        start = self._txn_counter
        self._txn_counter += count
        return [f"t{start + i + 1:010d}" for i in range(count)]

    def _pick_payees(self, payers: np.ndarray) -> np.ndarray:
        acc = self._accounts
        cfg = self._config
        m = payers.size
        n = acc.num_accounts
        global_pick = self._rng.integers(0, n, size=m)
        communities = acc.community[payers]
        sizes = acc.community_offsets[communities + 1] - acc.community_offsets[communities]
        local = acc.community_offsets[communities] + np.floor(
            self._rng.random(m) * np.maximum(sizes, 1)
        ).astype(np.int64)
        intra_pick = acc.community_members[np.minimum(local, n - 1)]
        use_intra = (self._rng.random(m) < cfg.intra_community_probability) & (sizes > 0)
        payees = np.where(use_intra, intra_pick, global_pick)
        if acc.merchant_index.size:
            merchant_pick = acc.merchant_index[
                self._rng.integers(0, acc.merchant_index.size, size=m)
            ]
            use_merchant = self._rng.random(m) < cfg.merchant_transfer_probability
            payees = np.where(use_merchant, merchant_pick, payees)
        # Deterministic self-transfer resolution (no re-draw loop at scale).
        self_mask = payees == payers
        if np.any(self_mask):
            payees = payees.copy()
            payees[self_mask] = (payees[self_mask] + 1) % n
        return payees

    def _device_draw(self, payers: np.ndarray, force_new: np.ndarray) -> tuple:
        """Vectorized analogue of the legacy per-payer device model."""
        acc = self._accounts
        m = payers.size
        known = self._device_slots[payers]
        new_device = force_new | (known == 0) | (self._rng.random(m) < 0.04)
        cap = np.maximum(np.minimum(known, acc.device_count[payers]), 1)
        existing_slot = 1 + np.floor(self._rng.random(m) * cap).astype(np.int64)
        slot = np.where(new_device, known + 1, existing_slot)
        is_new = new_device & ((known > 0) | force_new)
        # Chunk-level update: duplicate payers in one chunk share the slot.
        self._device_slots[payers[new_device]] = (known[new_device] + 1).astype(np.int32)
        return slot, is_new

    def _emit_normal(self, day: int, hour: int, payers: np.ndarray) -> List[Transaction]:
        m = payers.size
        if m == 0:
            return []
        acc = self._accounts
        cfg = self._config
        payees = self._pick_payees(payers)
        amounts = np.round(np.clip(self._rng.lognormal(4.4, 1.1, size=m), 0.5, 100_000.0), 2)
        channel_codes = self._rng.choice(4, size=m, p=[0.6, 0.15, 0.2, 0.05])
        use_home = self._rng.random(m) < 0.85
        cities = np.where(
            use_home, acc.home_city[payers], self._rng.integers(0, NUM_CITIES, size=m)
        )
        slot, is_new = self._device_draw(payers, np.zeros(m, dtype=bool))
        ip_risk = np.round(np.clip(self._rng.beta(1.2, 12.0, size=m), 0, 1), 4)
        bg_prob = cfg.background_fraud_rate * _CITY_TIER_MULTIPLIERS[cities]
        is_fraud = self._rng.random(m) < bg_prob
        delays = np.where(is_fraud, self._rng.integers(1, 8, size=m), 0)
        return self._build_transactions(
            day, hour, payers, payees, amounts, channel_codes, cities, slot, is_new,
            ip_risk, is_fraud, delays,
        )

    def _emit_fraud(
        self, day: int, hour: int, planned: PlannedFraudBatch, events: np.ndarray
    ) -> List[Transaction]:
        m = events.size
        acc = self._accounts
        victims = planned.victim_index[events]
        fraudsters = planned.fraudster_index[events]
        amounts = np.round(planned.amount[events], 2)
        channel_codes = self._rng.choice(4, size=m, p=[0.5, 0.3, 0.1, 0.1])
        high_risk = self._rng.random(m) < 0.6
        cities = np.where(
            high_risk,
            _HIGH_RISK_CITIES[self._rng.integers(0, _HIGH_RISK_CITIES.size, size=m)],
            acc.home_city[victims],
        )
        slot, is_new = self._device_draw(victims, self._rng.random(m) < 0.5)
        ip_risk = np.round(np.clip(self._rng.beta(4.0, 4.0, size=m), 0, 1), 4)
        typologies = None
        if planned.typology is not None:
            typologies = [typology_name(int(code)) for code in planned.typology[events]]
        return self._build_transactions(
            day, hour, victims, fraudsters, amounts, channel_codes, cities, slot, is_new,
            ip_risk, np.ones(m, dtype=bool), planned.report_delay_days[events],
            typologies=typologies,
        )

    def _build_transactions(
        self,
        day: int,
        hour: int,
        payers: np.ndarray,
        payees: np.ndarray,
        amounts: np.ndarray,
        channel_codes: np.ndarray,
        cities: np.ndarray,
        device_slots: np.ndarray,
        is_new_device: np.ndarray,
        ip_risk: np.ndarray,
        is_fraud: np.ndarray,
        report_delays: np.ndarray,
        typologies: Optional[List[str]] = None,
    ) -> List[Transaction]:
        # Recent-activity features use the chunk-start counter snapshot.
        recent_count = self._payer_count[payers].astype(np.int64)
        recent_amount = np.round(self._payer_amount[payers], 2)
        inbound = self._payee_inbound[payees].astype(np.int64)
        np.add.at(self._payer_count, payers, 1.0)
        np.add.at(self._payer_amount, payers, amounts)
        np.add.at(self._payee_inbound, payees, 1.0)
        ids = self._next_ids(payers.size)
        uid = self._accounts.user_id
        return [
            Transaction(
                transaction_id=ids[i],
                day=day,
                hour=hour,
                payer_id=uid(int(payers[i])),
                payee_id=uid(int(payees[i])),
                amount=float(amounts[i]),
                channel=_CHANNEL_VALUES[int(channel_codes[i])],
                trans_city=city_name(int(cities[i])),
                device_id=f"d_{uid(int(payers[i]))}_{int(device_slots[i])}",
                is_new_device=bool(is_new_device[i]),
                ip_risk_score=float(ip_risk[i]),
                payer_recent_txn_count=int(recent_count[i]),
                payer_recent_amount=float(recent_amount[i]),
                payee_recent_inbound_count=int(inbound[i]),
                is_fraud=bool(is_fraud[i]),
                label_available_day=day + (int(report_delays[i]) if is_fraud[i] else 0),
                fraud_typology=typologies[i] if typologies is not None else "",
            )
            for i in range(payers.size)
        ]

    def _decay(self, factor: float = 0.85) -> None:
        """End-of-day exponential decay, mirroring the legacy tracker."""
        self._payer_count = np.floor(self._payer_count * factor)
        self._payer_count[self._payer_count < 1] = 0.0
        self._payer_amount *= factor
        self._payer_amount[self._payer_amount < 1] = 0.0
        self._payee_inbound = np.floor(self._payee_inbound * factor)
        self._payee_inbound[self._payee_inbound < 1] = 0.0
