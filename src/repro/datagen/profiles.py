"""User-profile generation.

Profiles provide the "user profile" half of the paper's basic features (age,
gender, home city, account age, KYC level, ...).  Users are grouped into
communities: normal transfers mostly stay inside a community, which gives the
transaction network the modular structure that DeepWalk exploits.  A small
fraction of users are fraudsters; their identity is a hidden generative
attribute, never a feature — detection models must recover it from behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from repro.contracts import SEED, check_fields, checked, integer, number
from repro.datagen.schema import Gender, UserProfile, NUM_CITIES, city_name
from repro.exceptions import DataGenerationError
from repro.rng import Categorical, SeedLike, clamp, ensure_rng

#: Gender codes used by the columnar population (index into this tuple).
_GENDER_CODES = (Gender.FEMALE, Gender.MALE, Gender.UNKNOWN)
#: KYC levels, and the mix of fraudsters' and other users' levels over them.
_KYC_LEVELS = (1, 2, 3)
_FRAUDSTER_KYC_MIX = Categorical((0.35, 0.40, 0.25))
_NORMAL_KYC_MIX = Categorical((0.10, 0.35, 0.55))
#: Profiles :meth:`ColumnarAccounts.iter_profiles` materializes per gather.
PROFILE_CHUNK = 4096


@dataclass(frozen=True)
class ProfileConfig:
    """Configuration of the user population.

    Parameters
    ----------
    num_users:
        Size of the population (payer and payee accounts combined).
    num_communities:
        Number of latent communities used to shape the transfer topology.
    fraudster_fraction:
        Fraction of users marked as fraudsters (hidden attribute).
    merchant_fraction:
        Fraction of users that are merchant accounts (many inbound transfers).
    """

    num_users: int = checked(integer(1), 2000)
    num_communities: int = checked(integer(1), 12)
    fraudster_fraction: float = checked(number(ge=0.0, lt=1.0), 0.02)
    merchant_fraction: float = checked(number(ge=0.0, lt=1.0), 0.05)
    min_age: int = checked(integer(0), 18)
    max_age: int = checked(integer(0), 75)
    seed: int | None = checked(SEED, None)

    def __post_init__(self) -> None:
        check_fields(self, DataGenerationError)
        if self.min_age >= self.max_age:
            raise DataGenerationError("min_age must be below max_age")


class ProfileGenerator:
    """Generate a reproducible population of :class:`UserProfile` objects.

    Profiles are drawn one at a time, each value with a scalar call: single
    values are clamped with :func:`repro.rng.clamp` and KYC levels drawn with
    a :class:`repro.rng.Categorical`, scalar spellings bit-identical to
    numpy's ``np.clip`` and ``Generator.choice(..., p=...)``.
    """

    def __init__(self, config: ProfileConfig | None = None, *, rng: SeedLike = None):
        self.config = config or ProfileConfig()
        self._rng = ensure_rng(self.config.seed if rng is None else rng)

    # ------------------------------------------------------------------
    def generate(self) -> List[UserProfile]:
        """Generate the full population.

        Fraudsters are biased toward young accounts, low KYC levels and many
        devices — matching the qualitative intuition behind the paper's basic
        features — but with heavy overlap with the normal population so that
        profile features alone cannot separate them.

        Fraudsters also concentrate in a minority of "high-risk" communities
        (fraud rings operate in clusters), which is what makes the transaction
        network's topology informative beyond individual transactions: node
        embeddings encode community membership, and community membership
        carries fraud risk that no basic feature exposes.
        """
        cfg = self.config
        rng = self._rng
        profiles: List[UserProfile] = []

        # Pre-assign communities, then draw fraudsters with probability
        # proportional to the community's risk weight.
        communities = rng.integers(0, cfg.num_communities, size=cfg.num_users)
        risk_weights = np.array(
            [self.community_risk_weight(int(c)) for c in communities], dtype=np.float64
        )
        num_fraudsters = int(round(cfg.num_users * cfg.fraudster_fraction))
        num_fraudsters = min(num_fraudsters, cfg.num_users)
        fraud_ids: set[int] = set()
        if num_fraudsters > 0:
            probabilities = risk_weights / risk_weights.sum()
            fraud_ids = set(
                rng.choice(
                    cfg.num_users, size=num_fraudsters, replace=False, p=probabilities
                ).tolist()
            )

        for index in range(cfg.num_users):
            is_fraudster = index in fraud_ids
            community = int(communities[index])
            age = self._sample_age(is_fraudster)
            gender = self._sample_gender()
            home_city = city_name(int(rng.integers(0, NUM_CITIES)))
            account_age = self._sample_account_age(is_fraudster)
            kyc_level = self._sample_kyc(is_fraudster)
            is_merchant = (not is_fraudster) and rng.random() < cfg.merchant_fraction
            device_count = self._sample_device_count(is_fraudster)
            risk_propensity = float(clamp(rng.normal(0.65 if is_fraudster else 0.25, 0.15), 0, 1))
            activity_level = float(rng.gamma(2.0, 1.2 if is_merchant else 0.6) + 0.2)

            profiles.append(
                UserProfile(
                    user_id=f"u{index:07d}",
                    age=age,
                    gender=gender,
                    home_city=home_city,
                    account_age_days=account_age,
                    kyc_level=kyc_level,
                    is_merchant=is_merchant,
                    device_count=device_count,
                    community=community,
                    is_fraudster=is_fraudster,
                    risk_propensity=risk_propensity,
                    activity_level=activity_level,
                )
            )
        return profiles

    # ------------------------------------------------------------------
    @staticmethod
    def community_risk_weight(community: int) -> float:
        """Relative fraudster density of a community.

        Every fourth community is a high-risk "ring" community (8x weight);
        the rest share a low baseline.  The weights only shape *where*
        fraudsters sit in the graph — the overall fraudster fraction is still
        ``ProfileConfig.fraudster_fraction``.
        """
        return 8.0 if community % 4 == 0 else 0.5

    def _sample_age(self, is_fraudster: bool) -> int:
        cfg = self.config
        mean = 29.0 if is_fraudster else 36.0
        age = int(round(self._rng.normal(mean, 11.0)))
        return int(clamp(age, cfg.min_age, cfg.max_age))

    def _sample_gender(self) -> Gender:
        roll = self._rng.random()
        if roll < 0.49:
            return Gender.FEMALE
        if roll < 0.97:
            return Gender.MALE
        return Gender.UNKNOWN

    def _sample_account_age(self, is_fraudster: bool) -> int:
        # Fraudsters skew toward newly created accounts.
        scale = 140.0 if is_fraudster else 700.0
        return int(clamp(self._rng.exponential(scale), 1, 4000))

    def _sample_kyc(self, is_fraudster: bool) -> int:
        mix = _FRAUDSTER_KYC_MIX if is_fraudster else _NORMAL_KYC_MIX
        return int(_KYC_LEVELS[mix.draw(self._rng)])

    def _sample_device_count(self, is_fraudster: bool) -> int:
        lam = 3.2 if is_fraudster else 1.4
        return int(clamp(self._rng.poisson(lam) + 1, 1, 12))


class ColumnarAccounts:
    """Columnar account population for million-account streams.

    Stores the whole population as parallel numpy arrays — a 1M-account world
    costs tens of megabytes instead of the ~gigabyte that a list of
    :class:`UserProfile` dataclasses would need — and materializes profiles
    only on demand, through :meth:`iter_profiles`, a bounded chunk of
    :data:`PROFILE_CHUNK` accounts at a time: one gather and one ``tolist()``
    per column per chunk, so the transient memory stays that of one chunk
    however many profiles are asked for.  Sampling follows the same
    qualitative shape as :class:`ProfileGenerator` (fraudsters skew young /
    low-KYC / many-device and concentrate in every fourth community) but is
    drawn with vectorized equivalents, so a columnar population is *not*
    bit-identical to the list population at the same seed; it is
    deterministic in its own right.
    """

    def __init__(self, config: ProfileConfig | None = None, *, rng: SeedLike = None):
        self.config = config or ProfileConfig()
        rng = ensure_rng(self.config.seed if rng is None else rng)
        cfg = self.config
        n = cfg.num_users

        self.community = rng.integers(0, cfg.num_communities, size=n).astype(np.int32)
        risk_weights = np.where(
            self.community % 4 == 0,
            ProfileGenerator.community_risk_weight(0),
            ProfileGenerator.community_risk_weight(1),
        )
        num_fraudsters = min(int(round(n * cfg.fraudster_fraction)), n)
        self.is_fraudster = np.zeros(n, dtype=bool)
        if num_fraudsters > 0:
            # Gumbel top-k == weighted sampling without replacement, vectorized.
            keys = np.log(risk_weights) + rng.gumbel(size=n)
            winners = np.argpartition(-keys, num_fraudsters - 1)[:num_fraudsters]
            self.is_fraudster[winners] = True

        fraud = self.is_fraudster
        self.age = np.clip(
            np.round(rng.normal(np.where(fraud, 29.0, 36.0), 11.0)),
            cfg.min_age,
            cfg.max_age,
        ).astype(np.int16)
        roll = rng.random(n)
        self.gender_code = np.where(roll < 0.49, 0, np.where(roll < 0.97, 1, 2)).astype(np.int8)
        self.home_city = rng.integers(0, NUM_CITIES, size=n).astype(np.int16)
        self.account_age_days = np.clip(
            rng.exponential(1.0, size=n) * np.where(fraud, 140.0, 700.0), 1, 4000
        ).astype(np.int32)
        kyc_roll = rng.random(n)
        low = np.where(fraud, 0.35, 0.10)
        mid = np.where(fraud, 0.75, 0.45)
        self.kyc_level = np.where(kyc_roll < low, 1, np.where(kyc_roll < mid, 2, 3)).astype(
            np.int8
        )
        self.is_merchant = (~fraud) & (rng.random(n) < cfg.merchant_fraction)
        self.device_count = np.clip(
            rng.poisson(np.where(fraud, 3.2, 1.4)) + 1, 1, 12
        ).astype(np.int8)
        self.risk_propensity = np.clip(
            rng.normal(np.where(fraud, 0.65, 0.25), 0.15), 0, 1
        ).astype(np.float32)
        self.activity_level = (
            rng.gamma(2.0, 1.0, size=n) * np.where(self.is_merchant, 1.2, 0.6) + 0.2
        ).astype(np.float64)
        self.merchant_index = np.flatnonzero(self.is_merchant)

        # CSR of accounts grouped by community, for O(1) intra-community picks.
        order = np.argsort(self.community, kind="stable")
        self.community_members = order.astype(np.int64)
        counts = np.bincount(self.community, minlength=cfg.num_communities)
        self.community_offsets = np.zeros(cfg.num_communities + 1, dtype=np.int64)
        np.cumsum(counts, out=self.community_offsets[1:])

    # ------------------------------------------------------------------
    @property
    def num_accounts(self) -> int:
        """Population size."""
        return int(self.community.size)

    @staticmethod
    def user_id(index: int) -> str:
        """Canonical account id for array position ``index``."""
        return f"u{index:07d}"

    def iter_profiles(self, indices: "np.ndarray | None" = None) -> Iterator[UserProfile]:
        """Yield materialized profiles for ``indices`` (default: everyone), in
        order, repeats included.

        Profiles are built :data:`PROFILE_CHUNK` indices at a time: one
        fancy-index gather per column, one ``tolist()`` of each gather, then
        one positional constructor call per profile — the same Python
        ``int`` / ``float`` / ``bool`` values that ``int()`` / ``float()`` /
        ``bool()`` of the numpy scalars give, at a fraction of the
        per-element cost.  Beyond what the caller keeps, one chunk's
        gathered columns and profiles (a few megabytes) are held, whatever
        the number of indices.
        """
        if indices is None:
            indices = np.arange(self.num_accounts)
        indices = np.asarray(indices, dtype=np.intp)
        for start in range(0, indices.size, PROFILE_CHUNK):
            yield from self._materialize(indices[start : start + PROFILE_CHUNK])

    def _materialize(self, indices: np.ndarray) -> List[UserProfile]:
        # Positional, in UserProfile's field order: a keyword call costs
        # about three times as much per profile.
        return list(
            map(
                UserProfile,
                map(self.user_id, indices.tolist()),
                self.age[indices].tolist(),
                map(_GENDER_CODES.__getitem__, self.gender_code[indices].tolist()),
                map(city_name, self.home_city[indices].tolist()),
                self.account_age_days[indices].tolist(),
                self.kyc_level[indices].tolist(),
                self.is_merchant[indices].tolist(),
                self.device_count[indices].tolist(),
                self.community[indices].tolist(),
                self.is_fraudster[indices].tolist(),
                self.risk_propensity[indices].tolist(),
                self.activity_level[indices].tolist(),
            )
        )


def profiles_by_id(profiles: List[UserProfile]) -> Dict[str, UserProfile]:
    """Index profiles by ``user_id``; raises on duplicates."""
    index: Dict[str, UserProfile] = {}
    for profile in profiles:
        if profile.user_id in index:
            raise DataGenerationError(f"duplicate user_id {profile.user_id}")
        index[profile.user_id] = profile
    return index
