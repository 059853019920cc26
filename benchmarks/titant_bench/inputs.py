"""Workload inputs, generated from the seed alone.

Everything the program under test sees is built here: the synthetic worlds,
the T+1 dataset slice, the request sequences and (for the cold workload) the
published hot rows.  Same seed, same bytes — the harness tests hash these to
prove it.

Seeding has two levels.  The *dataset* — population, history, the streamed
200k accounts — is drawn from the fixed ``WORLD_SEED``; ``--seed`` draws which
of the dataset's requests are served (a sample, kept in event order) and
seeds the training RNGs.  Drawing the whole world from ``--seed`` was
measured first: on ten seeds the same code's throughput differed by up to
20 % between worlds (seed 5 slowest, seeds 1-2 fastest, in every set taken),
several times the run-to-run noise, which would make the spread over seeds a
statement about the generator and not about the system.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.datagen import generate_world
from repro.datagen.datasets import DatasetBuilder, DatasetSlice
from repro.datagen.profiles import ProfileConfig
from repro.datagen.schema import Transaction, UserProfile
from repro.datagen.stream import ScalableWorldStream
from repro.datagen.transactions import WorldConfig
from repro.features.streaming import event_order

#: Seed of the dataset every run shares (see the module docstring).
WORLD_SEED = 19

WORKLOADS = (
    "serve_scalar_full",
    "serve_batch_basic_cold",
    "serve_coalesced_full",
    "offline_t1",
)


@dataclass(frozen=True)
class Sizing:
    """Input sizes of one workload (``smoke`` shrinks them for the tests)."""

    users: int
    transactions_per_user_per_day: float
    network_days: int
    train_days: int
    #: Days generated from the test day onward (the serving horizon).
    serve_days: int
    #: Ops per round and requests per op.
    ops_per_round: int
    requests_per_op: int
    #: Cold workload only: streamed population and the share bulk-loaded.
    stream_accounts: int = 0
    hot_fraction: float = 0.0

    @property
    def test_day(self) -> int:
        return self.network_days + self.train_days


#: Sized on the 2-vCPU sandbox so one round is about a second and one set-up
#: two seconds (the driver's budget is ~37 s per run, set-up done three times).
FULL = {
    "serve_scalar_full": Sizing(600, 1.0, 10, 4, 2, 1000, 1),
    "serve_batch_basic_cold": Sizing(300, 1.0, 10, 4, 1, 100, 256, 200_000, 0.2),
    "serve_coalesced_full": Sizing(600, 1.0, 10, 4, 5, 100, 32),
    "offline_t1": Sizing(200, 1.0, 10, 4, 1, 4, 1),
}
#: The cold workload draws this many times the requests it serves, to sample from.
POOL_FACTOR = 1.5

SMOKE = {
    "serve_scalar_full": Sizing(60, 1.0, 5, 3, 3, 30, 1),
    "serve_batch_basic_cold": Sizing(60, 1.0, 5, 3, 1, 4, 32, 2_000, 0.2),
    "serve_coalesced_full": Sizing(60, 1.0, 5, 3, 3, 4, 16),
    "offline_t1": Sizing(60, 1.0, 5, 3, 1, 4, 1),
}


@dataclass
class Inputs:
    """The generated inputs of one workload run."""

    workload: str
    seed: int
    sizing: Sizing
    profiles: Dict[str, UserProfile]
    dataset: DatasetSlice
    #: Event-ordered transactions to serve (test day onward, or the stream's).
    serve_transactions: List[Transaction]
    #: Cold workload only: the profile rows bulk-loaded into Ali-HBase.
    hot_rows: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Events drawn from the generators (for ``datagen.events_per_s``).
    events_generated: int = 0

    @property
    def history(self) -> List[Transaction]:
        """Pre-test-day history in event order (what T+1 aggregates over)."""
        return sorted(
            self.dataset.network_transactions + self.dataset.train_transactions,
            key=event_order,
        )


def sizing_for(workload: str, *, smoke: bool) -> Sizing:
    return (SMOKE if smoke else FULL)[workload]


def _small_world(sizing: Sizing):
    return generate_world(
        WorldConfig(
            profile=ProfileConfig(
                num_users=sizing.users,
                num_communities=8 if sizing.users >= 100 else 3,
                fraudster_fraction=0.03,
                seed=WORLD_SEED,
            ),
            num_days=sizing.test_day + sizing.serve_days,
            transactions_per_user_per_day=sizing.transactions_per_user_per_day,
            seed=WORLD_SEED,
        )
    )


def _cold_stream(sizing: Sizing) -> ScalableWorldStream:
    accounts = sizing.stream_accounts
    return ScalableWorldStream(
        WorldConfig(
            profile=ProfileConfig(
                num_users=accounts,
                num_communities=max(8, accounts // 5_000),
                fraudster_fraction=0.02,
                seed=WORLD_SEED,
            ),
            num_days=2,
            transactions_per_user_per_day=0.5,
            seed=WORLD_SEED,
        )
    )


def profile_row(profile: UserProfile) -> Dict[str, object]:
    """The basic-features HBase row published for a streamed account."""
    return {
        "age": profile.age,
        "gender": profile.gender.value,
        "home_city": profile.home_city,
        "account_age_days": profile.account_age_days,
        "kyc_level": profile.kyc_level,
        "is_merchant": profile.is_merchant,
        "device_count": profile.device_count,
        "community": profile.community,
    }


def generate(workload: str, seed: int, *, smoke: bool = False) -> Inputs:
    """Build the inputs of ``workload`` from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sizing = sizing_for(workload, smoke=smoke)
    world = _small_world(sizing)
    dataset = DatasetBuilder(
        world, network_days=sizing.network_days, train_days=sizing.train_days
    ).build(sizing.test_day)
    events = len(world.transactions)
    hot_rows: Dict[str, Dict[str, object]] = {}
    needed = sizing.ops_per_round * sizing.requests_per_op
    if workload == "serve_batch_basic_cold":
        stream = _cold_stream(sizing)
        pool: List[Transaction] = []
        for batch in stream.batches(4096):
            pool.extend(batch)
            if len(pool) >= needed * POOL_FACTOR:
                break
        events += len(pool)
        accounts = stream.accounts
        hottest = np.argsort(accounts.activity_level, kind="stable")[
            -int(accounts.num_accounts * sizing.hot_fraction):
        ]
        hot_rows = {
            profile.user_id: profile_row(profile)
            for profile in accounts.iter_profiles(hottest)
        }
    else:
        pool = sorted(
            world.transactions_in_days(sizing.test_day, world.config.num_days),
            key=event_order,
        )
    if len(pool) < needed:
        raise ValueError(
            f"{workload}: generated {len(pool)} requests, one round needs {needed}"
        )
    chosen = np.random.default_rng(seed).choice(len(pool), size=needed, replace=False)
    serve = [pool[int(position)] for position in sorted(chosen)]
    return Inputs(
        workload=workload,
        seed=seed,
        sizing=sizing,
        profiles=world.profiles_by_id,
        dataset=dataset,
        serve_transactions=serve,
        hot_rows=hot_rows,
        events_generated=events,
    )


def digest(inputs: Inputs) -> str:
    """SHA-256 over every generated input the program will see."""
    sha = hashlib.sha256()
    for group in (
        inputs.dataset.network_transactions,
        inputs.dataset.train_transactions,
        inputs.serve_transactions,
    ):
        for txn in group:
            sha.update(repr(sorted(txn.to_row().items())).encode())
    for user_id in sorted(inputs.profiles):
        sha.update(repr(sorted(inputs.profiles[user_id].to_row().items())).encode())
    for user_id in sorted(inputs.hot_rows):
        sha.update(repr((user_id, sorted(inputs.hot_rows[user_id].items()))).encode())
    return sha.hexdigest()
