"""Synthetic transaction-world generator.

The paper evaluates TitAnt on Ant Financial production transaction logs, which
are proprietary.  This package builds the closest synthetic equivalent that
exercises the same code paths and preserves the statistical properties the
evaluation depends on:

* heavy class imbalance (a small fraction of transactions are fraudulent),
* repeat-offender fraudsters (about 70 % of fraudsters defraud more than once),
* a "gathering" topology where the victims of one fraudster are 2-hop
  neighbours of each other through the fraudster node,
* per-transaction context (amount, hour, channel, device, transfer city) whose
  distribution shifts for fraudulent transfers,
* delayed labels collected from user fraud reports.

The public entry points are :class:`WorldConfig` / :func:`generate_world` for a
materialized small-world horizon, :class:`WorldStream` /
:class:`ScalableWorldStream` for streamed (bounded-memory, resumable)
generation up to millions of accounts, and :class:`DatasetBuilder` for the
paper's T+1 rolling slices (90 days of records for the transaction network,
14 days for training, 1 day for testing).
"""

from repro.datagen.schema import (
    Transaction,
    UserProfile,
    TransactionChannel,
    Gender,
    CITY_FRAUD_TIERS,
    transaction_sort_key,
)
from repro.datagen.profiles import ColumnarAccounts, ProfileConfig, ProfileGenerator
from repro.datagen.fraud import (
    FRAUD_TYPOLOGIES,
    ColumnarFraudPlanner,
    FraudConfig,
    FraudsterBehaviorModel,
    FraudsterState,
    PlannedFraudBatch,
    TypologyConfig,
    TypologyFraudSuite,
)
from repro.datagen.transactions import (
    ArrivalConfig,
    BurstSpec,
    DIURNAL_HOURLY_WEIGHTS,
    TransactionWorld,
    WorldConfig,
    generate_world,
)
from repro.datagen.stream import (
    ScalableWorldStream,
    StreamCheckpoint,
    TransactionStream,
    WorldStream,
)
from repro.datagen.datasets import DatasetBuilder, DatasetSlice, RollingDatasets

__all__ = [
    "Transaction",
    "UserProfile",
    "TransactionChannel",
    "Gender",
    "CITY_FRAUD_TIERS",
    "transaction_sort_key",
    "ColumnarAccounts",
    "ProfileConfig",
    "ProfileGenerator",
    "FRAUD_TYPOLOGIES",
    "ColumnarFraudPlanner",
    "FraudConfig",
    "FraudsterBehaviorModel",
    "FraudsterState",
    "PlannedFraudBatch",
    "TypologyConfig",
    "TypologyFraudSuite",
    "ArrivalConfig",
    "BurstSpec",
    "DIURNAL_HOURLY_WEIGHTS",
    "WorldConfig",
    "TransactionWorld",
    "generate_world",
    "TransactionStream",
    "WorldStream",
    "ScalableWorldStream",
    "StreamCheckpoint",
    "DatasetBuilder",
    "DatasetSlice",
    "RollingDatasets",
]
