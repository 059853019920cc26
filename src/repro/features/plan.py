"""The FeaturePlan: one declarative feature spec, one executor, two worlds.

The paper's operational core is that the *same* feature vector — 52 basic
features followed by the configured node-embedding blocks — is computed
offline on MaxCompute for training and online in the Model Server under a
tens-of-milliseconds SLA.  Any drift between the two implementations is
training/serving skew and silently destroys model quality.

A :class:`FeaturePlan` is a serialisable, immutable description of that
vector: the ordered basic-feature block plus the ordered embedding blocks
(set name, dimension) and which transaction endpoint(s) each block attaches
to.  The trainer exports the plan alongside the model file; the Model Server
loads both.  A single :class:`FeaturePlanExecutor` turns a plan plus a
:class:`FeatureSource` (in-memory for the offline pipeline, HBase-backed for
the online path) into design matrices, so there is exactly one assembly
implementation to keep correct.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro.datagen.schema import Transaction, TransferFields, UserProfile
from repro.exceptions import FeatureError
from repro.features.aggregation import (
    AGGREGATION_FEATURE_NAMES,
    AggregationWindowSpec,
    PointInTimeAggregateProvider,
    aggregation_vector,
)
from repro.features.basic import (
    BASIC_FEATURE_NAMES,
    ProfileCells,
    cells_for,
    fill_basic_block,
    labelled_matrix,
)
from repro.features.matrix import FeatureMatrix
from repro.nrl.embeddings import EmbeddingSet

class EmbeddingSide(str, Enum):
    """Which transaction endpoint's embedding to attach."""

    PAYER = "payer"
    PAYEE = "payee"
    BOTH = "both"


#: Valid values of :attr:`FeaturePlan.embedding_side`.
EMBEDDING_SIDES = tuple(side.value for side in EmbeddingSide)


@dataclass(frozen=True)
class EmbeddingBlockSpec:
    """One embedding block of the final vector: a named set and its width."""

    set_name: str
    dimension: int

    def __post_init__(self) -> None:
        if not self.set_name:
            raise FeatureError("embedding block needs a non-empty set name")
        if self.dimension < 1:
            raise FeatureError(
                f"embedding block {self.set_name!r} needs a positive dimension"
            )

    def to_dict(self) -> Dict[str, object]:
        return {"set_name": self.set_name, "dimension": int(self.dimension)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EmbeddingBlockSpec":
        return cls(set_name=str(data["set_name"]), dimension=int(data["dimension"]))


@dataclass(frozen=True)
class FeaturePlan:
    """Ordered, immutable spec of the full feature vector.

    The column layout is the basic-feature block, then (when ``aggregation``
    is set) the 12 sliding-window aggregation features, then, for every
    embedding block in order, one sub-block per side (payer before payee when
    ``embedding_side`` is ``"both"``).

    ``aggregation`` is the exported windowing definition: offline assembly and
    the online streaming engine are both configured from this one
    :class:`~repro.features.aggregation.AggregationWindowSpec`, so the two
    worlds cannot disagree about window length or bucketing.
    """

    embedding_blocks: Tuple[EmbeddingBlockSpec, ...] = ()
    embedding_side: str = "both"
    basic_feature_names: Tuple[str, ...] = field(
        default_factory=lambda: tuple(BASIC_FEATURE_NAMES)
    )
    aggregation: Optional[AggregationWindowSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "embedding_blocks", tuple(self.embedding_blocks))
        object.__setattr__(
            self, "basic_feature_names", tuple(self.basic_feature_names)
        )
        if self.embedding_side not in EMBEDDING_SIDES:
            raise FeatureError(
                f"embedding_side must be one of {EMBEDDING_SIDES}, "
                f"got {self.embedding_side!r}"
            )
        names = [block.set_name for block in self.embedding_blocks]
        if len(set(names)) != len(names):
            raise FeatureError(f"duplicate embedding set names in plan: {names}")
        if self.basic_feature_names != tuple(BASIC_FEATURE_NAMES):
            # Fail at load_model, not by labelling canonical-order values with
            # another code version's names.
            raise FeatureError(
                "plan's basic_feature_names differ from this build's BASIC_FEATURE_NAMES"
            )

    # ------------------------------------------------------------------
    @property
    def sides(self) -> Tuple[str, ...]:
        """The transaction endpoints each embedding block attaches to."""
        if self.embedding_side == "both":
            return ("payer", "payee")
        return (self.embedding_side,)

    @property
    def feature_names(self) -> List[str]:
        """Ordered names of every column the plan produces."""
        names = list(self.basic_feature_names)
        if self.aggregation is not None:
            names.extend(AGGREGATION_FEATURE_NAMES)
        for block in self.embedding_blocks:
            for side in self.sides:
                names.extend(
                    f"{block.set_name}_{side}_{dim}" for dim in range(block.dimension)
                )
        return names

    @property
    def num_features(self) -> int:
        """Total width of the assembled feature vector."""
        per_block = sum(block.dimension for block in self.embedding_blocks)
        aggregation_width = len(AGGREGATION_FEATURE_NAMES) if self.aggregation else 0
        return (
            len(self.basic_feature_names)
            + aggregation_width
            + per_block * len(self.sides)
        )

    @property
    def embedding_specs(self) -> List[Tuple[str, int]]:
        """(set name, dimension) pairs — the legacy wire format."""
        return [(block.set_name, block.dimension) for block in self.embedding_blocks]

    # ------------------------------------------------------------------
    @classmethod
    def from_embedding_sets(
        cls,
        embedding_sets: Mapping[str, EmbeddingSet],
        *,
        embedding_side: str = "both",
        aggregation: Optional[AggregationWindowSpec] = None,
    ) -> "FeaturePlan":
        """Plan matching an ordered mapping of trained embedding sets."""
        blocks = tuple(
            EmbeddingBlockSpec(set_name=name, dimension=embeddings.dimension)
            for name, embeddings in embedding_sets.items()
        )
        return cls(
            embedding_blocks=blocks,
            embedding_side=embedding_side,
            aggregation=aggregation,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form of the plan (the exported model artefact)."""
        return {
            "embedding_blocks": [block.to_dict() for block in self.embedding_blocks],
            "embedding_side": self.embedding_side,
            "basic_feature_names": list(self.basic_feature_names),
            "aggregation": self.aggregation.to_dict() if self.aggregation else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FeaturePlan":
        """Rebuild a plan from :meth:`to_dict` output (legacy JSON accepted)."""
        blocks = tuple(
            EmbeddingBlockSpec.from_dict(item)
            for item in data.get("embedding_blocks", [])
        )
        aggregation_data = data.get("aggregation")
        return cls(
            embedding_blocks=blocks,
            embedding_side=str(data.get("embedding_side", "both")),
            basic_feature_names=tuple(
                data.get("basic_feature_names", BASIC_FEATURE_NAMES)
            ),
            aggregation=(
                AggregationWindowSpec.from_dict(aggregation_data)
                if aggregation_data
                else None
            ),
        )

    def to_json(self) -> str:
        """The plan as a JSON string (what ships next to the model file)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, payload: str) -> "FeaturePlan":
        """Load a plan from its :meth:`to_json` string."""
        return cls.from_dict(json.loads(payload))


# ---------------------------------------------------------------------------
# Feature sources: where the executor reads per-user data from
# ---------------------------------------------------------------------------


class FeatureSource(abc.ABC):
    """Supplies per-user profiles and embedding vectors to the executor.

    Implementations exist for the offline world (in-memory profiles and
    :class:`EmbeddingSet` objects) and the online world (Ali-HBase rows);
    the executor is agnostic to which one it is running against.
    """

    @abc.abstractmethod
    def profiles_for(self, user_ids: Sequence[str]) -> Dict[str, ProfileCells]:
        """Per account, its decoded ten-float profile block and home city
        (:func:`~repro.features.basic.profile_cells`); accounts left out are
        scored with the cold-account default."""

    @abc.abstractmethod
    def embedding_matrix(
        self, block: EmbeddingBlockSpec, user_ids: Sequence[str]
    ) -> np.ndarray:
        """(len(user_ids), block.dimension) matrix; unknown users are zeros."""

    def aggregate_rows(self, user_ids: Sequence[str]) -> Mapping[str, Mapping[str, Any]]:
        """Per-user sliding-window aggregate rows (see ``AGGREGATE_ROW_FIELDS``).

        Non-abstract for backwards compatibility: sources without aggregate
        data serve every account as cold (all-zero aggregates).
        """
        return {}

    def aggregation_block(
        self, transactions: Sequence[TransferFields]
    ) -> Optional[np.ndarray]:
        """Optional point-in-time aggregation block for a transaction batch.

        Sources that can compute each transaction's aggregates *as of its own
        event time* (the offline training path, via
        :class:`~repro.features.streaming.PointInTimeAggregationSource`)
        return the (n, 12) block directly; sources serving precomputed
        per-user rows (the online HBase path) return None and the executor
        falls back to :meth:`aggregate_rows`.
        """
        return None


class InMemoryFeatureSource(FeatureSource):
    """Offline source: the profile dict, trained embedding sets and (optionally)
    an aggregate provider — either a plain ``user_id -> row`` mapping or any
    aggregator exposing ``hbase_row(user_id)`` (batch or streaming), which is
    queried live so offline assembly always sees the provider's current state.
    """

    def __init__(
        self,
        profiles: Mapping[str, UserProfile],
        embedding_sets: Optional[Mapping[str, EmbeddingSet]] = None,
        aggregates: Optional[Any] = None,
    ) -> None:
        self._profiles = profiles
        self._embedding_sets = dict(embedding_sets or {})
        self._aggregates = aggregates

    def profiles_for(self, user_ids: Sequence[str]) -> Dict[str, ProfileCells]:
        return cells_for(self._profiles, user_ids)

    def aggregate_rows(self, user_ids: Sequence[str]) -> Mapping[str, Mapping[str, Any]]:
        if self._aggregates is None or isinstance(
            self._aggregates, PointInTimeAggregateProvider
        ):
            return {}
        if hasattr(self._aggregates, "hbase_row"):
            return {
                user_id: self._aggregates.hbase_row(user_id) for user_id in user_ids
            }
        return {
            user_id: self._aggregates[user_id]
            for user_id in user_ids
            if user_id in self._aggregates
        }

    def aggregation_block(
        self, transactions: Sequence[TransferFields]
    ) -> Optional[np.ndarray]:
        # Explicit capability dispatch: only providers that opted into the
        # marker base compute per-transaction blocks; every other provider
        # serves per-user rows.  The point-in-time providers are offline
        # training's, which assembles whole Transaction records.
        if isinstance(self._aggregates, PointInTimeAggregateProvider):
            return self._aggregates.aggregation_block(cast(Sequence[Transaction], transactions))
        return None

    def embedding_matrix(
        self, block: EmbeddingBlockSpec, user_ids: Sequence[str]
    ) -> np.ndarray:
        embeddings = self._embedding_sets.get(block.set_name)
        if embeddings is None:
            raise FeatureError(
                f"plan references embedding set {block.set_name!r} "
                f"but only {sorted(self._embedding_sets)} are available"
            )
        if embeddings.dimension != block.dimension:
            raise FeatureError(
                f"embedding set {block.set_name!r} has dimension "
                f"{embeddings.dimension}, plan expects {block.dimension}"
            )
        return embeddings.lookup(list(user_ids))


# ---------------------------------------------------------------------------
# The single executor shared by offline training and online serving
# ---------------------------------------------------------------------------


class FeaturePlanExecutor:
    """Executes a :class:`FeaturePlan` against a :class:`FeatureSource`.

    Column names, the matrix width and every block's column range are fixed
    at construction; a call is then one pass over its transactions.
    """

    def __init__(self, plan: FeaturePlan, source: FeatureSource) -> None:
        self.plan = plan
        self.source = source
        self._feature_names = plan.feature_names
        offset = len(BASIC_FEATURE_NAMES)
        width = len(AGGREGATION_FEATURE_NAMES) if plan.aggregation is not None else 0
        self._aggregation_columns = slice(offset, offset + width)
        offset += width
        #: Each embedding block with the columns of its per-side sub-blocks.
        self._embedding_columns: List[Tuple[EmbeddingBlockSpec, slice]] = []
        for block in plan.embedding_blocks:
            width = block.dimension * len(plan.sides)
            self._embedding_columns.append((block, slice(offset, offset + width)))
            offset += width

    # ------------------------------------------------------------------
    def assemble(
        self,
        transactions: Sequence[Transaction],
        *,
        with_labels: bool = True,
    ) -> FeatureMatrix:
        """:meth:`feature_values` as a design matrix with the column names, the
        transaction ids and (``with_labels``) the fraud labels."""
        transactions = list(transactions)
        values = self.feature_values(transactions)
        return labelled_matrix(list(self._feature_names), values, transactions, with_labels)

    def feature_values(self, transactions: Sequence[TransferFields]) -> np.ndarray:
        """The ``(n, num_features)`` matrix of a batch: basic ⊕ aggregation ⊕
        embedding blocks, read straight off the given records (transactions
        or the Model Server's requests — nothing is copied per record).

        The call's distinct accounts are indexed once and each family is read
        once over them — ``profiles_for``, ``aggregate_rows`` (unless the
        source computes the point-in-time block) and one ``embedding_matrix``
        per block, gathered per side by index.  Every block writes into its
        column range of the one preallocated matrix.  A row's values do not
        depend on which other rows share its call.
        """
        count = len(transactions)
        values = np.empty((count, len(self._feature_names)))
        if transactions:
            ids = {
                "payer": [t.payer_id for t in transactions],
                "payee": [t.payee_id for t in transactions],
            }
            accounts = list(dict.fromkeys(ids["payer"] + ids["payee"]))
            fill_basic_block(
                values[:, : len(BASIC_FEATURE_NAMES)],
                transactions,
                self.source.profiles_for(accounts),
            )
            if self.plan.aggregation is not None:
                values[:, self._aggregation_columns] = self._aggregation_block(
                    transactions, accounts
                )
            if self._embedding_columns:
                slot = {account: index for index, account in enumerate(accounts)}
                # (count, sides): row i gathers its payer's then payee's vector.
                gather = np.array([[slot[a] for a in ids[side]] for side in self.plan.sides]).T
                for block, columns in self._embedding_columns:
                    matrix = self.source.embedding_matrix(block, accounts)
                    if matrix.shape != (len(accounts), block.dimension):
                        raise FeatureError(
                            f"source returned a {matrix.shape} matrix for embedding "
                            f"block {block.set_name!r} over {len(accounts)} accounts"
                        )
                    values[:, columns] = matrix.take(gather, axis=0).reshape(count, -1)
        return values

    def _aggregation_block(
        self, transactions: Sequence[TransferFields], accounts: Sequence[str]
    ) -> Union[np.ndarray, List[List[float]]]:
        """The 12-column aggregation block: point-in-time when the source can
        compute it, otherwise from the source's precomputed per-user rows."""
        point_in_time = self.source.aggregation_block(transactions)
        if point_in_time is not None:
            return point_in_time
        rows = self.source.aggregate_rows(accounts)
        empty: Mapping[str, object] = {}
        return [
            aggregation_vector(
                rows.get(txn.payer_id) or empty,
                rows.get(txn.payee_id) or empty,
                txn.payer_id,
            )
            for txn in transactions
        ]

    def assemble_single(self, transaction: Transaction) -> np.ndarray:
        """Feature vector for one transaction (the scalar serving path)."""
        return self.feature_values([transaction])[0]
