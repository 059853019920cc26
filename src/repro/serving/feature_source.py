"""Online :class:`FeatureSource`: per-user rows from Ali-HBase.

The Model Server executes the exported :class:`FeaturePlan` against this
source.  Profiles come from the basic-features column family (one qualifier
per attribute) and embeddings from the embeddings family, where each set is
stored as a single array-valued qualifier (``dw`` → list of floats) rather
than one scalar cell per dimension, so a block read is one cell instead of
``d``.  All reads go through :meth:`HBaseClient.multi_get`, one batched call
per column family per batch of transactions; the rows it returns are the
store's own read-only snapshots (an unpublished account's is the shared empty
row), read here and never edited, and decoded once per snapshot: the decoded
profile cells and vectors are memoised on the ``Row`` every connection shares.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.datagen.schema import Gender, UserProfile
from repro.exceptions import ServingError
from repro.features.basic import DEFAULT_CELLS, DEFAULT_PROFILE, ProfileCells, profile_cells
from repro.features.plan import EmbeddingBlockSpec, FeatureSource
from repro.hbase.client import (
    AGGREGATES_FAMILY,
    BASIC_FEATURES_FAMILY,
    DEFAULT_FEATURE_TABLE,
    EMBEDDINGS_FAMILY,
    HBaseClient,
)
from repro.hbase.store import Row


def profile_row(profile: UserProfile) -> Dict[str, Any]:
    """The basic-features HBase row published for ``profile``: one cell per
    attribute the readers decode (:func:`profile_from_row`,
    :func:`~repro.features.basic.profile_cells`) and nothing else."""
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


def profile_from_row(user_id: str, row: Mapping[str, Any]) -> UserProfile:
    """Deserialise a basic-features HBase row; missing cells get
    :data:`~repro.features.basic.DEFAULT_PROFILE`'s, so a cold account is the
    same profile offline and online."""
    default = DEFAULT_PROFILE
    return UserProfile(
        user_id=user_id,
        age=int(row.get("age", default.age)),
        gender=Gender(row.get("gender", default.gender)),
        home_city=str(row.get("home_city", default.home_city)),
        account_age_days=int(row.get("account_age_days", default.account_age_days)),
        kyc_level=int(row.get("kyc_level", default.kyc_level)),
        is_merchant=bool(row.get("is_merchant", default.is_merchant)),
        device_count=int(row.get("device_count", default.device_count)),
        community=int(row.get("community", default.community)),
    )


def embedding_cell(vector: Iterable[float]) -> Tuple[float, ...]:
    """One embedding set's cell in the embeddings family: the whole vector in
    one array-valued qualifier (a block read online is a single cell fetch,
    not ``d``), as a tuple so readers sharing the cell cannot corrupt it."""
    return tuple(float(value) for value in vector)


def embedding_vectors(row: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Every vector :func:`embedding_cell` stored in an embeddings row, by set
    name, read-only: :meth:`Row.decoded` shares them with every reader."""
    vectors: Dict[str, np.ndarray] = {}
    for set_name, cell in row.items():
        vector = vectors[set_name] = np.array(cell, dtype=np.float64).ravel()
        vector.flags.writeable = False
    return vectors


class HBaseFeatureSource(FeatureSource):
    """Reads profiles and embedding blocks from the TitAnt feature store."""

    def __init__(self, hbase: HBaseClient, table_name: str = DEFAULT_FEATURE_TABLE) -> None:
        self.hbase = hbase
        self.table_name = table_name
        #: (user, block) reads that found no stored embedding cell at all —
        #: distinguishes a genuinely missing row (cold account, never
        #: published) from a stored vector that happens to be all zeros.  The
        #: executor reads a block once per call over its distinct accounts, so
        #: an account on both sides of a call counts once per block.
        self.missing_embeddings = 0

    # ------------------------------------------------------------------
    def profiles_for(self, user_ids: Sequence[str]) -> Dict[str, ProfileCells]:
        """Profile cells decoded straight from the stored read-only rows, once
        per snapshot (:meth:`Row.decoded`); an unpublished account's empty row
        is the shared cold-account default, not decoded at all."""
        rows = self.hbase.multi_get(self.table_name, user_ids, BASIC_FEATURES_FAMILY)
        return {
            user_id: row.decoded(profile_cells) if row else DEFAULT_CELLS
            for user_id, row in rows.items()
        }

    def aggregate_rows(self, user_ids: Sequence[str]) -> Mapping[str, Mapping[str, Any]]:
        """Latest per-user sliding-window aggregate rows.

        Rows are written through by the online streaming engine on every
        ingested transaction (each write invalidates the client-side row
        cache), so the next request for an account always sees its aggregates
        as of that account's most recent transaction.  A stored row is
        anchored at the instant it was written: for an account *idle* since
        then, events that have since aged past the window edge still count
        until the account's next transaction or the updater's periodic
        refresh (``refresh_interval_seconds``) re-anchors the row — with
        sub-day windows, configure the refresh to bound that decay lag.
        Cold accounts get the shared empty row, which the plan executor scores
        as all-zero aggregates — identical to the offline treatment of unseen
        users.  Rows are read-only views of the store's snapshots.
        """
        return self.hbase.multi_get(self.table_name, user_ids, AGGREGATES_FAMILY)

    def embedding_matrix(
        self, block: EmbeddingBlockSpec, user_ids: Sequence[str]
    ) -> np.ndarray:
        rows = self.hbase.multi_get(self.table_name, user_ids, EMBEDDINGS_FAMILY)
        vectors = {user_id: self._vector_from_row(block, row) for user_id, row in rows.items()}
        # One np.array call copies the block out: no caller aliases a stored vector.
        return np.array(
            [vectors[user_id] for user_id in user_ids], dtype=np.float64
        ).reshape(len(user_ids), block.dimension)

    def _vector_from_row(self, block: EmbeddingBlockSpec, row: Row) -> np.ndarray:
        vector = row.decoded(embedding_vectors).get(block.set_name)
        if vector is not None:
            if vector.shape[0] != block.dimension:
                raise ServingError(
                    f"stored {block.set_name!r} embedding has "
                    f"{vector.shape[0]} dimensions, plan expects {block.dimension}"
                )
            return vector
        # No array cell: the embedding row was never published for this
        # account.  Serve the explicit neutral default — the zero vector,
        # exactly what the offline ``EmbeddingSet.lookup`` uses for unknown
        # users — and count it, so missing rows are observable instead of
        # masquerading as a trained all-zero embedding.
        self.missing_embeddings += 1
        return np.zeros(block.dimension, dtype=np.float64)
