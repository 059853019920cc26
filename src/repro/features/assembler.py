"""Feature assembly: basic features + user node embeddings.

Section 3.3 of the paper: "Basic features and aggregated features are then
concatenated together."  The aggregated features are the user node embeddings
learned from the transaction network.  For a transaction the embeddings of
both endpoints matter — the payer (potential victim) and the payee (potential
fraudster, the node the "gathering" structure concentrates on) — so the
assembler supports attaching either side or both.

The assembler is a thin offline-facing wrapper around the shared
:class:`~repro.features.plan.FeaturePlanExecutor`: it derives the
:class:`~repro.features.plan.FeaturePlan` from the trained embedding sets and
executes it against an in-memory source.  The online Model Server executes
the *same* plan against Ali-HBase, so the two paths cannot drift.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.datagen.schema import Transaction, UserProfile
from repro.features.matrix import FeatureMatrix
from repro.features.plan import (
    EmbeddingSide,
    FeaturePlan,
    FeaturePlanExecutor,
    InMemoryFeatureSource,
)
from repro.nrl.embeddings import EmbeddingSet


class FeatureAssembler:
    """Builds the final design matrix for the detection models.

    Parameters
    ----------
    profiles:
        ``user_id -> UserProfile`` used by the basic-feature extractor.
    embedding_sets:
        Ordered mapping of name → :class:`EmbeddingSet` to concatenate after
        the basic features (e.g. ``{"dw": deepwalk_embeddings}`` or
        ``{"dw": ..., "s2v": ...}`` for the paper's combined configuration).
        An empty mapping reproduces the "Basic Features" rows of Table 1.
    embedding_side:
        Which endpoint's embedding to use; ``BOTH`` concatenates payer then
        payee vectors for every embedding set.
    aggregator:
        Optional sliding-window aggregate provider — a fitted
        :class:`~repro.features.aggregation.TransactionAggregator` or a
        :class:`~repro.features.streaming.SlidingWindowAggregator`.  When
        given, the plan carries the provider's
        :class:`~repro.features.aggregation.AggregationWindowSpec` and the
        design matrix gains the 12 aggregation features between the basic
        block and the embeddings, exactly as the online path assembles them.
    """

    def __init__(
        self,
        profiles: Dict[str, UserProfile],
        embedding_sets: Optional[Dict[str, EmbeddingSet]] = None,
        *,
        embedding_side: EmbeddingSide = EmbeddingSide.BOTH,
        aggregator: Optional[object] = None,
    ) -> None:
        self._side = EmbeddingSide(embedding_side)
        self._plan = FeaturePlan.from_embedding_sets(
            embedding_sets or {},
            embedding_side=self._side.value,
            aggregation=aggregator.window_spec if aggregator is not None else None,
        )
        self._executor = FeaturePlanExecutor(
            self._plan,
            InMemoryFeatureSource(profiles, embedding_sets, aggregates=aggregator),
        )

    # ------------------------------------------------------------------
    @property
    def plan(self) -> FeaturePlan:
        """The serialisable feature spec exported alongside trained models."""
        return self._plan

    # ------------------------------------------------------------------
    def assemble(
        self,
        transactions: Sequence[Transaction],
        *,
        with_labels: bool = True,
    ) -> FeatureMatrix:
        """Basic features concatenated with the configured embeddings."""
        return self._executor.assemble(transactions, with_labels=with_labels)

    def assemble_single(self, transaction: Transaction) -> np.ndarray:
        """Feature vector for one transaction (the online scoring path)."""
        return self._executor.assemble_single(transaction)
