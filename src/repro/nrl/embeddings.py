"""Embedding containers.

An :class:`EmbeddingSet` holds the learned user node embeddings: a dense
matrix plus the node-id index.  It is the artefact the offline pipeline writes
to Ali-HBase (one column per dimension, per the paper's Figure 7) and the
Model Server reads back at prediction time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.exceptions import EmbeddingError


class EmbeddingSet:
    """Immutable mapping ``node id -> d-dimensional vector``."""

    def __init__(self, node_ids: Sequence[str], matrix: np.ndarray, *, name: str = "embeddings"):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise EmbeddingError("embedding matrix must be 2-dimensional")
        if len(node_ids) != matrix.shape[0]:
            raise EmbeddingError(
                f"{len(node_ids)} node ids do not match matrix with {matrix.shape[0]} rows"
            )
        if len(set(node_ids)) != len(node_ids):
            raise EmbeddingError("node ids must be unique")
        self._node_ids: List[str] = list(node_ids)
        self._matrix = matrix
        self._index: Dict[str, int] = {node: i for i, node in enumerate(self._node_ids)}
        self.name = name

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return int(self._matrix.shape[1])

    def node_ids(self) -> List[str]:
        return list(self._node_ids)

    def __len__(self) -> int:
        return len(self._node_ids)

    def __contains__(self, node: str) -> bool:
        return node in self._index

    def __getitem__(self, node: str) -> np.ndarray:
        try:
            return self._matrix[self._index[node]]
        except KeyError as exc:
            raise EmbeddingError(f"no embedding for node {node!r}") from exc

    def get(self, node: str, default: Optional[np.ndarray] = None) -> np.ndarray:
        """Vector for ``node``; unseen nodes fall back to ``default`` (zeros)."""
        row = self._index.get(node)
        if row is None:
            if default is None:
                return np.zeros(self.dimension, dtype=np.float64)
            return np.asarray(default, dtype=np.float64)
        return self._matrix[row]

    # ------------------------------------------------------------------
    def lookup(self, nodes: Sequence[str]) -> np.ndarray:
        """Stack vectors for ``nodes`` into a (len(nodes), d) matrix.

        Unknown nodes map to the zero vector, matching the production
        behaviour where a brand-new user has no embedding in HBase yet.
        """
        result = np.zeros((len(nodes), self.dimension), dtype=np.float64)
        for position, node in enumerate(nodes):
            row = self._index.get(node)
            if row is not None:
                result[position] = self._matrix[row]
        return result

    def subset(self, nodes: Iterable[str]) -> "EmbeddingSet":
        """Embeddings restricted to ``nodes`` (unknown ids become zero rows)."""
        nodes = list(nodes)
        return EmbeddingSet(nodes, self.lookup(nodes), name=self.name)

    def concatenate(self, other: "EmbeddingSet") -> "EmbeddingSet":
        """Concatenate two embedding sets along the feature axis.

        Used for the paper's "DW+S2V" configurations.  The result covers the
        union of node ids; missing vectors in either input are zeros.
        """
        nodes = list(dict.fromkeys(self._node_ids + other.node_ids()))
        left = self.lookup(nodes)
        right = other.lookup(nodes)
        return EmbeddingSet(
            nodes, np.hstack([left, right]), name=f"{self.name}+{other.name}"
        )
