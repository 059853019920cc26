"""Random-walk corpus generation for DeepWalk.

The paper configures DeepWalk with a walk length of 50 and a number of
samplings of 100 (each node is used as the first node of 100 walks), then
feeds the linear node sequences to skip-gram with negative sampling.  Walks
treat the transaction network as undirected and can be weighted by edge
weights, which keeps recurring transfer relationships prominent.

The walker stores the graph as flat CSR-style arrays (``indptr`` +
neighbour/cumulative-probability arrays) and advances *all* walks of a batch
one step at a time with NumPy.  Weighted transitions use a single
``searchsorted`` over the stacked cumulative rows: entry ``k`` of the stacked
array holds ``source_row(k) + cumulative_probability(k)``, so the inverse-CDF
draw for node ``v`` is a binary search for ``v + u`` — no per-node Python loop.
:meth:`RandomWalker.iter_walk_batches` streams the corpus in bounded batches
so large corpora never have to be materialised.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.contracts import SEED, check_fields, checked, integer
from repro.exceptions import GraphError
from repro.graph.network import TransactionNetwork
from repro.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class RandomWalkConfig:
    """Configuration of the random-walk corpus.

    ``num_walks_per_node`` is the paper's "number of sampling" hyperparameter
    (Table 2 sweeps 25/50/100/200); ``walk_length`` is 50 in the paper.
    ``batch_size`` bounds how many walks advance together in the vectorised
    engine (and therefore the memory footprint of one streamed batch).
    """

    walk_length: int = checked(integer(2), 50)
    num_walks_per_node: int = checked(integer(1), 100)
    weighted: bool = True
    batch_size: int = checked(integer(1), 512)
    seed: int | None = checked(SEED, None)

    def __post_init__(self) -> None:
        check_fields(self, GraphError)


class RandomWalker:
    """Generates truncated random walks over a :class:`TransactionNetwork`."""

    def __init__(
        self,
        network: TransactionNetwork,
        config: RandomWalkConfig | None = None,
        *,
        rng: SeedLike = None,
    ) -> None:
        self.network = network
        self.config = config or RandomWalkConfig()
        self._rng = ensure_rng(self.config.seed if rng is None else rng)

        # Flatten the adjacency into CSR arrays once; every walk step is then
        # pure NumPy over these.
        num_nodes = network.num_nodes
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        neighbor_blocks: List[np.ndarray] = []
        weight_blocks: List[np.ndarray] = []
        for index, node in enumerate(network.nodes()):
            neighbor_weights = network.neighbors(node)
            indptr[index + 1] = indptr[index] + len(neighbor_weights)
            if neighbor_weights:
                neighbor_blocks.append(
                    np.array([network.node_index(n) for n in neighbor_weights], dtype=np.int64)
                )
                weight_blocks.append(
                    np.array(list(neighbor_weights.values()), dtype=np.float64)
                )
        self._indptr = indptr
        self._degrees = np.diff(indptr)
        if neighbor_blocks:
            self._flat_neighbors = np.concatenate(neighbor_blocks)
        else:
            self._flat_neighbors = np.empty(0, dtype=np.int64)

        if self.config.weighted and weight_blocks:
            # Stacked inverse-CDF array: row v's cumulative probabilities live
            # in (v, v+1], with the last entry pinned to exactly v + 1 so a
            # draw u in [0, 1) always lands inside the row.
            stacked = np.empty(self._flat_neighbors.shape[0], dtype=np.float64)
            blocks = iter(weight_blocks)
            for index in range(num_nodes):
                start, end = indptr[index], indptr[index + 1]
                if end <= start:
                    continue
                weights = next(blocks)
                cumulative = np.cumsum(weights / weights.sum())
                cumulative[-1] = 1.0
                stacked[start:end] = index + cumulative
            self._stacked_cumulative: np.ndarray | None = stacked
        else:
            self._stacked_cumulative = None

    # ------------------------------------------------------------------
    def reseeded(self, rng: SeedLike) -> "RandomWalker":
        """A walker sharing this walker's flattened graph arrays, fresh RNG.

        Flattening the adjacency is the expensive part of construction;
        streaming consumers that replay the corpus several times (e.g. the
        distributed trainer cycling over epochs) clone instead of rebuilding.
        """
        clone = copy.copy(self)
        clone._rng = ensure_rng(rng)
        return clone

    def walk_batch(self, start_indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Advance walks for all ``start_indices`` together, one step at a time.

        Returns a ``(len(start_indices), walk_length)`` int64 array; walks that
        hit an isolated node terminate early and are padded with ``-1``.
        """
        starts = np.asarray(start_indices, dtype=np.int64)
        length = self.config.walk_length
        # One upfront (B, L-1) draw block: the PCG stream fills it in the same
        # order as per-walk upfront draws, so batched and walk-at-a-time
        # generation produce bit-identical corpora for any batch size.
        draws = self._rng.random((starts.shape[0], length - 1))
        walks = np.full((starts.shape[0], length), -1, dtype=np.int64)
        walks[:, 0] = starts
        current = starts.copy()
        active = np.flatnonzero(self._degrees[starts] > 0)
        for step in range(1, length):
            if active.size == 0:
                break
            nodes = current[active]
            step_draws = draws[active, step - 1]
            if self._stacked_cumulative is not None:
                positions = np.searchsorted(
                    self._stacked_cumulative, nodes + step_draws, side="right"
                )
                positions = np.minimum(positions, self._indptr[nodes + 1] - 1)
            else:
                offsets = (step_draws * self._degrees[nodes]).astype(np.int64)
                offsets = np.minimum(offsets, self._degrees[nodes] - 1)
                positions = self._indptr[nodes] + offsets
            next_nodes = self._flat_neighbors[positions]
            current[active] = next_nodes
            walks[active, step] = next_nodes
            active = active[self._degrees[next_nodes] > 0]
        return walks

    def batch_to_walks(self, batch: np.ndarray) -> List[List[str]]:
        """Convert a padded index batch back to node-id sequences."""
        return [
            [self.network.node_at(int(index)) for index in row if index >= 0] for row in batch
        ]

    def iter_walk_batches(self, batch_size: int | None = None) -> Iterator[np.ndarray]:
        """Stream the corpus as padded ``(batch, walk_length)`` index arrays.

        Node order is shuffled between passes, as in the original DeepWalk,
        which reduces optimisation-order artefacts in downstream skip-gram.
        The full corpus is never materialised; each batch holds at most
        ``batch_size`` walks.
        """
        size = self.config.batch_size if batch_size is None else int(batch_size)
        if size < 1:
            raise GraphError("batch_size must be at least 1")
        node_indices = np.arange(self.network.num_nodes)
        for _ in range(self.config.num_walks_per_node):
            self._rng.shuffle(node_indices)
            for start in range(0, node_indices.shape[0], size):
                yield self.walk_batch(node_indices[start : start + size])

    def iter_walks(self) -> Iterator[List[str]]:
        """Iterate over all walks (``num_walks_per_node`` per node)."""
        for batch in self.iter_walk_batches():
            yield from self.batch_to_walks(batch)

    def generate(self) -> List[List[str]]:
        """Materialise the whole corpus as a list of node-id sequences."""
        return list(self.iter_walks())
