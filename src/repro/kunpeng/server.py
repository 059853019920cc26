"""Parameter-server nodes.

A server node owns a contiguous row range of each named parameter matrix.
Workers pull the row block they need, compute gradients locally, and push a
row block back; the server applies the update (plain SGD step) or, for the
model averaging used by the paper's word2vec reimplementation, replaces rows
with the average of the workers' copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.exceptions import ParameterServerError
from repro.numerics import scatter_add_rows


# The update arithmetic of a shard, applied to whatever array backs it: a
# :class:`ParameterServerNode` calls these after its checks, a shard process
# (:mod:`repro.kunpeng.parallel`) directly on its shared-memory view.


def sgd_update(
    values: np.ndarray, local_rows: np.ndarray, gradients: np.ndarray, learning_rate: float
) -> None:
    """``values[local_rows] -= learning_rate * gradients`` in place, as the
    row scatter-add of ``-(learning_rate * gradients)``, which accumulates a
    repeated row correctly.  Negation is exact and ``x + (-y)`` is ``x - y``
    in IEEE arithmetic, so every non-NaN result has the bits of
    ``np.subtract.at``; a NaN result may carry a different sign or payload."""
    scatter_add_rows(values, local_rows, -(learning_rate * gradients))


def zero_fill(values: np.ndarray) -> None:
    """Zero an accumulator shard in place."""
    values.fill(0.0)


def replica_mean(stacked: np.ndarray) -> np.ndarray:
    """Model averaging: the mean of the workers' stacked replicas."""
    return stacked.mean(axis=0)


@dataclass
class _Shard:
    """One server-resident shard: rows [row_start, row_end) of a matrix."""

    name: str
    row_start: int
    row_end: int
    values: np.ndarray


class ParameterServerNode:
    """One server node holding shards of named parameter matrices."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._shards: Dict[str, _Shard] = {}
        self.pull_count = 0
        self.push_count = 0

    # ------------------------------------------------------------------
    def host_shard(self, name: str, row_start: int, row_end: int, values: np.ndarray) -> None:
        """Install a shard (rows ``[row_start, row_end)``) of parameter ``name``."""
        if row_end <= row_start:
            raise ParameterServerError("shard row range must be non-empty")
        if values.shape[0] != row_end - row_start:
            raise ParameterServerError(
                f"shard values have {values.shape[0]} rows, expected {row_end - row_start}"
            )
        self._shards[name] = _Shard(
            name=name, row_start=row_start, row_end=row_end, values=values.astype(np.float64)
        )

    def drop_shard(self, name: str) -> None:
        """Forget the hosted shard of ``name`` (its parameter is being replaced)."""
        self._get(name)
        del self._shards[name]

    def _get(self, name: str) -> _Shard:
        try:
            return self._shards[name]
        except KeyError as exc:
            raise ParameterServerError(
                f"server {self.node_id} does not host parameter {name!r}"
            ) from exc

    # ------------------------------------------------------------------
    def pull_block(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Vectorised pull: stacked copies of ``rows`` (global indices), in order."""
        shard = self._get(name)
        self.pull_count += 1
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty((0, shard.values.shape[1]), dtype=np.float64)
        if rows.min() < shard.row_start or rows.max() >= shard.row_end:
            raise ParameterServerError(
                f"rows outside [{shard.row_start}, {shard.row_end}) of {name!r} "
                f"requested from server {self.node_id}"
            )
        return shard.values[rows - shard.row_start]  # fancy indexing copies

    def pull_all(self, name: str) -> np.ndarray:
        """Copy of the whole shard (used by model averaging and checkpoints)."""
        self.pull_count += 1
        return self._get(name).values.copy()

    def push_block(
        self,
        name: str,
        rows: np.ndarray,
        gradients: np.ndarray,
        *,
        learning_rate: float = 1.0,
    ) -> None:
        """Vectorised push: :func:`sgd_update` on the shard's ``rows``."""
        shard = self._get(name)
        self.push_count += 1
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        if rows.min() < shard.row_start or rows.max() >= shard.row_end:
            raise ParameterServerError(
                f"rows outside [{shard.row_start}, {shard.row_end}) of {name!r} "
                f"pushed to server {self.node_id}"
            )
        if gradients.shape != (rows.shape[0], shard.values.shape[1]):
            raise ParameterServerError("pushed gradient block shape does not match rows")
        sgd_update(shard.values, rows - shard.row_start, gradients, learning_rate)

    def reset_shard(self, name: str) -> None:
        """Zero the shard in place (server-local; no worker traffic involved).

        Used by accumulator-style parameters (GBDT gradient histograms) that
        are summed afresh each aggregation window.
        """
        zero_fill(self._get(name).values)

    def push_average(self, name: str, replicas: List[np.ndarray]) -> None:
        """Model averaging: replace the shard with the mean of worker replicas.

        This is the aggregation step the paper describes for the word2vec
        reimplementation ("server nodes pull the new embeddings and aggregate
        them by executing the model average operation").
        """
        if not replicas:
            raise ParameterServerError("push_average needs at least one replica")
        shard = self._get(name)
        self.push_count += 1
        stacked = np.stack([np.asarray(r, dtype=np.float64) for r in replicas])
        if stacked.shape[1:] != shard.values.shape:
            raise ParameterServerError("replica shape does not match the hosted shard")
        shard.values = replica_mean(stacked)

    # ------------------------------------------------------------------
    def traffic(self) -> Dict[str, int]:
        """Pull/push counters, consumed by the communication cost model."""
        return {"pulls": self.pull_count, "pushes": self.push_count}
