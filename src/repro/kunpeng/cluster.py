"""The KunPeng cluster: servers + workers + parameter routing.

The paper's deployment assigns half of the machines as server nodes and half
as worker nodes (Section 5.2).  The cluster object owns both pools, partitions
each named parameter matrix row-wise across the servers, routes Pull/Push
requests to the owning server, and records the communication volume so that
the cost model can turn a training run into the per-machine-count timings of
Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import check_fields, checked, integer, number
from repro.exceptions import ParameterServerError
from repro.kunpeng.server import ParameterServerNode
from repro.kunpeng.worker import WorkerNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kunpeng.parallel import ProcessShardRuntime

#: Supported :class:`KunPengCluster` backends.
BACKENDS = ("inline", "process")


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing of a KunPeng cluster.

    ``num_machines`` is the total machine count (the x axis of Figure 10);
    ``server_fraction`` defaults to one half, per the paper.  Every machine is
    one node: the server count is the rounded fraction held in
    ``[1, num_machines - 1]``, and the rest are workers, so the nodes a
    :class:`KunPengCluster` builds are the machines the cost model charges.
    """

    num_machines: int = checked(integer(2), 4)
    server_fraction: float = checked(number(gt=0.0, lt=1.0), 0.5)

    def __post_init__(self) -> None:
        check_fields(self, ParameterServerError)

    @property
    def num_servers(self) -> int:
        servers = int(round(self.num_machines * self.server_fraction))
        return min(max(1, servers), self.num_machines - 1)

    @property
    def num_workers(self) -> int:
        return self.num_machines - self.num_servers


@dataclass
class CommunicationLog:
    """Aggregate communication counters of one training run.

    ``values_transferred`` counts embedding *rows* moved between workers and
    servers.  Traffic inside a :meth:`begin_round`/:meth:`end_round` window is
    additionally recorded per round, so the cost model can use the actual
    per-round volume instead of assuming every round moves the full matrices
    (checkpoint downloads and other out-of-round transfers stay excluded).
    """

    pull_requests: int = 0
    push_requests: int = 0
    values_transferred: int = 0
    round_values: List[int] = field(default_factory=list)
    _round_start: Optional[int] = None

    def record_pull(self, num_values: int) -> None:
        self.pull_requests += 1
        self.values_transferred += num_values

    def record_push(self, num_values: int) -> None:
        self.push_requests += 1
        self.values_transferred += num_values

    def begin_round(self) -> None:
        self._round_start = self.values_transferred

    def end_round(self) -> None:
        if self._round_start is None:
            raise ParameterServerError("end_round called without begin_round")
        self.round_values.append(self.values_transferred - self._round_start)
        self._round_start = None

    def mean_values_per_round(self) -> float:
        if not self.round_values:
            return 0.0
        return float(sum(self.round_values)) / len(self.round_values)


class KunPengCluster:
    """A PS cluster: parameter routing plus workload accounting.

    ``backend`` selects where shard state lives and who applies updates:

    * ``"inline"`` (default) — every shard is a :class:`ParameterServerNode`
      in this process; deterministic and dependency-free, the simulation
      backend used throughout the test suite.
    * ``"process"`` — every shard runs in its own OS process with blocks in
      shared memory (:class:`~repro.kunpeng.parallel.ProcessShardRuntime`);
      pushes overlap driver compute, pulls are fenced zero-copy reads, and
      results are bit-exact with the inline backend because each shard
      applies its command stream in issue order.

    Routing, placement and communication accounting are backend-independent;
    only the per-shard data operation dispatches.
    """

    def __init__(
        self, config: ClusterConfig | None = None, *, backend: str = "inline"
    ) -> None:
        self.config = config or ClusterConfig()
        if backend not in BACKENDS:
            raise ParameterServerError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        self.servers: List[ParameterServerNode] = [
            ParameterServerNode(node_id=i) for i in range(self.config.num_servers)
        ]
        self.workers: List[WorkerNode] = [
            WorkerNode(node_id=i) for i in range(self.config.num_workers)
        ]
        self.communication = CommunicationLog()
        #: ``name -> list of (row_start, row_end, server index)``
        self._placements: Dict[str, List[Tuple[int, int, int]]] = {}
        #: ``name -> embedding dimension`` (column count of the hosted matrix)
        self._dimensions: Dict[str, int] = {}
        self._runtime: Optional["ProcessShardRuntime"] = None

    @property
    def runtime(self) -> "ProcessShardRuntime":
        """The process-backend shard runtime (started lazily on first use)."""
        if self.backend != "process":
            raise ParameterServerError("runtime is only available on the process backend")
        if self._runtime is None:
            from repro.kunpeng.parallel import ProcessShardRuntime

            self._runtime = ProcessShardRuntime(len(self.servers))
        return self._runtime

    def close(self) -> None:
        """Release backend resources (shard processes, shared memory).

        A no-op on the inline backend; always safe and idempotent, so
        drivers can call it unconditionally.
        """
        if self._runtime is not None:
            self._runtime.stop()
            self._runtime = None

    def __enter__(self) -> "KunPengCluster":
        """Enter a ``with`` block that closes the cluster backend on exit."""
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[object],
    ) -> None:
        """Close the backend (stop shard processes) when the block ends."""
        self.close()

    # ------------------------------------------------------------------
    # Parameter placement and routing
    # ------------------------------------------------------------------
    def replace_parameter(self, name: str, matrix: np.ndarray) -> None:
        """Host ``matrix`` as ``name``, dropping whatever the name held.

        The call a trainer makes at the top of ``fit``: a refit starts from
        the new values on shards sized for the new shape, and the blocks of
        the previous fit are released rather than left to ``close()``.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ParameterServerError("parameters must be 2-dimensional matrices")
        for _row_start, _row_end, server_index in self._placements.pop(name, []):
            if self.backend == "process":
                self.runtime.drop(server_index, name)
            else:
                self.servers[server_index].drop_shard(name)
        num_rows = matrix.shape[0]
        num_servers = len(self.servers)
        boundaries = np.linspace(0, num_rows, num_servers + 1).astype(int)
        placements: List[Tuple[int, int, int]] = []
        for server_index in range(num_servers):
            row_start, row_end = int(boundaries[server_index]), int(boundaries[server_index + 1])
            if row_end <= row_start:
                continue
            if self.backend == "process":
                self.runtime.host(server_index, name, row_start, matrix[row_start:row_end])
            else:
                self.servers[server_index].host_shard(
                    name, row_start, row_end, matrix[row_start:row_end]
                )
            placements.append((row_start, row_end, server_index))
        self._placements[name] = placements
        self._dimensions[name] = int(matrix.shape[1])

    def pull_row_block(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Vectorised sparse pull: stacked rows in request order.

        Routes contiguous row-range slices to their owning shards; only the
        requested rows travel, which is the parameter-server design the paper
        relies on for word2vec at Alipay scale.
        """
        if name not in self._placements:
            raise ParameterServerError(f"unknown parameter {name!r}")
        rows = np.asarray(rows, dtype=np.int64)
        result = np.empty((rows.shape[0], self._dimensions[name]), dtype=np.float64)
        matched = 0
        for row_start, row_end, server_index in self._placements[name]:
            mask = (rows >= row_start) & (rows < row_end)
            count = int(mask.sum())
            if count == 0:
                continue
            if self.backend == "process":
                result[mask] = self.runtime.read(server_index, name, rows[mask])
            else:
                result[mask] = self.servers[server_index].pull_block(name, rows[mask])
            self.communication.record_pull(count)
            matched += count
        if matched != rows.shape[0]:
            raise ParameterServerError(f"some requested rows of {name!r} have no owning server")
        return result

    def push_row_block(
        self,
        name: str,
        rows: np.ndarray,
        gradients: np.ndarray,
        *,
        learning_rate: float = 1.0,
    ) -> None:
        """Vectorised sparse push: row-sparse gradient block routed to shards."""
        if name not in self._placements:
            raise ParameterServerError(f"unknown parameter {name!r}")
        rows = np.asarray(rows, dtype=np.int64)
        gradients = np.asarray(gradients, dtype=np.float64)
        if gradients.shape != (rows.shape[0], self._dimensions[name]):
            raise ParameterServerError("pushed gradient block shape does not match rows")
        matched = 0
        for row_start, row_end, server_index in self._placements[name]:
            mask = (rows >= row_start) & (rows < row_end)
            count = int(mask.sum())
            if count == 0:
                continue
            if self.backend == "process":
                # Fire-and-forget: the owning shard process applies the update
                # while the driver moves on to the next batch.
                self.runtime.push(
                    server_index, name, rows[mask], gradients[mask], learning_rate=learning_rate
                )
            else:
                self.servers[server_index].push_block(
                    name, rows[mask], gradients[mask], learning_rate=learning_rate
                )
            self.communication.record_push(count)
            matched += count
        if matched != rows.shape[0]:
            raise ParameterServerError(f"some pushed rows of {name!r} have no owning server")

    def accumulate_row_block(self, name: str, rows: np.ndarray, values: np.ndarray) -> None:
        """Vectorised sparse accumulate: ``parameter[rows] += values``.

        The additive counterpart of :meth:`push_row_block`, used for
        histogram aggregation: every worker pushes its local (gradient,
        hessian, count) histogram rows and the servers sum them, so the
        driver pulls one merged histogram instead of per-row statistics.
        Traffic is recorded exactly like a gradient push.
        """
        self.push_row_block(name, rows, -np.asarray(values, dtype=np.float64))

    def reset_parameter(self, name: str) -> None:
        """Zero a hosted parameter on every owning server (no traffic).

        Accumulator parameters (per-level GBDT histograms) are cleared
        between aggregation windows with a server-local memset rather than a
        full-matrix push, matching how a real PS would reuse a scratch
        buffer.
        """
        if name not in self._placements:
            raise ParameterServerError(f"unknown parameter {name!r}")
        for _row_start, _row_end, server_index in self._placements[name]:
            if self.backend == "process":
                self.runtime.reset(server_index, name)
            else:
                self.servers[server_index].reset_shard(name)

    def pull_matrix(self, name: str) -> np.ndarray:
        """Reassemble the full parameter matrix (checkpoint / final download)."""
        if name not in self._placements:
            raise ParameterServerError(f"unknown parameter {name!r}")
        placements = sorted(self._placements[name])
        pieces = []
        for row_start, row_end, server_index in placements:
            if self.backend == "process":
                shard = self.runtime.read(server_index, name)
            else:
                shard = self.servers[server_index].pull_all(name)
            self.communication.record_pull(row_end - row_start)
            pieces.append(shard)
        return np.vstack(pieces)

    def push_model_average(self, name: str, replicas: Sequence[np.ndarray]) -> None:
        """Average full worker replicas of a parameter matrix (word2vec style)."""
        if name not in self._placements:
            raise ParameterServerError(f"unknown parameter {name!r}")
        if not replicas:
            raise ParameterServerError("push_average needs at least one replica")
        for row_start, row_end, server_index in self._placements[name]:
            shard_replicas = [replica[row_start:row_end] for replica in replicas]
            if self.backend == "process":
                stacked = np.stack(
                    [np.asarray(r, dtype=np.float64) for r in shard_replicas]
                )
                self.runtime.average(server_index, name, stacked)
            else:
                self.servers[server_index].push_average(name, shard_replicas)
            self.communication.record_push((row_end - row_start) * len(replicas))

    # ------------------------------------------------------------------
    # Data parallelism helpers
    # ------------------------------------------------------------------
    def scatter_data(self, items: Sequence[object]) -> None:
        """Round-robin the training items across worker partitions."""
        partitions: List[List[object]] = [[] for _ in self.workers]
        for index, item in enumerate(items):
            partitions[index % len(self.workers)].append(item)
        for worker, partition in zip(self.workers, partitions):
            worker.assign_partition(partition)

    def alive_workers(self) -> List[WorkerNode]:
        return [worker for worker in self.workers if worker.alive]

    # ------------------------------------------------------------------
    # Per-round communication accounting
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Open a per-round accounting window (see :class:`CommunicationLog`)."""
        self.communication.begin_round()

    def end_round(self) -> None:
        """Close the window; the round's transferred row count is recorded."""
        self.communication.end_round()

    # ------------------------------------------------------------------
    def workload_summary(self) -> Dict[str, float]:
        """Totals feeding the cost model: compute units and communication volume."""
        return {
            "num_machines": float(self.config.num_machines),
            "num_servers": float(len(self.servers)),
            "num_workers": float(len(self.workers)),
            "worker_compute_units": float(
                sum(worker.stats.compute_units for worker in self.workers)
            ),
            "max_worker_compute_units": float(
                max((worker.stats.compute_units for worker in self.workers), default=0.0)
            ),
            "pull_requests": float(self.communication.pull_requests),
            "push_requests": float(self.communication.push_requests),
            "values_transferred": float(self.communication.values_transferred),
            "rounds_recorded": float(len(self.communication.round_values)),
            "values_per_round": self.communication.mean_values_per_round(),
        }
