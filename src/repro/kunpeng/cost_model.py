"""Cluster cost model for training-time estimates (Figure 10).

The paper measures how long distributed DeepWalk and GBDT training take as the
number of machines grows from 4 to 40 (half servers, half workers).  Two
effects shape the curves:

* compute parallelism — per-worker compute shrinks as workers are added,
* communication and coordination overhead — pull/push traffic, model
  averaging and stragglers grow with the machine count, so beyond a point
  adding machines stops helping (the paper observes GBDT barely improves from
  20 to 40 machines).

The cost model turns a workload description (total compute units, per-round
communication volume, number of rounds) into an estimated wall-clock time for
a given cluster size.  The constants are calibrated so that the *shape* of
Figure 10 is reproduced: DeepWalk keeps benefiting up to 40 machines while
GBDT flattens after 20.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.contracts import NON_NEGATIVE, POSITIVE, check_fields, checked, integer
from repro.exceptions import ConfigurationError
from repro.kunpeng.cluster import ClusterConfig, KunPengCluster


@dataclass(frozen=True)
class MeasuredRound:
    """One measured training run, the unit of cost-model calibration.

    Pairs the workload description the model estimates from (the same three
    numbers :meth:`ClusterCostModel.estimate` takes, plus the cluster sizing)
    with the wall-clock seconds the run actually took, as measured by
    ``bench_parallel_ps.py`` on the process backend.
    """

    cluster: ClusterConfig
    total_compute_units: float = checked(NON_NEGATIVE)
    comm_values_per_round: float = checked(NON_NEGATIVE)
    num_rounds: int = checked(integer(1))
    measured_seconds: float = checked(POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self, ConfigurationError)


@dataclass(frozen=True)
class ClusterCostModel:
    """Per-unit costs of the simulated cluster.

    All times are in seconds.  ``compute_seconds_per_unit`` is the cost of one
    compute unit on one worker; ``comm_seconds_per_value`` the cost of moving
    one parameter value between a worker and a server; ``sync_seconds_per_round``
    the fixed synchronisation barrier per training round; and
    ``per_machine_overhead_seconds`` the scheduling/traffic-imbalance overhead
    that grows with the number of machines ("more machines often indicate
    greater communication cost due to uneven machine traffic").
    """

    compute_seconds_per_unit: float = checked(NON_NEGATIVE, 1.0)
    comm_seconds_per_value: float = checked(NON_NEGATIVE, 1e-6)
    sync_seconds_per_round: float = checked(NON_NEGATIVE, 0.5)
    per_machine_overhead_seconds: float = checked(NON_NEGATIVE, 4.0)
    straggler_factor: float = checked(NON_NEGATIVE, 0.08)

    def __post_init__(self) -> None:
        check_fields(self, ConfigurationError)

    # ------------------------------------------------------------------
    def estimate(
        self,
        *,
        total_compute_units: float,
        comm_values_per_round: float,
        num_rounds: int,
        cluster: ClusterConfig,
    ) -> "TrainingTimeEstimate":
        """Estimate wall-clock training time on ``cluster``."""
        workers = cluster.num_workers
        servers = cluster.num_servers

        compute = self.compute_seconds_per_unit * total_compute_units / workers
        # Straggler effect: the slowest of W workers finishes ~ (1 + f log W) late.
        compute *= 1.0 + self.straggler_factor * _log2(workers)
        # Each round moves comm_values_per_round values, spread over the servers,
        # but every extra server adds routing fan-out for the workers.
        communication = (
            self.comm_seconds_per_value
            * comm_values_per_round
            * num_rounds
            * (1.0 + 0.15 * _log2(servers))
        )
        synchronization = self.sync_seconds_per_round * num_rounds * _log2(workers + 1)
        overhead = self.per_machine_overhead_seconds * cluster.num_machines
        total = compute + communication + synchronization + overhead
        return TrainingTimeEstimate(
            num_machines=cluster.num_machines,
            compute_seconds=compute,
            communication_seconds=communication,
            synchronization_seconds=synchronization,
            overhead_seconds=overhead,
            total_seconds=total,
        )

    def estimate_recorded(self, cluster: KunPengCluster, num_rounds: int) -> "TrainingTimeEstimate":
        """Estimate of a finished run, fed with its *measured* workload.

        Rounds are recorded through ``CommunicationLog.begin_round`` /
        ``end_round`` windows, so checkpoint downloads and other out-of-round
        transfers do not inflate the per-round volume, and dense and sparse
        runs are costed by what they really moved.
        """
        summary = cluster.workload_summary()
        num_rounds = max(num_rounds, 1)
        if summary["rounds_recorded"] > 0:
            comm_values_per_round = summary["values_per_round"]
        else:  # no windows recorded (e.g. model never fitted) — fall back
            comm_values_per_round = summary["values_transferred"] / num_rounds
        return self.estimate(
            total_compute_units=summary["worker_compute_units"],
            comm_values_per_round=comm_values_per_round,
            num_rounds=num_rounds,
            cluster=cluster.config,
        )

    # ------------------------------------------------------------------
    def _design_row(self, measurement: MeasuredRound) -> List[float]:
        """The estimate's four cost terms with their constants factored out.

        :meth:`estimate` is linear in the four per-unit constants once the
        ``straggler_factor`` is held fixed, which is what makes calibration a
        least-squares problem.
        """
        workers = measurement.cluster.num_workers
        servers = measurement.cluster.num_servers
        return [
            measurement.total_compute_units
            / workers
            * (1.0 + self.straggler_factor * _log2(workers)),
            measurement.comm_values_per_round
            * measurement.num_rounds
            * (1.0 + 0.15 * _log2(servers)),
            measurement.num_rounds * _log2(workers + 1),
            float(measurement.cluster.num_machines),
        ]

    def calibrate(self, measured_round_times: Sequence[MeasuredRound]) -> "ClusterCostModel":
        """Fit the four cost constants to measured wall-clock run times.

        Solves the non-negative least-squares problem ``measured ≈ X @ c``
        where ``X`` holds the four cost terms of :meth:`estimate` (compute,
        communication, synchronisation, per-machine overhead) evaluated per
        measurement, via an active-set iteration: solve unconstrained, clamp
        negative constants to zero, re-solve over the survivors.  Returns a
        new model (``straggler_factor`` kept); ``self`` is unchanged.
        """
        if not measured_round_times:
            raise ConfigurationError("calibrate needs at least one measurement")
        design = np.array(
            [self._design_row(m) for m in measured_round_times], dtype=np.float64
        )
        target = np.array(
            [m.measured_seconds for m in measured_round_times], dtype=np.float64
        )
        active = list(range(design.shape[1]))
        coefficients = np.zeros(design.shape[1])
        while active:
            solution, *_ = np.linalg.lstsq(design[:, active], target, rcond=None)
            if np.all(solution >= 0.0):
                coefficients[:] = 0.0
                coefficients[active] = solution
                break
            active = [index for index, value in zip(active, solution) if value > 0.0]
        return replace(
            self,
            compute_seconds_per_unit=float(coefficients[0]),
            comm_seconds_per_value=float(coefficients[1]),
            sync_seconds_per_round=float(coefficients[2]),
            per_machine_overhead_seconds=float(coefficients[3]),
        )

    def relative_errors(self, measured_round_times: Sequence[MeasuredRound]) -> List[float]:
        """Per-measurement ``|estimate - measured| / measured`` of this model.

        The bench calibrates on its measured rounds and asserts
        ``max(relative_errors(...))`` stays under a stated bound — the
        model-validation loop the simulated backend could never close.
        """
        errors: List[float] = []
        for measurement in measured_round_times:
            estimate = self.estimate(
                total_compute_units=measurement.total_compute_units,
                comm_values_per_round=measurement.comm_values_per_round,
                num_rounds=measurement.num_rounds,
                cluster=measurement.cluster,
            )
            errors.append(
                abs(estimate.total_seconds - measurement.measured_seconds)
                / measurement.measured_seconds
            )
        return errors


def _log2(value: float) -> float:
    import math

    return math.log2(max(value, 1.0))


@dataclass
class TrainingTimeEstimate:
    """Breakdown of one estimated training run."""

    num_machines: int
    compute_seconds: float
    communication_seconds: float
    synchronization_seconds: float
    overhead_seconds: float
    total_seconds: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_machines": float(self.num_machines),
            "compute_seconds": self.compute_seconds,
            "communication_seconds": self.communication_seconds,
            "synchronization_seconds": self.synchronization_seconds,
            "overhead_seconds": self.overhead_seconds,
            "total_seconds": self.total_seconds,
        }


# ---------------------------------------------------------------------------
# Workload presets matching the paper's production scale
# ---------------------------------------------------------------------------

#: Approximate production workloads backing Figure 10.  DeepWalk processes
#: roughly 8 million transaction records' worth of walks (Section 5.1: ~1.5
#: hours on 20 machines), GBDT trains 400 depth-3 trees over the 14-day
#: training window.  The absolute constants are calibrated to land in the same
#: range as the paper's y axes (hundreds of minutes for DW, hundreds to ~1500
#: seconds for GBDT); only the shape is claimed, not the exact values.
DEEPWALK_PRODUCTION_WORKLOAD = {
    "total_compute_units": 86_000.0,
    "comm_values_per_round": 2_400_000.0,
    "num_rounds": 100,
}

GBDT_PRODUCTION_WORKLOAD = {
    "total_compute_units": 2_000.0,
    "comm_values_per_round": 140_000.0,
    "num_rounds": 400,
}

_DEEPWALK_COST_MODEL = ClusterCostModel(
    compute_seconds_per_unit=1.0,
    comm_seconds_per_value=0.8e-5,
    sync_seconds_per_round=0.8,
    per_machine_overhead_seconds=10.0,
    straggler_factor=0.06,
)

_GBDT_COST_MODEL = ClusterCostModel(
    compute_seconds_per_unit=1.0,
    comm_seconds_per_value=2.0e-6,
    sync_seconds_per_round=0.05,
    per_machine_overhead_seconds=2.0,
    straggler_factor=0.10,
)


def deepwalk_round_volume(
    vocab_rows: int,
    num_workers: int,
    *,
    mode: str = "dense",
    batch_pairs: int = 2048,
    negatives: int = 5,
) -> float:
    """Embedding rows a synchronous DeepWalk round moves, per training mode.

    ``dense`` is the model-average loop: every worker pulls both full matrices
    and pushes both full replicas back, i.e. ``4 * vocab_rows * num_workers``
    rows per round regardless of batch size.  ``sparse`` is the paper's
    pull/compute/push cycle: each worker pulls only the ``w_in`` rows of its
    batch's centers and the ``w_out`` rows of its contexts ∪ negatives, then
    pushes the same rows back.  The bound below assumes no duplicates, so it
    is an upper bound — real batches repeat hub nodes and frequent negatives
    and move fewer rows (the simulated cluster records the actual counts).
    """
    if mode == "dense":
        return 4.0 * vocab_rows * num_workers
    if mode != "sparse":
        raise ConfigurationError(f"unknown training mode {mode!r}")
    pulled_in = min(vocab_rows, batch_pairs)
    pulled_out = min(vocab_rows, batch_pairs * (1 + negatives))
    return 2.0 * (pulled_in + pulled_out) * num_workers


#: Approximate vocabulary size behind Figure 10's DeepWalk workload, used to
#: scale the preset communication volume when estimating the sparse loop.
_DEEPWALK_VOCAB_ROWS = 150_000


def estimate_deepwalk_time(
    num_machines: int,
    *,
    mode: str = "dense",
    cost_model: ClusterCostModel | None = None,
) -> TrainingTimeEstimate:
    """Estimated distributed DeepWalk training time on ``num_machines``.

    ``mode="sparse"`` rescales the preset per-round communication volume by
    the sparse/dense ratio of :func:`deepwalk_round_volume`, modelling the
    row-sparse pull/push loop instead of full model averaging.
    """
    model = cost_model or _DEEPWALK_COST_MODEL
    workload = dict(DEEPWALK_PRODUCTION_WORKLOAD)
    cluster = ClusterConfig(num_machines=num_machines)
    if mode != "dense":
        ratio = deepwalk_round_volume(
            _DEEPWALK_VOCAB_ROWS, cluster.num_workers, mode=mode
        ) / deepwalk_round_volume(_DEEPWALK_VOCAB_ROWS, cluster.num_workers, mode="dense")
        workload["comm_values_per_round"] *= ratio
    return model.estimate(cluster=cluster, **workload)


def gbdt_round_volume(
    num_rows: int,
    num_features: int,
    num_workers: int,
    *,
    mode: str = "hist",
    num_bins: int = 64,
    max_depth: int = 3,
) -> float:
    """Values a distributed GBDT round (one boosting tree) moves, per mode.

    ``exact`` gathers per-row statistics at the driver: 2 values (gradient,
    hessian) per training row per round — traffic scales with the row count.
    ``hist`` aggregates fixed-size histograms through the parameter servers:
    per tree level every worker pushes at most ``nodes x features x bins``
    non-empty histogram rows and the driver pulls the merged block once, so
    the bound below is ``(workers + 1) x internal_nodes x features x bins``
    summed over the levels — independent of ``num_rows``.  Both are upper
    bounds (sparse histograms and row subsampling move less); the simulated
    cluster records the actual counts.
    """
    if mode == "exact":
        return 2.0 * num_rows
    if mode != "hist":
        raise ConfigurationError(f"unknown tree method {mode!r}")
    internal_nodes = 2**max_depth - 1  # 1 + 2 + ... + 2^(depth-1) node histograms
    return float((num_workers + 1) * internal_nodes * num_features * num_bins)


#: Approximate scale of the paper's 14-day GBDT training window (millions of
#: transactions feed the 400-tree model), used to relate the preset per-round
#: communication volume to the exact-mode per-row traffic.
_GBDT_TRAIN_ROWS = 2_000_000
_GBDT_NUM_FEATURES = 100
_GBDT_NUM_BINS = 64


def estimate_gbdt_time(
    num_machines: int,
    *,
    mode: str = "exact",
    cost_model: ClusterCostModel | None = None,
) -> TrainingTimeEstimate:
    """Estimated distributed GBDT training time on ``num_machines``.

    ``mode="hist"`` rescales the preset per-round communication volume by the
    hist/exact ratio of :func:`gbdt_round_volume`, modelling histogram
    aggregation instead of per-row gradient gathering; at the paper's row
    count the fixed-size histograms are far smaller than the row statistics.
    """
    model = cost_model or _GBDT_COST_MODEL
    workload = dict(GBDT_PRODUCTION_WORKLOAD)
    cluster = ClusterConfig(num_machines=num_machines)
    if mode != "exact":
        ratio = gbdt_round_volume(
            _GBDT_TRAIN_ROWS,
            _GBDT_NUM_FEATURES,
            cluster.num_workers,
            mode=mode,
            num_bins=_GBDT_NUM_BINS,
        ) / gbdt_round_volume(
            _GBDT_TRAIN_ROWS, _GBDT_NUM_FEATURES, cluster.num_workers, mode="exact"
        )
        workload["comm_values_per_round"] *= ratio
    return model.estimate(cluster=cluster, **workload)
