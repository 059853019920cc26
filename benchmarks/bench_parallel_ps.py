"""Process-backend parameter server: measured wall-clock speedup (PR 6).

Every other benchmark in this directory times *simulated* distributed
training — one Python process playing every role.  This one measures real
hardware parallelism: the same workloads run once on the ``inline`` backend
and once on the ``process`` backend (each PS shard a live OS process applying
updates to shared-memory blocks, see :mod:`repro.kunpeng.parallel`), and the
wall-clock ratio is reported per worker count.

Three workloads:

* ``ps_round`` — a controlled pull/compute/push microbench against one
  parameter matrix.  Pushes are the expensive ``np.subtract.at`` scatter the
  real trainers use, which is exactly the work the process backend offloads
  to the shard processes.  The final matrix checksum must be **bit-exact**
  across backends (same numpy expressions, same per-shard op order).
* ``deepwalk_sparse`` — :class:`~repro.nrl.distributed.DistributedDeepWalk`
  in the paper's row-sparse pull/push mode on a small generated network.
* ``gbdt_hist`` — :class:`~repro.models.distributed.DistributedGBDT` with
  PS-side histogram aggregation on synthetic classification data.

Each process-backend run also becomes a :class:`~repro.kunpeng.MeasuredRound`;
:meth:`ClusterCostModel.calibrate` fits the four cost constants to those
measurements and the bench asserts the calibrated model's relative error
stays within :data:`CALIBRATION_ERROR_BOUND` — the model-validation loop the
simulated backend could never close.

Bit-exact checksums and the calibration bound are asserted on every run.
Wall-clock speedup needs real cores, so the speedup assertions are selected by
the CPU count the process observes: the ``--smoke`` assert (two-worker speedup
>= :data:`SMOKE_SPEEDUP_FLOOR`) needs at least :data:`SMOKE_MIN_CPUS` CPUs, the
full-mode monotone 1 -> 2 -> 4 worker assert needs :data:`FULL_MIN_CPUS`.
Timings are printed either way.

Run ``python -m benchmarks.bench_parallel_ps --smoke`` (the CI job) or
without flags for the full 1/2/4-worker sweep.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from benchmarks.paper.cost_model import ClusterCostModel, MeasuredRound
from repro.datagen import generate_world
from repro.datagen.datasets import DatasetBuilder
from repro.datagen.profiles import ProfileConfig
from repro.datagen.transactions import WorldConfig
from repro.graph.builder import build_network
from repro.graph.random_walk import RandomWalkConfig
from repro.kunpeng import ClusterConfig, KunPengCluster
from repro.models.distributed import DistributedGBDT
from repro.nrl.distributed import DistributedDeepWalk, DistributedDeepWalkConfig
from repro.nrl.word2vec import SkipGramConfig

#: Stated bound on the calibrated cost model's per-measurement relative error.
CALIBRATION_ERROR_BOUND = 0.5

#: The CI smoke bar: two process shards vs inline on the microbench.  The
#: driver and the two shard processes each need a core of their own; two vCPUs
#: cannot show the speedup (measured 0.6-0.8x there).
SMOKE_SPEEDUP_FLOOR = 1.3
SMOKE_MIN_CPUS = 3

#: Full mode asserts monotone speedup across 1/2/4 workers, which needs the
#: driver plus four shard processes to hold real cores simultaneously.
FULL_MIN_CPUS = 6

#: Worker counts map to total machines (half servers, half workers): the
#: paper's topology, so ``workers`` also equals the number of shard processes.
WORKERS_TO_MACHINES = {1: 2, 2: 4, 4: 8}


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Workload 1: pull/compute/push microbench
# ---------------------------------------------------------------------------


def ps_round_workload(
    backend: str,
    num_machines: int,
    *,
    rows: int = 24576,
    dim: int = 48,
    batch: int = 8192,
    rounds: int = 8,
    seed: int = 0,
) -> Dict[str, object]:
    """Synchronous BSP rounds against one row-sharded matrix.

    Per round every worker pulls a row batch, computes a gradient from the
    pulled values, and pushes it back.  All pulls happen before all pushes
    within a round, so both backends apply the same per-shard op sequence and
    the final checksum is bit-exact.  A one-row-per-shard probe pull closes
    each round — on the process backend that fences every shard, so the
    measured time includes the full apply cost, not just the enqueue.
    """
    config = ClusterConfig(num_machines=num_machines)
    rng = np.random.default_rng(seed)
    matrix = (rng.random((rows, dim)) - 0.5) / dim
    boundaries = np.linspace(0, rows, config.num_servers + 1).astype(np.int64)
    probe = boundaries[:-1]  # one owned row per shard: fences everything
    with KunPengCluster(config, backend=backend) as cluster:
        cluster.replace_parameter("w", matrix)
        num_workers = cluster.config.num_workers
        batches = [
            rng.integers(0, rows, size=batch).astype(np.int64)
            for _ in range(rounds * num_workers)
        ]
        start_all = time.perf_counter()
        index = 0
        for _ in range(rounds):
            cluster.begin_round()
            pulled_batches = []
            for worker in range(num_workers):
                pulled_batches.append(cluster.pull_row_block("w", batches[index + worker]))
            for worker in range(num_workers):
                gradients = np.tanh(pulled_batches[worker]) * 0.1
                cluster.push_row_block(
                    "w", batches[index + worker], gradients, learning_rate=0.05
                )
            index += num_workers
            cluster.pull_row_block("w", probe)
            cluster.end_round()
        final = cluster.pull_matrix("w")
        total_seconds = time.perf_counter() - start_all
        summary = cluster.workload_summary()
    return {
        "backend": backend,
        "num_machines": num_machines,
        "num_workers": int(summary["num_workers"]),
        "rounds": rounds,
        "total_seconds": total_seconds,
        "checksum": float(final.sum()),
        "compute_units": float(rounds * int(summary["num_workers"]) * batch * dim) / 1e6,
        "values_per_round": float(summary["values_per_round"]),
    }


# ---------------------------------------------------------------------------
# Workload 2/3: the real distributed trainers
# ---------------------------------------------------------------------------


def build_bench_network(seed: int = 7):
    """A small-but-real transaction network for the DeepWalk workload."""
    world = generate_world(
        WorldConfig(
            profile=ProfileConfig(num_users=150, num_communities=4, seed=seed),
            num_days=12,
            transactions_per_user_per_day=0.8,
            seed=seed,
        )
    )
    builder = DatasetBuilder(world, network_days=8, train_days=2)
    dataset = builder.build(builder.earliest_test_day())
    return build_network(dataset.network_transactions)


def _warm_shards(cluster: KunPengCluster) -> None:
    """Spawn the shard processes before the timer starts.

    A real cluster's server nodes are already up when training begins; hosting
    a one-row-per-shard throwaway parameter forces every lazy shard handle to
    spawn so ``fit`` timings measure training, not process startup.  (The
    microbench gets this for free: its ``replace_parameter`` precedes the
    timer.)  Harmless on the inline backend.
    """
    cluster.replace_parameter("_warmup", np.zeros((len(cluster.servers), 1)))


def deepwalk_workload(backend: str, num_machines: int, network) -> Dict[str, object]:
    config = DistributedDeepWalkConfig(
        cluster=ClusterConfig(num_machines=num_machines),
        walk=RandomWalkConfig(walk_length=12, num_walks_per_node=4, batch_size=64),
        skipgram=SkipGramConfig(dimension=32, window=3, epochs=3, batch_size=256),
        rounds_per_epoch=8,
        backend=backend,
        seed=11,
    )
    model = DistributedDeepWalk(config)
    _warm_shards(model.cluster)
    start = time.perf_counter()
    model.fit(network)
    total_seconds = time.perf_counter() - start
    summary = model.workload_summary()
    model.close()
    rounds = max(1, int(summary["rounds_recorded"]))
    return {
        "backend": backend,
        "num_machines": num_machines,
        "num_workers": int(summary["num_workers"]),
        "rounds": rounds,
        "total_seconds": total_seconds,
        "compute_units": summary["worker_compute_units"] / 1e3,
        "values_per_round": float(summary["values_per_round"]),
        "checksum": float(np.sum(model.loss_history)),
    }


def gbdt_workload(
    backend: str, num_machines: int, features: np.ndarray, labels: np.ndarray
) -> Dict[str, object]:
    model = DistributedGBDT(
        cluster=ClusterConfig(num_machines=num_machines),
        num_trees=40,
        backend=backend,
        seed=0,
    )
    _warm_shards(model.cluster)
    start = time.perf_counter()
    model.fit(features, labels)
    total_seconds = time.perf_counter() - start
    summary = model.cluster.workload_summary()
    probabilities = model.predict_proba(features)
    model.close()
    rounds = max(1, int(summary["rounds_recorded"]))
    return {
        "backend": backend,
        "num_machines": num_machines,
        "num_workers": int(summary["num_workers"]),
        "rounds": rounds,
        "total_seconds": total_seconds,
        "compute_units": summary["worker_compute_units"] / 1e3,
        "values_per_round": float(summary["values_per_round"]),
        "checksum": float(probabilities.sum()),
    }


def synthetic_classification(num_rows: int = 6000, num_features: int = 10, seed: int = 7):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(num_rows, num_features))
    logits = features @ rng.normal(size=num_features) + 0.3 * features[:, 0] * features[:, 1]
    labels = (logits + rng.normal(scale=0.5, size=num_rows) > 0.0).astype(np.float64)
    return features, labels


# ---------------------------------------------------------------------------
# Sweep + calibration
# ---------------------------------------------------------------------------


def sweep_workload(
    name: str,
    runner: Callable[[str, int], Dict[str, object]],
    worker_counts: List[int],
) -> List[float]:
    """Run ``runner`` on both backends per worker count; calibrate on process.

    Asserts bit-exact checksums across backends and the calibrated cost
    model's error bound; returns the process-over-inline speedup per worker
    count.
    """
    speedups: List[float] = []
    measurements: List[MeasuredRound] = []
    for workers in worker_counts:
        num_machines = WORKERS_TO_MACHINES[workers]
        inline = runner("inline", num_machines)
        process = runner("process", num_machines)
        assert inline["checksum"] == process["checksum"], (
            f"{name}: backends disagree bit-exactly at {workers} worker(s)"
        )
        measurements.append(
            MeasuredRound(
                cluster=ClusterConfig(num_machines=num_machines),
                total_compute_units=float(process["compute_units"]),
                comm_values_per_round=float(process["values_per_round"]),
                num_rounds=int(process["rounds"]),
                measured_seconds=float(process["total_seconds"]),
            )
        )
        speedups.append(inline["total_seconds"] / process["total_seconds"])
        print(
            f"  {name:>15} workers={workers} machines={num_machines}: "
            f"inline {inline['total_seconds']:.3f}s, "
            f"process {process['total_seconds']:.3f}s, "
            f"speedup {speedups[-1]:.2f}x"
        )
    fitted = ClusterCostModel().calibrate(measurements)
    max_error = max(fitted.relative_errors(measurements))
    print(
        f"  {name:>15} calibration: max relative error "
        f"{max_error:.4f} (bound {CALIBRATION_ERROR_BOUND})"
    )
    assert max_error <= CALIBRATION_ERROR_BOUND, (
        f"{name}: calibrated cost model off by {max_error:.3f} "
        f"(> {CALIBRATION_ERROR_BOUND})"
    )
    return speedups


def _monotone_increasing(values: List[float]) -> bool:
    return all(later > earlier for earlier, later in zip(values, values[1:]))


def run_bench(smoke: bool) -> None:
    cpus = cpu_count()
    print(f"bench_parallel_ps [{'smoke' if smoke else 'full'}] on {cpus} CPU(s)")

    if smoke:
        speedups = sweep_workload(
            "ps_round",
            lambda backend, machines: ps_round_workload(
                backend, machines, rows=16384, dim=32, batch=8192, rounds=6
            ),
            [1, 2],
        )
        if cpus >= SMOKE_MIN_CPUS:
            assert speedups[1] >= SMOKE_SPEEDUP_FLOOR, (
                f"process backend only {speedups[1]:.2f}x vs inline "
                f"with 2 shards (need >= {SMOKE_SPEEDUP_FLOOR}x)"
            )
        else:
            print(f"  speedup not asserted: needs >= {SMOKE_MIN_CPUS} CPUs")
        return

    worker_counts = [1, 2, 4]
    sweep_workload("ps_round", ps_round_workload, worker_counts)
    network = build_bench_network()
    features, labels = synthetic_classification()
    trainer_speedups = {
        "deepwalk_sparse": sweep_workload(
            "deepwalk_sparse",
            lambda backend, machines: deepwalk_workload(backend, machines, network),
            worker_counts,
        ),
        "gbdt_hist": sweep_workload(
            "gbdt_hist",
            lambda backend, machines: gbdt_workload(backend, machines, features, labels),
            worker_counts,
        ),
    }
    if cpus >= FULL_MIN_CPUS:
        assert any(
            _monotone_increasing(series) for series in trainer_speedups.values()
        ), f"no workload shows monotone 1->2->4 worker speedup: {trainer_speedups}"
    else:
        print(f"  speedup not asserted: needs >= {FULL_MIN_CPUS} CPUs")


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="microbench only, 1/2 workers (the CI job)",
    )
    arguments = parser.parse_args(argv)
    run_bench(smoke=arguments.smoke)


if __name__ == "__main__":
    main()
