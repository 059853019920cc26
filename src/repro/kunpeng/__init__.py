"""KunPeng parameter-server substrate simulation.

KunPeng is Ant Financial's parameter-server (PS) based distributed learning
platform: server nodes store model parameters, worker nodes train on data
partitions, and Pull/Push operations exchange parameters and gradients.  It
tolerates single-point worker failures (a failed instance restarts and
recovers while the others keep going) and supports data and model parallelism.

The simulation runs every node in process but preserves the execution
semantics the paper relies on:

* row-partitioned parameter storage across server nodes with Pull/Push and
  model averaging (:mod:`repro.kunpeng.server`, :mod:`repro.kunpeng.cluster`),
* worker data partitions and synchronous training rounds
  (:mod:`repro.kunpeng.worker`),
* failure injection and recovery (:mod:`repro.kunpeng.failover`),
* an optional *process* backend that hosts each server shard in a real OS
  process over shared memory, for measured — not simulated — parallelism
  (:mod:`repro.kunpeng.parallel`).

The trainers that run on it are :class:`repro.models.distributed.DistributedGBDT`
and :class:`repro.nrl.distributed.DistributedDeepWalk`.  Figure 10's cost
model, which turns a cluster's recorded workload into wall-clock estimates per
machine count, is an experiment and lives in ``benchmarks/paper/cost_model.py``.
"""

from repro.kunpeng.server import ParameterServerNode
from repro.kunpeng.worker import WorkerNode
from repro.kunpeng.cluster import KunPengCluster, ClusterConfig
from repro.kunpeng.failover import FailureInjector
from repro.kunpeng.parallel import ProcessShardRuntime, SharedBlockManager

__all__ = [
    "ParameterServerNode",
    "WorkerNode",
    "KunPengCluster",
    "ClusterConfig",
    "FailureInjector",
    "ProcessShardRuntime",
    "SharedBlockManager",
]
