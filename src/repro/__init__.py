"""repro — a from-scratch reproduction of TitAnt (VLDB 2019).

TitAnt is Ant Financial's online real-time transaction fraud detection
system: offline periodical training (MaxCompute storage/ETL, KunPeng
parameter-server training of DeepWalk / Structure2Vec node embeddings and
classification models) plus online real-time prediction (Ali-HBase feature
store and a millisecond-latency Model Server).

Package map
-----------
``repro.datagen``      synthetic transaction world (profiles, fraudsters, T+1 slices)
``repro.graph``        transaction network, random walks, graph statistics
``repro.nrl``          DeepWalk, Structure2Vec, embeddings, PS-distributed DeepWalk
``repro.features``     52 basic features, discretisation, aggregation, assembly
``repro.models``       GBDT, LR, rules, PS drivers (Table 1's IF, ID3 and C5.0: ``benchmarks/paper``)
``repro.maxcompute``   columnar tables, SQL subset, MapReduce, synchronous job client
``repro.kunpeng``      parameter-server cluster, failover, scalability cost model
``repro.hbase``        versioned column-family store, regions, WAL, client
``repro.serving``      Model Server, Alipay front end, latency tracking
``repro.core``         offline pipeline, experiment harness, metrics, registry

Quick start
-----------
>>> from repro.datagen import generate_world
>>> from repro.datagen.datasets import small_world_config
>>> from repro.core import ExperimentRunner, ExperimentConfig
>>> from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
>>> world = generate_world(small_world_config())
>>> runner = ExperimentRunner(world, ExperimentConfig.laptop_scale(num_datasets=1))
>>> preparation = runner.preparation_for(runner.datasets()[0])
>>> gbdt = Table1Configuration(9, DetectorName.GBDT, FeatureSetName.BASIC_DW)
>>> metrics = runner.score_test_day(preparation, runner.pipeline.train(preparation, gbdt))

The whole of Table 1, baselines included, is ``run_table1(runner)`` from
``benchmarks/paper/table1.py``.
"""

__version__ = "1.0.0"

from repro import exceptions
from repro.logging_utils import configure_logging, get_logger

__all__ = ["exceptions", "configure_logging", "get_logger", "__version__"]
