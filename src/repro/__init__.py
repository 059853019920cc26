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
``repro.models``       GBDT, LR, rules, the KunPeng GBDT trainer (Table 1's IF, ID3 and C5.0: ``benchmarks/paper``)
``repro.maxcompute``   columnar tables, SQL subset, MapReduce, synchronous job client
``repro.kunpeng``      parameter-server cluster, failover, process-backed shards (Fig 10's cost model: ``benchmarks/paper``)
``repro.hbase``        versioned column-family store, regions, WAL, client
``repro.serving``      Model Server, Alipay front end, latency tracking
``repro.core``         offline pipeline, experiment harness, metrics, registry

Quick start
-----------
>>> from repro.datagen import generate_world
>>> from repro.datagen.profiles import ProfileConfig
>>> from repro.datagen.transactions import WorldConfig
>>> from repro.core import ExperimentRunner, ExperimentConfig
>>> from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
>>> world = generate_world(WorldConfig(profile=ProfileConfig(num_users=600), num_days=40))
>>> runner = ExperimentRunner(world, ExperimentConfig.laptop_scale(num_datasets=1))
>>> dataset = runner.datasets()[0]
>>> preparation = runner.pipeline.prepare(dataset, need_deepwalk=True, need_structure2vec=False)
>>> gbdt = Table1Configuration(9, DetectorName.GBDT, FeatureSetName.BASIC_DW)
>>> test_matrix = runner.pipeline.evaluate(preparation, runner.pipeline.train(preparation, gbdt))

``examples/quickstart.py`` scores that test day.  The whole of Table 1,
baselines included, is ``run_table1(runner)`` from
``benchmarks/paper/table1.py``.
"""

__version__ = "1.0.0"

from repro import exceptions
from repro.logging_utils import configure_logging, get_logger

__all__ = ["exceptions", "configure_logging", "get_logger", "__version__"]
