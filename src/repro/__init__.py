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
``repro.models``       ID3, C5.0, Isolation Forest, LR, GBDT, rules, PS drivers
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
>>> world = generate_world(small_world_config())
>>> runner = ExperimentRunner(world, ExperimentConfig.laptop_scale(num_datasets=1))
>>> results = runner.run_table1()
"""

__version__ = "1.0.0"

from repro import exceptions
from repro.logging_utils import configure_logging, get_logger

__all__ = ["exceptions", "configure_logging", "get_logger", "__version__"]
