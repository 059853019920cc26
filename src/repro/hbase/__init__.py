"""Ali-HBase substrate simulation.

Ali-HBase serves the online Model Server with per-user data: one column family
for basic features (qualifiers ``age``, ``gender``, ``trans_city`` ...) and one
for the user node embeddings (one array-valued qualifier per embedding set),
indexed by user-id row keys and versioned by the date-time of each offline
training run (paper Figure 7).

The simulation provides a versioned column-family store with region sharding
that keeps each row's latest view as one immutable ``Row`` snapshot, a
write-ahead log, a client-side TTL row cache, and a client API (``put`` /
``get`` / ``multi_get`` / ``bulk_load`` / ``scan``) that the offline pipeline
and the Model Server share.
"""

from repro.hbase.store import ColumnFamilyStore, HBaseTable, Row
from repro.hbase.region import RegionServer, RegionRouter
from repro.hbase.wal import WriteAheadLog, WALEntry
from repro.hbase.cache import RowCache
from repro.hbase.client import HBaseClient

__all__ = [
    "RowCache",
    "ColumnFamilyStore",
    "HBaseTable",
    "Row",
    "RegionServer",
    "RegionRouter",
    "WriteAheadLog",
    "WALEntry",
    "HBaseClient",
]
