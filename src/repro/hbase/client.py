"""HBase client API.

The client is what both ends of the TitAnt system use:

* the offline pipeline bulk-loads per-user basic features and node embeddings
  after every training run (one new version per run),
* the Model Server point-reads a user's latest row at prediction time.

Writes go through the write-ahead log and the region router before reaching
the column-family store, mirroring a real deployment's write path.  Reads
return the store's own immutable :class:`~repro.hbase.store.Row` snapshots:
store, row caches and callers share one object per (row, family), so a hit
costs a probe and no copy.
"""

from __future__ import annotations

import copy
import time
import weakref
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import RowNotFoundError, StorageError, TableNotFoundError
from repro.hbase.cache import RowCache
from repro.hbase.region import RegionRouter
from repro.hbase.store import EMPTY_ROW, ColumnFamilyStore, HBaseTable, Row, freeze_row
from repro.hbase.wal import WriteAheadLog

#: Column-family names used by the TitAnt feature store (paper Figure 7).
BASIC_FEATURES_FAMILY = "basic_features"
EMBEDDINGS_FAMILY = "user_node_embeddings"
#: Per-user sliding-window aggregates, written through by the online
#: streaming feature engine on every ingested transaction (and bulk-seeded by
#: the offline pipeline from the same windowing definition).
AGGREGATES_FAMILY = "transaction_aggregates"
#: The table those families live in unless a caller names another one.
DEFAULT_FEATURE_TABLE = "titant_features"


class HBaseClient:
    """Client with table management, puts/gets, batched reads and scans.

    ``row_cache_ttl_s`` enables a small client-side TTL row cache (0 turns it
    off).  Every write through any handle of the cluster hands each cache that
    holds the written (row, family) the store's new snapshot, so the cache is
    transparent to callers and a just-written row stays a hit.  ``clock`` is
    what the cache's TTL is measured on, read once per ``get`` /
    ``multi_get`` / ``put`` / ``bulk_load`` call; tests pass a fake one, and
    ``connection()`` handles share it.
    """

    def __init__(
        self,
        *,
        num_regions: int = 4,
        max_versions: int = 5,
        row_cache_ttl_s: float = 30.0,
        row_cache_rows: int = 4096,
        wal_max_entries: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._tables: Dict[str, HBaseTable] = {}
        self._clock = clock
        self._router = RegionRouter(num_regions=num_regions)
        # Unbounded by default (full crash recovery); long-running streaming
        # write-through deployments can cap retained entries like a real
        # region server rotates WALs.
        self._wal = WriteAheadLog(max_entries=wal_max_entries)
        self._max_versions = max_versions
        # Every connection() handle registers its cache here, and writes
        # through ANY handle update the row in EVERY attached cache — what
        # keeps "a cache hit never serves a value older than the last write"
        # true for the whole fleet.  Weak references: a discarded
        # connection's cache must not stay pinned (and must not keep costing
        # an update per write) for the cluster's lifetime.
        self._cache_registry: List["weakref.ref[RowCache]"] = []
        self._attach_cache(row_cache_ttl_s, row_cache_rows)

    def _attach_cache(self, ttl_s: float, max_rows: int) -> None:
        """Give this handle its private row cache (none at TTL 0, NaN or < 0
        rejected), registered for update by every handle's writes."""
        self._cache = None if ttl_s == 0 else RowCache(ttl_seconds=ttl_s, max_rows=max_rows)
        if self._cache is not None:
            self._cache_registry.append(weakref.ref(self._cache))

    def connection(
        self,
        *,
        row_cache_ttl_s: Optional[float] = None,
        row_cache_rows: Optional[int] = None,
    ) -> "HBaseClient":
        """A new client handle over this client's storage substrate.

        The returned client shares the tables, region router and WAL (one
        cluster) but owns its *own* client-side row cache — the shape of a
        real fleet, where every Model Server process runs its own HBase
        client with a private cache.  Account-sharded routing
        (:class:`~repro.serving.router.ServingRouter`) exists precisely to
        keep these per-connection caches hot: an account that always lands on
        the same replica is cached once fleet-wide instead of once per
        replica.  Cache TTL/capacity default to the parent connection's.
        """
        if row_cache_ttl_s is None:
            row_cache_ttl_s = self._cache.ttl_seconds if self._cache is not None else 0.0
        if row_cache_rows is None:
            row_cache_rows = self._cache.max_rows if self._cache is not None else 4096
        clone = copy.copy(self)  # one cluster: tables, router, WAL, clock, registry shared
        clone._attach_cache(row_cache_ttl_s, row_cache_rows)
        return clone

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    def create_table(
        self, name: str, column_families: Iterable[str], *, if_not_exists: bool = True
    ) -> HBaseTable:
        """Create a table with the given column families (idempotent by default)."""
        if name in self._tables:
            if if_not_exists:
                return self._tables[name]
            raise StorageError(f"HBase table {name!r} already exists")
        table = HBaseTable(name, column_families, max_versions=self._max_versions)
        self._tables[name] = table
        return table

    def table(self, name: str) -> HBaseTable:
        """Look up a table handle; raises :class:`TableNotFoundError`."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise TableNotFoundError(f"HBase table {name!r} does not exist") from exc

    def create_feature_store(self, name: str = DEFAULT_FEATURE_TABLE) -> HBaseTable:
        """Create the feature-store table: basic features + embeddings
        (paper Figure 7) plus the streaming transaction-aggregate family."""
        return self.create_table(
            name, [BASIC_FEATURES_FAMILY, EMBEDDINGS_FAMILY, AGGREGATES_FAMILY]
        )

    # ------------------------------------------------------------------
    # Mutations and reads
    # ------------------------------------------------------------------
    def put(
        self,
        table_name: str,
        row_key: str,
        column_family: str,
        values: Mapping[str, Any],
        *,
        version: int,
    ) -> None:
        """Write one row's column-family cells (WAL first, caches updated); an
        unknown family raises before anything is logged, counted or cached."""
        family = self.table(table_name).family(column_family)
        self._write(
            family,
            table_name,
            row_key,
            column_family,
            values,
            version,
            self._live_caches(),
            self._clock(),
        )

    def _write(
        self,
        family: ColumnFamilyStore,
        table_name: str,
        row_key: str,
        column_family: str,
        values: Mapping[str, Any],
        version: int,
        caches: List[RowCache],
        now: float,
    ) -> None:
        """The one write step of ``put`` and ``bulk_load``: freeze, log,
        count the region write, apply, then hand every one of ``caches`` the
        family's snapshot as it stands after the apply (:meth:`RowCache.update`,
        TTL from ``now``).  That is the snapshot a miss would probe: an
        out-of-order put leaves the caches on the snapshot that still stands."""
        # Frozen once, before it is logged: log, store and every cache hold
        # this one immutable value, whatever the caller does to its own afterwards.
        row = freeze_row(values)
        self._wal.append(table_name, row_key, column_family, row, version=version)
        self._router.record_write(row_key)
        family.put_row(row_key, row, version=version)
        if caches:
            snapshot = family.latest(row_key)
            for cache in caches:
                cache.update(table_name, row_key, column_family, snapshot, now)

    def _live_caches(self) -> List[RowCache]:
        """Every attached cache still alive, in one pass over the weak-reference
        registry that also compacts the dead references out of it."""
        registry = self._cache_registry
        caches = []
        for cache_ref in registry:
            cache = cache_ref()
            if cache is not None:
                registry[len(caches)] = cache_ref
                caches.append(cache)
        del registry[len(caches) :]
        return caches

    def _read(
        self,
        table_name: str,
        row_keys: Iterable[str],
        column_family: str,
        version: Optional[int],
        absent: Row,
    ) -> Dict[str, Row]:
        """The one read path: the distinct keys go to one row-cache call
        (:meth:`RowCache.multi_get`), which probes the family for each miss —
        one non-raising probe — and the keys it probed count one region read
        each.  A present row is cached and returned as the store's own
        snapshot; an absent one maps to ``absent`` and is never cached, so
        every probe of it is a miss and a region read.
        """
        probe = self.table(table_name).family(column_family).latest
        rows = dict.fromkeys(row_keys, absent)
        if self._cache is not None:
            probed = self._cache.multi_get(
                table_name, rows, column_family, version, self._clock(), probe
            )
        else:
            probed = list(rows)
            for row_key in probed:
                row = probe(row_key, version)
                if row is not None:
                    rows[row_key] = row
        if probed:  # an all-hit read routes nothing
            self._router.record_reads(probed)
        return rows

    def get(
        self,
        table_name: str,
        row_key: str,
        column_family: str,
        *,
        version: Optional[int] = None,
    ) -> Row:
        """Point read of one row's family (latest version unless pinned);
        raises :class:`RowNotFoundError` when nothing is stored."""
        row = self._read(table_name, (row_key,), column_family, version, EMPTY_ROW)[row_key]
        if row is EMPTY_ROW:  # by identity: the store holds no empty row
            raise RowNotFoundError(
                f"row {row_key!r} not found in family {column_family!r} of {table_name!r}"
            )
        return row

    def multi_get(
        self,
        table_name: str,
        row_keys: Sequence[str],
        column_family: str,
        *,
        version: Optional[int] = None,
        default: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Row]:
        """Batched point read for N row keys in one client call.

        This is the online hot-path primitive — instead of one round trip per
        user per column family, the Model Server fetches every row a batch of
        transactions needs with one ``multi_get`` per family.  Keys are
        deduplicated, satisfied from the row cache where possible, and the
        remainder read through the region router.  Rows are read-only
        snapshots shared with the store; missing rows (a brand-new account)
        all map to one read-only copy of ``default``.  A missing *table* is a
        deployment problem, not a cold user, and raises
        :class:`TableNotFoundError`.
        """
        absent = freeze_row(default) if default else EMPTY_ROW
        return self._read(table_name, row_keys, column_family, version, absent)

    def bulk_load(
        self,
        table_name: str,
        column_family: str,
        rows: Mapping[str, Mapping[str, Any]],
        *,
        version: int,
    ) -> int:
        """Load many rows in one call (the offline pipeline's daily upload).

        Leaves the log, the regions, the store and every cache as a ``put``
        per row would, in one pass: the family is resolved once (an unknown
        one raises before anything is logged), the cache registry is walked
        and the clock read once, and each row then takes ``put``'s own write
        step.  Only the caches holding rows are updated: a write fills no
        cache, so an empty one has nothing to update, and none can fill while
        the load runs, as the load reads nothing.  A T+1 republish onto a warm
        fleet thus leaves it warm on the new version's rows.
        """
        family = self.table(table_name).family(column_family)
        caches = [cache for cache in self._live_caches() if len(cache)]
        now = self._clock()
        for row_key, values in rows.items():
            self._write(family, table_name, row_key, column_family, values, version, caches, now)
        return len(rows)

    def scan(
        self,
        table_name: str,
        column_family: str,
        *,
        prefix: str = "",
        version: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[str, Row]]:
        """Ordered prefix scan over one column family (offline tooling path)."""
        return self.table(table_name).scan(
            column_family, prefix=prefix, version=version, limit=limit
        )

    # ------------------------------------------------------------------
    # Operational introspection
    # ------------------------------------------------------------------
    def region_load_report(self) -> Dict[int, Dict[str, int]]:
        """Per-region read/write counters from the region router."""
        return self._router.load_report()

    def row_cache_stats(self) -> Dict[str, float]:
        """Hit/miss statistics of the client-side row cache (zeros when off)."""
        if self._cache is None:
            return {"rows": 0.0, "hits": 0.0, "misses": 0.0, "hit_rate": 0.0}
        return self._cache.stats()

    def wal_size(self) -> int:
        """Number of entries currently retained in the write-ahead log."""
        return len(self._wal)

    @property
    def wal(self) -> WriteAheadLog:
        """The write-ahead log: after a crash, ``wal.replay(table,
        table_name=...)`` rebuilds a fresh table from it."""
        return self._wal
