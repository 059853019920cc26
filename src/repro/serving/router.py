"""Request routing across the Model Server fleet.

Balancing requests round-robin spreads load perfectly but scatters each
account's requests over every replica: every replica's client-side
:class:`~repro.hbase.cache.RowCache` ends up caching every hot account (R×
the compulsory misses fleet-wide) and no replica's
:class:`~repro.features.streaming.SlidingWindowAggregator` state stays hot.

:class:`ServingRouter` — the front end's default — shards by *account* with
a consistent hash (the payer — the side whose behaviour the fraud check is
about): every request of one account lands on the same replica, so that
replica's cached rows for the account stay warm, and adding/removing a
replica remaps only the accounts owned by the touched ring segment (~1/R of
the keyspace) instead of reshuffling everything.

``tests/test_serving_runtime.py`` keeps a round-robin :class:`Router` of its
own and asserts that sharded routing beats it on RowCache hits on the same
replay.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Protocol, Sequence

from repro.exceptions import ServingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.model_server import ModelServer


#: Ring points per replica of a :class:`ServingRouter`.
VIRTUAL_NODES = 64


@lru_cache(maxsize=1 << 15)
def _stable_hash(key: str) -> int:
    """64-bit hash that is stable across processes (unlike builtin ``hash``).

    Memoised: a repeated payer's ring point costs a probe.  The bound only
    keeps memory flat (about 4 MB when full) over an unbounded population."""
    return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


class Router(Protocol):
    """The routing policy ``AlipayServer`` needs: an account → replica map."""

    @property
    def num_replicas(self) -> int: ...

    def route(self, account_id: str) -> int: ...


class ServingRouter:
    """Consistent-hash router sharding requests by account id.

    Each replica owns :data:`VIRTUAL_NODES` points on a 64-bit hash ring; an
    account maps to the replica owning the first ring point at or after the
    account's hash.  Virtual nodes keep the per-replica keyspace share close
    to uniform, and :meth:`add_replica` moves only the ring segments the new
    replica takes over — the property that makes a fleet resize cheap for the
    other replicas' warm caches.
    """

    def __init__(self, num_replicas: int) -> None:
        if num_replicas < 1:
            raise ServingError("a router needs at least one replica")
        self._ring_points: List[int] = []
        self._ring_owners: List[int] = []
        self._replicas: List[int] = []
        for replica in range(num_replicas):
            self.add_replica(replica)

    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        """Number of replicas currently on the ring."""
        return len(self._replicas)

    def add_replica(self, replica: int) -> None:
        """Insert a replica's virtual nodes into the ring."""
        if replica in self._replicas:
            raise ServingError(f"replica {replica} is already on the ring")
        self._replicas.append(replica)
        for vnode in range(VIRTUAL_NODES):
            point = _stable_hash(f"replica:{replica}:vnode:{vnode}")
            index = bisect.bisect_left(self._ring_points, point)
            self._ring_points.insert(index, point)
            self._ring_owners.insert(index, replica)

    # ------------------------------------------------------------------
    def route(self, account_id: str) -> int:
        """The replica owning ``account_id`` (deterministic across calls)."""
        point = _stable_hash(account_id)
        index = bisect.bisect_left(self._ring_points, point)
        if index == len(self._ring_points):  # wrap around the ring
            index = 0
        return self._ring_owners[index]

def fleet_cache_stats(model_servers: Sequence["ModelServer"]) -> Dict[str, float]:
    """Aggregate RowCache hit/miss statistics across a Model Server fleet.

    Each server holds its own HBase connection (its own client-side cache in
    a real deployment), so fleet-wide hit rate must pool the raw counts —
    averaging per-server hit rates would weight idle replicas equally with
    loaded ones.
    """
    hits = misses = rows = 0.0
    for server in model_servers:
        stats = server.hbase.row_cache_stats()
        hits += stats["hits"]
        misses += stats["misses"]
        rows += stats["rows"]
    total = hits + misses
    return {
        "rows": rows,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else 0.0,
    }
