"""Region sharding.

HBase distributes a table's row-key space across region servers.  The
simulation hashes row keys onto a configurable number of regions so that the
client exercises the same routing step a real deployment performs, and so the
tests can assert that load spreads across regions.  The hash is CRC-32: stable
across processes and ``PYTHONHASHSEED``s, and cheap enough to pay on every read
that misses the row cache.  A written key's region is kept in an owner map, so
a rewrite costs a dict hit, and each region's distinct-row count comes from it.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.exceptions import StorageError


@dataclass
class RegionServer:
    """One region server: counts the requests routed to it."""

    server_id: int
    read_requests: int = 0
    write_requests: int = 0


class RegionRouter:
    """Deterministically routes row keys to region servers."""

    def __init__(self, num_regions: int = 4):
        if num_regions < 1:
            raise StorageError("num_regions must be at least 1")
        self.servers: List[RegionServer] = [RegionServer(server_id=i) for i in range(num_regions)]
        #: Every row key written so far -> the server hosting it.
        self._owners: Dict[str, RegionServer] = {}

    # ------------------------------------------------------------------
    def region_for(self, row_key: str) -> RegionServer:
        return self.servers[zlib.crc32(row_key.encode("utf-8")) % len(self.servers)]

    def record_write(self, row_key: str) -> RegionServer:
        server = self._owners.get(row_key)
        if server is None:
            server = self._owners[row_key] = self.region_for(row_key)
        server.write_requests += 1
        return server

    def record_reads(self, row_keys: Iterable[str]) -> None:
        """Count one read on the region of each of ``row_keys``."""
        for row_key in row_keys:
            self.region_for(row_key).read_requests += 1

    # ------------------------------------------------------------------
    def load_report(self) -> Dict[int, Dict[str, int]]:
        """Per-region request counts and rows (used to verify balanced routing)."""
        rows = Counter(server.server_id for server in self._owners.values())
        return {
            server.server_id: {
                "reads": server.read_requests,
                "writes": server.write_requests,
                "rows": rows[server.server_id],
            }
            for server in self.servers
        }
