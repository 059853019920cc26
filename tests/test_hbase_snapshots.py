"""The Ali-HBase read contract: one immutable snapshot per (row, family),
shared by the store, the write-ahead log, every connection's row cache and
the caller — checked against a brute-force model of every put, and pinned
down case by case (aliasing, sharing, cold accounts, the injected clock).
"""

from __future__ import annotations

import copy
import hashlib
import weakref
import zlib
from collections import Counter, OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.serving.feature_source as feature_source_module
from repro.exceptions import RowNotFoundError, ServingError, StorageError
from repro.features.basic import DEFAULT_CELLS, profile_cells
from repro.features.plan import EmbeddingBlockSpec
from repro.hbase import HBaseClient, HBaseTable
from repro.hbase.cache import RowCache
from repro.hbase.client import BASIC_FEATURES_FAMILY, EMBEDDINGS_FAMILY
from repro.hbase.store import ColumnFamilyStore
from repro.serving.feature_source import HBaseFeatureSource

TABLE = "titant_features"
TTL_S = 30.0


class FakeClock:
    """The clock a test hands to ``HBaseClient(clock=)`` and moves by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _store(**kwargs: Any) -> HBaseClient:
    client = HBaseClient(**kwargs)
    client.create_feature_store(TABLE)
    return client


def _region_reads(client: HBaseClient) -> int:
    return sum(stats["reads"] for stats in client.region_load_report().values())


# ---------------------------------------------------------------------------
# Model-based property: every read equals a brute-force fold of every put
# ---------------------------------------------------------------------------

FAMILIES = ("f0", "f1", "f2")
KEYS = ("a", "b", "c", "d", "ghost")  # "ghost" is never written
#: Writes and reads favour one account, so histories get deep enough to trim.
_written_keys = st.sampled_from(("a", "a", "a") + KEYS[:-1])
_read_keys = st.sampled_from(("a", "a") + KEYS)
QUALIFIERS = ("q0", "q1", "q2")
_Put = Tuple[str, str, Dict[str, Any], int]


def _plain(row: Any) -> Optional[Dict[str, Any]]:
    """A row as a plain dict with array cells as tuples (what a put freezes to)."""
    if row is None:
        return None
    return {q: tuple(v) if isinstance(v, (list, tuple)) else v for q, v in row.items()}


def _model_cells(
    puts: List[_Put], row_key: str, family: str, max_versions: int
) -> Dict[str, List[Tuple[int, int, Any]]]:
    """All puts in order; per cell the ``max_versions`` highest (version, put
    sequence) pairs kept — of equal versions the later put is the higher."""
    cells: Dict[str, List[Tuple[int, int, Any]]] = {}
    for sequence, (key, put_family, values, version) in enumerate(puts):
        if (key, put_family) != (row_key, family):
            continue
        for qualifier, value in values.items():
            kept = cells.setdefault(qualifier, [])
            kept.append((version, sequence, value))
            kept.sort(key=lambda cell: cell[:2])
            del kept[:-max_versions]
    return cells


def _model_read(
    puts: List[_Put], row_key: str, family: str, pin: Optional[int], max_versions: int
) -> Optional[Dict[str, Any]]:
    """Per cell the highest kept version at or before ``pin`` (None: the highest)."""
    row = {}
    for qualifier, kept in _model_cells(puts, row_key, family, max_versions).items():
        eligible = [value for version, _, value in kept if pin is None or version <= pin]
        if eligible:
            row[qualifier] = eligible[-1]
    return _plain(row) if row else None


_cell_values = st.one_of(
    st.integers(0, 9), st.lists(st.floats(0.0, 1.0, width=16), min_size=1, max_size=3)
)
_puts = st.tuples(
    st.just("put"),
    st.integers(0, 1),
    _written_keys,
    st.sampled_from(FAMILIES),
    st.dictionaries(st.sampled_from(QUALIFIERS), _cell_values, min_size=1),
    st.integers(1, 4),
    st.booleans(),
)
#: A whole-row put: every qualifier, at a version relative to the row's newest
#: (above, equal, below), so rows reach the store's whole-row history, its trim
#: at ``max_versions``, equal-version ties, and its fall-back to per-cell lists.
_whole_row_puts = st.tuples(
    st.just("whole"),
    st.integers(0, 1),
    _written_keys,
    st.sampled_from(FAMILIES),
    st.tuples(*[_cell_values] * len(QUALIFIERS)),
    st.sampled_from((1, 1, 0, -1)),
    st.booleans(),
)
_pins = st.one_of(st.none(), st.integers(0, 4))
_defaults = st.one_of(st.none(), st.just({}), st.just({"q0": -1}))
_reads = st.tuples(
    st.sampled_from(("get", "get_one_or_default", "multi_get")),
    st.integers(0, 1),
    st.lists(_read_keys, min_size=1, max_size=6),
    st.sampled_from(FAMILIES),
    _pins,
    _defaults,
)
_others = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from((1.0, TTL_S / 2, TTL_S + 1.0))),
    st.tuples(st.just("scan"), st.sampled_from(FAMILIES), _pins),
    st.tuples(st.just("crash")),
)


_model_runs = given(
    ops=st.lists(
        st.one_of(_puts, _whole_row_puts, _whole_row_puts, _reads, _reads, _others), max_size=50
    ),
    max_versions=st.integers(1, 3),
    cache_rows=st.integers(2, 4),
)


def _reads_equal_a_brute_force_model(ops, max_versions, cache_rows):
    clock = FakeClock()
    root = HBaseClient(
        max_versions=max_versions, row_cache_ttl_s=TTL_S, row_cache_rows=cache_rows, clock=clock
    )
    root.create_table(TABLE, FAMILIES)
    handles = [root, root.connection()]
    puts: List[_Put] = []
    probes = 0

    def expected(row_key: str, family: str, pin: Optional[int]) -> Optional[Dict[str, Any]]:
        return _model_read(puts, row_key, family, pin, max_versions)

    for op in ops:
        if op[0] == "whole":
            _, handle, row_key, family, cells, offset, check_now = op
            newest = max((p[3] for p in puts if p[:2] == (row_key, family)), default=2)
            values = dict(zip(QUALIFIERS, cells))
            op = ("put", handle, row_key, family, values, newest + offset, check_now)
        if op[0] == "put":
            _, handle, row_key, family, values, version, check_now = op
            handles[handle].put(TABLE, row_key, family, values, version=version)
            puts.append((row_key, family, values, version))
            stored = root.table(TABLE).family(family)
            for qualifier, kept in _model_cells(puts, row_key, family, max_versions).items():
                assert stored.cell_versions(row_key, qualifier) == [cell[0] for cell in kept]
            if check_now:  # no stale serve, through either handle, right after the put
                for reader in handles:
                    assert _plain(reader.get(TABLE, row_key, family)) == expected(
                        row_key, family, None
                    )
                    probes += 1
        elif op[0] == "advance":
            clock.now += op[1]
        elif op[0] == "scan":
            _, family, pin = op
            scanned = {key: _plain(row) for key, row in root.scan(TABLE, family, version=pin)}
            model = {key: expected(key, family, pin) for key in KEYS}
            assert scanned == {key: row for key, row in model.items() if row is not None}
        elif op[0] == "crash":
            # The MemStore is lost; a fresh table replays the log, and every
            # later op runs against the rebuilt rows and their rebuilt history.
            views = [(family, pin) for family in FAMILIES for pin in (None, 2)]
            before = [root.scan(TABLE, family, version=pin) for family, pin in views]
            root._tables[TABLE] = HBaseTable(TABLE, FAMILIES, max_versions=max_versions)
            assert root.wal.replay(root.table(TABLE), table_name=TABLE) == len(puts)
            assert [root.scan(TABLE, family, version=pin) for family, pin in views] == before
        else:
            kind, handle, keys, family, pin, default = op
            client = handles[handle]
            if kind == "multi_get":
                rows = client.multi_get(TABLE, keys, family, version=pin, default=default)
                assert list(rows) == list(dict.fromkeys(keys))  # one entry per distinct key
                probes += len(rows)
                for key, row in rows.items():
                    model = expected(key, family, pin)
                    assert _plain(row) == (model if model is not None else default or {})
                continue
            probes += 1
            model = expected(keys[0], family, pin)
            if kind == "get_one_or_default":
                row = client.multi_get(TABLE, keys[:1], family, version=pin, default=default)[keys[0]]
                assert _plain(row) == (model if model is not None else default or {})
            elif model is None:
                with pytest.raises(RowNotFoundError):
                    client.get(TABLE, keys[0], family, version=pin)
            else:
                assert _plain(client.get(TABLE, keys[0], family, version=pin)) == model

    # Every probe was a cache hit, or a miss that went to a region — never both,
    # never neither — and eviction kept each cache within its row budget.
    stats = [handle.row_cache_stats() for handle in handles]
    assert sum(s["hits"] + s["misses"] for s in stats) == probes
    assert sum(s["misses"] for s in stats) == _region_reads(root)
    assert all(s["rows"] <= cache_rows for s in stats)


test_reads_equal_a_brute_force_model = settings(max_examples=200, deadline=None)(
    _model_runs(_reads_equal_a_brute_force_model)
)
test_reads_equal_a_brute_force_model_soak = pytest.mark.slow(
    settings(max_examples=2000, deadline=None)(_model_runs(_reads_equal_a_brute_force_model))
)


# ---------------------------------------------------------------------------
# Model-based property: one multi_get call equals per-key get-then-put
# ---------------------------------------------------------------------------


class _PerKeyCache:
    """The per-key reference of :meth:`RowCache.multi_get`: ``get`` each key,
    then ``put`` what a miss loaded — the row cache's read path when it took
    two calls per key."""

    def __init__(self, ttl_seconds: float, max_rows: int) -> None:
        self.ttl_seconds, self.max_rows = ttl_seconds, max_rows
        self.rows: "OrderedDict[Tuple[str, str], Dict[Any, Tuple[float, Any]]]" = OrderedDict()
        self.hits = self.misses = 0

    def get(self, table: str, key: str, family: str, version: Any, now: float) -> Any:
        entry = self.rows.get((table, key))
        if entry is not None:
            cached = entry.get((family, version))
            if cached is not None:
                if now < cached[0]:
                    self.hits += 1
                    self.rows.move_to_end((table, key))
                    return cached[1]
                del entry[(family, version)]
                if not entry:
                    del self.rows[(table, key)]
        self.misses += 1
        return None

    def put(self, table: str, key: str, family: str, version: Any, row: Any, now: float) -> None:
        self.rows.setdefault((table, key), {})[(family, version)] = (now + self.ttl_seconds, row)
        self.rows.move_to_end((table, key))
        while len(self.rows) > self.max_rows:
            self.rows.popitem(last=False)

    def invalidate(self, table: str, key: str, family: Optional[str]) -> None:
        entry = self.rows.get((table, key))
        if entry is None:
            return
        for sub_key in [sub for sub in entry if family is None or sub[0] == family]:
            del entry[sub_key]
        if not entry:
            del self.rows[(table, key)]

    def multi_get(self, table, rows, family, version, now, probe) -> List[str]:
        probed = []
        for key in rows:
            row = self.get(table, key, family, version, now)
            if row is None:
                probed.append(key)
                row = probe(key, version)
                if row is None:
                    continue
                self.put(table, key, family, version, row, now)
            rows[key] = row
        return probed


def _cache_view(cache: RowCache) -> List[Tuple[Tuple[str, str], Dict[Any, Tuple[float, Any]]]]:
    """The cache's contents free of its layout: the (table, row key)s in LRU
    order, each with its ``{(family, version): (expiry, row)}`` — and no
    emptied row entry left behind."""
    view = []
    for key, entry in cache._rows.items():
        assert entry
        cells = {(sub, None) if isinstance(sub, str) else sub: c for sub, c in entry.items()}
        view.append((key, cells))
    return view


_CACHE_KEYS = ("a", "b", "c", "d", "e", "ghost")  # "ghost" is never stored
_cache_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"),
            st.lists(st.sampled_from(_CACHE_KEYS), min_size=1, max_size=6),
            st.sampled_from(("f0", "f1")),
            st.sampled_from((None, 1)),
        ),
        st.tuples(st.just("advance"), st.sampled_from((0.0, 1.0, TTL_S / 2, TTL_S))),
        st.tuples(st.just("store"), st.sampled_from(_CACHE_KEYS[:-1]), st.booleans()),
        st.tuples(
            st.just("invalidate"),
            st.sampled_from(_CACHE_KEYS),
            st.sampled_from((None, "f0", "f1")),
        ),
    ),
    max_size=40,
)
_cache_model_runs = given(ops=_cache_ops, max_rows=st.integers(1, 4))


def _multi_get_equals_per_key_reference(ops, max_rows):
    cache = RowCache(ttl_seconds=TTL_S, max_rows=max_rows)
    model = _PerKeyCache(TTL_S, max_rows)
    stored = {key: True for key in _CACHE_KEYS[:-1]}
    now, puts = 0.0, 0
    for op in ops:
        if op[0] == "advance":
            now += op[1]
        elif op[0] == "store":  # the row is (re)written or deleted behind the cache
            _, key, present = op
            stored[key] = present
            puts += 1
        elif op[0] == "invalidate":
            cache.invalidate("t", op[1], op[2])
            model.invalidate("t", op[1], op[2])
        else:
            _, keys, family, version = op
            probes: Dict[str, List[str]] = {"cache": [], "model": []}
            results = {}
            for name, target in (("cache", cache), ("model", model)):

                def probe(key: str, pin: Optional[int], name: str = name) -> Any:
                    probes[name].append(key)
                    return (key, family, pin, puts) if stored.get(key) else None

                rows = dict.fromkeys(keys, "absent")
                # The keys returned are the region reads: exactly those probed.
                assert target.multi_get("t", rows, family, version, now, probe) == probes[name]
                results[name] = rows
            assert results["cache"] == results["model"]
            assert probes["cache"] == probes["model"]
        assert (cache.hits, cache.misses) == (model.hits, model.misses)
        assert _cache_view(cache) == list(model.rows.items())  # LRU order too
        assert len(cache) <= max_rows


test_multi_get_equals_per_key_reference = settings(max_examples=300, deadline=None)(
    _cache_model_runs(_multi_get_equals_per_key_reference)
)
test_multi_get_equals_per_key_reference_soak = pytest.mark.slow(
    settings(max_examples=3000, deadline=None)(
        _cache_model_runs(_multi_get_equals_per_key_reference)
    )
)


def test_invalidating_a_family_drops_its_pinned_reads_and_keeps_the_others_hot():
    cache = RowCache(ttl_seconds=TTL_S, max_rows=4)
    probed: List[Tuple[str, str, Optional[int]]] = []

    def read(family: str, version: Optional[int]) -> List[str]:
        def probe(key: str, pin: Optional[int]) -> Any:
            probed.append((key, family, pin))
            return (key, family, pin)

        return cache.multi_get("t", {"a": None}, family, version, 0.0, probe)

    for family, version in (("f0", None), ("f0", 1), ("f0", 2), ("f1", None), ("f1", 1)):
        assert read(family, version) == ["a"]
    cache.invalidate("t", "a", "f0")
    hot = {("f1", pin): (TTL_S, ("a", "f1", pin)) for pin in (None, 1)}
    assert _cache_view(cache) == [(("t", "a"), hot)]
    assert read("f1", None) == [] and read("f1", 1) == []  # still hot
    probed.clear()
    assert read("f0", 1) == ["a"] and read("f0", None) == ["a"]
    assert probed == [("a", "f0", 1), ("a", "f0", None)]
    cache.invalidate("t", "a", "f1")
    cache.invalidate("t", "a", "f0")
    assert len(cache) == 0 and _cache_view(cache) == []


# ---------------------------------------------------------------------------
# Bugfix: a put to an unknown family is rejected before anything is logged
# ---------------------------------------------------------------------------


def test_a_rejected_put_leaves_wal_regions_and_caches_as_they_were():
    """Regression: a put to an unknown column family used to be logged,
    counted on its region and swept from the caches before it raised, so
    replaying the log raised the same error and the table was lost."""
    client = _store(row_cache_ttl_s=60.0)
    reader = client.connection()
    client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
    for handle in (client, reader):
        handle.get(TABLE, "u1", BASIC_FEATURES_FAMILY)
    wal_before = list(client.wal.entries())
    load_before = client.region_load_report()
    cached_before = [handle.row_cache_stats() for handle in (client, reader)]

    with pytest.raises(StorageError, match="unknown column family"):
        client.put(TABLE, "u1", "nope", {"age": 31}, version=2)

    assert client.wal_size() == 1 and client.wal.entries() == wal_before
    assert client.region_load_report() == load_before
    for handle, stats in zip((client, reader), cached_before):
        assert handle.row_cache_stats() == stats
        assert handle.get(TABLE, "u1", BASIC_FEATURES_FAMILY) == {"age": 30}
        assert handle.row_cache_stats()["hits"] == stats["hits"] + 1  # still cached
    recovered = HBaseTable(TABLE, client.table(TABLE).column_families())
    assert client.wal.replay(recovered, table_name=TABLE) == 1
    assert recovered.get("u1", BASIC_FEATURES_FAMILY) == {"age": 30}
    assert client.wal.replay(client.table(TABLE), table_name=TABLE) == 1


# ---------------------------------------------------------------------------
# Region accounting: the owner map against a per-key CRC-32 reference
# ---------------------------------------------------------------------------

_REGION_KEYS = ("u0", "u1", "u2", "u3", "üser", "x" * 40)
_GHOST_KEYS = ("ghost0", "ghost1")  # never written
_region_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, 2),
            st.sampled_from(_REGION_KEYS),
            st.sampled_from((BASIC_FEATURES_FAMILY, EMBEDDINGS_FAMILY)),
        ),
        st.tuples(
            st.just("read"),
            st.integers(0, 2),
            st.lists(st.sampled_from(_REGION_KEYS + _GHOST_KEYS), min_size=1, max_size=5),
            st.sampled_from((BASIC_FEATURES_FAMILY, EMBEDDINGS_FAMILY)),
        ),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_region_ops, num_regions=st.integers(1, 5))
def test_region_load_report_equals_a_per_key_crc_reference(ops, num_regions):
    """Puts and multi-gets through the root and two connections (one of them
    uncached): every probed key counts a read and every put a write on
    ``crc32(key) % n``, and each region hosts the distinct keys written."""
    root = _store(num_regions=num_regions, row_cache_ttl_s=60.0, row_cache_rows=64)
    handles = [root, root.connection(), root.connection(row_cache_ttl_s=0.0)]
    cached: List[set] = [set(), set(), set()]  # (key, family) live in each cache
    written: set = set()
    reads, writes = Counter(), Counter()

    def region(key: str) -> int:
        return zlib.crc32(key.encode("utf-8")) % num_regions

    for op, handle, target, family in ops:  # target: a put's key, a read's keys
        if op == "put":
            handles[handle].put(TABLE, target, family, {"q": 1}, version=1)
            writes[region(target)] += 1
            written.add((target, family))
            for entries in cached:
                entries.discard((target, family))
            continue
        handles[handle].multi_get(TABLE, target, family)
        for key in dict.fromkeys(target):
            if (key, family) in cached[handle]:
                continue
            reads[region(key)] += 1
            if (key, family) in written and handle != 2:
                cached[handle].add((key, family))

    rows = Counter(region(key) for key in {key for key, _ in written})
    assert root.region_load_report() == {
        index: {"reads": reads[index], "writes": writes[index], "rows": rows[index]}
        for index in range(num_regions)
    }


# ---------------------------------------------------------------------------
# A bulk load leaves everything as a put per row leaves it
# ---------------------------------------------------------------------------

_BULK_KEYS = ("a", "b", "c", "d", "e")
_bulk_cells = st.dictionaries(
    st.sampled_from(QUALIFIERS),
    st.one_of(st.integers(0, 3), st.lists(st.integers(0, 3), max_size=2)),
    max_size=3,
)
#: (op, handle, row key, family, version): the store and caches before the load.
_bulk_setup = st.lists(
    st.tuples(
        st.sampled_from(("put", "read", "read", "pinned_read", "advance")),
        st.integers(0, 2),
        st.sampled_from(_BULK_KEYS),
        st.sampled_from(FAMILIES),
        st.integers(1, 4),
    ),
    max_size=25,
)
_bulk_runs = given(
    setup=_bulk_setup,
    rows=st.dictionaries(st.sampled_from(_BULK_KEYS), _bulk_cells, max_size=5),
    family=st.sampled_from(FAMILIES + ("nope",)),
    version=st.integers(1, 4),
    drop=st.booleans(),
)


def _bulk_start(setup, drop: bool):
    """A store, and the handles to compare, built by ``setup``: the root and
    a connection (cached), an uncached connection, and one more cached
    connection that is kept or, with ``drop``, discarded (a dead reference
    left in the cache registry)."""
    clock = FakeClock()
    root = HBaseClient(max_versions=2, row_cache_ttl_s=TTL_S, row_cache_rows=3, clock=clock)
    root.create_table(TABLE, FAMILIES)
    handles = [root, root.connection(), root.connection(row_cache_ttl_s=0.0)]
    spare = root.connection()
    for op, handle, key, family, version in setup:
        if op == "put":
            cells = {"q0": version, "q1": [handle]} if handle else {"q0": version}
            handles[handle].put(TABLE, key, family, cells, version=version)
        elif op == "advance":
            clock.now += TTL_S / 3
        else:
            pin = version if op == "pinned_read" else None
            handles[handle].multi_get(TABLE, [key], family, version=pin)
            spare.multi_get(TABLE, [key], family, version=pin)
    if drop:
        spare_cache = weakref.ref(spare._cache)
        del spare
        assert spare_cache() is None  # its registry entry is now a dead reference
    else:
        handles.append(spare)
    return root, handles


def _bulk_state(root: HBaseClient, handles: List[HBaseClient]) -> Tuple[Any, ...]:
    """What a write can change: the log, every row's snapshot and history,
    the region counters, and every handle's cache contents and stats."""
    stores = [root.table(TABLE).family(family) for family in FAMILIES]
    return (
        [tuple(entry) for entry in root.wal.entries()],
        [(store._latest, store._history) for store in stores],
        root.region_load_report(),
        [
            (None if handle._cache is None else _cache_view(handle._cache), handle.row_cache_stats())
            for handle in handles
        ],
    )


def _bulk_load_equals_a_put_per_row(setup, rows, family, version, drop):
    loaded, loaded_handles = _bulk_start(setup, drop)
    looped, looped_handles = _bulk_start(setup, drop)
    before = _bulk_state(looped, looped_handles)
    if family not in FAMILIES:  # rejected before anything is logged, counted or swept
        with pytest.raises(StorageError, match="unknown column family"):
            loaded.bulk_load(TABLE, family, copy.deepcopy(rows), version=version)
        assert _bulk_state(loaded, loaded_handles) == before
        return
    assert loaded.bulk_load(TABLE, family, copy.deepcopy(rows), version=version) == len(rows)
    for row_key, cells in copy.deepcopy(rows).items():
        looped.put(TABLE, row_key, family, cells, version=version)
    assert _bulk_state(loaded, loaded_handles) == _bulk_state(looped, looped_handles)
    # And every handle goes on to read the same rows, hits and misses.
    for handles in (loaded_handles, looped_handles):
        for handle in handles:
            for read_family in FAMILIES:
                handle.multi_get(TABLE, _BULK_KEYS, read_family)
    assert _bulk_state(loaded, loaded_handles) == _bulk_state(looped, looped_handles)


#: Named cases the random runs must include: a connection (1) and a dropped
#: one caching loaded and unloaded keys, pinned reads, and an unknown family.
_cached_then_loaded = [
    ("put", 0, "a", "f0", 1),
    ("put", 1, "b", "f0", 2),
    ("put", 0, "c", "f1", 1),
    ("read", 1, "a", "f0", 1),
    ("read", 0, "b", "f0", 1),
    ("pinned_read", 1, "b", "f0", 2),
    ("read", 1, "c", "f1", 1),
]
_bulk_examples = [
    {"setup": _cached_then_loaded, "rows": {"a": {"q0": 7}, "b": {"q1": [3]}, "d": {}},
     "family": "f0", "version": 3, "drop": drop}
    for drop in (False, True)
] + [
    {"setup": _cached_then_loaded, "rows": {"a": {"q0": 7}}, "family": "nope", "version": 3,
     "drop": True},
]


def _bulk_property(max_examples: int):
    test = _bulk_load_equals_a_put_per_row
    for case in _bulk_examples:
        test = example(**case)(test)
    return settings(max_examples=max_examples, deadline=None)(_bulk_runs(test))


test_bulk_load_equals_a_put_per_row = _bulk_property(200)
test_bulk_load_equals_a_put_per_row_soak = pytest.mark.slow(_bulk_property(2000))


# ---------------------------------------------------------------------------
# Bugfix: stored rows must not alias the caller's lists, in either direction
# ---------------------------------------------------------------------------


def _read_via(kind: str, client: HBaseClient, row_key: str) -> Any:
    if kind == "get":
        return client.get(TABLE, row_key, EMBEDDINGS_FAMILY)
    return client.multi_get(TABLE, [row_key], EMBEDDINGS_FAMILY)[row_key]


@pytest.mark.parametrize("read", ["get", "multi_get"])
@pytest.mark.parametrize("ttl", [0.0, 60.0], ids=["no-cache", "cache"])
class TestNoAliasing:
    def test_caller_edit_after_put_reaches_no_reader_and_no_log(self, read, ttl):
        client = _store(row_cache_ttl_s=ttl)
        vec = [1.0, 2.0]
        client.put(TABLE, "u1", EMBEDDINGS_FAMILY, {"dw": vec}, version=1)
        cached_reader = client.connection()
        assert _read_via(read, cached_reader, "u1")["dw"] == (1.0, 2.0)
        vec[0] = 99.0
        # One account, one vector: the handle that cached it, a fresh
        # connection and the write-ahead log all still hold what was put.
        assert _read_via(read, cached_reader, "u1")["dw"] == (1.0, 2.0)
        assert _read_via(read, client.connection(), "u1")["dw"] == (1.0, 2.0)
        assert client.wal.entries()[0].values == {"dw": (1.0, 2.0)}

    def test_reader_cannot_edit_what_the_next_reader_sees(self, read, ttl):
        client = _store(row_cache_ttl_s=ttl)
        client.put(TABLE, "u1", EMBEDDINGS_FAMILY, {"dw": [1.0, 2.0]}, version=1)
        row = _read_via(read, client, "u1")
        assert not hasattr(row["dw"], "append")
        with pytest.raises(TypeError):
            row["dw"][0] = 99.0
        for edit in (
            lambda: row.__setitem__("dw", (9.0,)),
            lambda: row.__delitem__("dw"),
            lambda: row.update(dw=(9.0,)),
            lambda: row.pop("dw"),
            lambda: row.popitem(),
            lambda: row.setdefault("s2v", (0.0,)),
            lambda: row.clear(),
            lambda: row.__ior__({"dw": (9.0,)}),
        ):
            with pytest.raises(TypeError):
                edit()
        assert _read_via(read, client, "u1") == {"dw": (1.0, 2.0)}
        assert _read_via(read, client.connection(), "u1") == {"dw": (1.0, 2.0)}


def test_wal_replay_rebuilds_the_value_that_was_put_not_the_edited_list():
    client = _store()
    vec = [1.0, 2.0]
    client.put(TABLE, "u1", EMBEDDINGS_FAMILY, {"dw": vec}, version=1)
    vec.append(3.0)
    recovered = HBaseTable(TABLE, client.table(TABLE).column_families())
    assert client.wal.replay(recovered, table_name=TABLE) == 1
    assert recovered.get("u1", EMBEDDINGS_FAMILY) == {"dw": (1.0, 2.0)}
    assert recovered.get("u1", EMBEDDINGS_FAMILY) == client.get(TABLE, "u1", EMBEDDINGS_FAMILY)


# ---------------------------------------------------------------------------
# The snapshot contract
# ---------------------------------------------------------------------------


class TestSharedSnapshots:
    def test_hits_return_the_stores_own_object(self):
        client = _store(row_cache_ttl_s=60.0)
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        first = client.get(TABLE, "u1", BASIC_FEATURES_FAMILY)  # miss
        assert client.get(TABLE, "u1", BASIC_FEATURES_FAMILY) is first  # hit
        assert client.multi_get(TABLE, ["u1"], BASIC_FEATURES_FAMILY)["u1"] is first
        assert client.connection().get(TABLE, "u1", BASIC_FEATURES_FAMILY) is first
        assert client.table(TABLE).family(BASIC_FEATURES_FAMILY).latest("u1") is first
        assert client.row_cache_stats()["hits"] == 2.0

    def test_a_put_through_any_handle_replaces_the_snapshot(self):
        root = _store(row_cache_ttl_s=60.0)
        root.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 30, "kyc_level": 1}, version=1)
        reader = root.connection()
        held = reader.get(TABLE, "u1", BASIC_FEATURES_FAMILY)
        root.connection().put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 31}, version=2)
        fresh = reader.get(TABLE, "u1", BASIC_FEATURES_FAMILY)
        assert fresh == {"age": 31, "kyc_level": 1} and fresh is not held
        # A caller still holding the old snapshot keeps a consistent old row.
        assert held == {"age": 30, "kyc_level": 1}

    def test_a_lower_version_never_wins_the_latest_view(self):
        client = _store()
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 31}, version=5)
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 30, "kyc_level": 1}, version=2)
        # Equal versions: the later put wins.
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"kyc_level": 2}, version=2)
        assert client.get(TABLE, "u1", BASIC_FEATURES_FAMILY) == {"age": 31, "kyc_level": 2}
        assert client.get(TABLE, "u1", BASIC_FEATURES_FAMILY, version=4) == {
            "age": 30,
            "kyc_level": 2,
        }
        family = client.table(TABLE).family(BASIC_FEATURES_FAMILY)
        assert family.cell_versions("u1", "age") == [2, 5]


class TestColdAccounts:
    def test_an_absent_row_is_never_cached_and_always_a_miss_and_a_region_read(self):
        client = _store(row_cache_ttl_s=60.0)
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        client.get(TABLE, "u1", BASIC_FEATURES_FAMILY)
        cache = client._cache
        for probe in range(1, 4):
            rows_before, reads_before = len(cache), _region_reads(client)
            misses_before = client.row_cache_stats()["misses"]
            assert client.multi_get(TABLE, ["ghost"], BASIC_FEATURES_FAMILY) == {"ghost": {}}
            assert len(cache) == rows_before
            assert client.row_cache_stats()["misses"] == misses_before + 1
            assert _region_reads(client) == reads_before + 1

    def test_absent_keys_of_one_call_share_one_read_only_default(self):
        client = _store()
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        default = {"age": -1}
        rows = client.multi_get(
            TABLE, ["g1", "u1", "g2", "g3", "g1"], BASIC_FEATURES_FAMILY, default=default
        )
        assert rows["g1"] == default and rows["g1"] is rows["g2"] is rows["g3"]
        assert rows["g1"] is not default
        with pytest.raises(TypeError):
            rows["g1"]["age"] = 0
        assert _region_reads(client) == 4  # one per distinct key, absent or not
        empty = client.multi_get(TABLE, ["g1", "g2"], BASIC_FEATURES_FAMILY)
        assert empty["g1"] == {} and empty["g1"] is empty["g2"]

    def test_feature_source_serves_the_shared_default_without_decoding(self, monkeypatch):
        client = _store()
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 52}, version=1)
        decoded = []
        real = feature_source_module.profile_cells
        monkeypatch.setattr(
            feature_source_module, "profile_cells", lambda row: decoded.append(row) or real(row)
        )
        cells = HBaseFeatureSource(client, TABLE).profiles_for(["g1", "u1", "g2"])
        assert list(cells) == ["g1", "u1", "g2"]  # still one entry per distinct account
        assert cells["g1"] is DEFAULT_CELLS and cells["g2"] is DEFAULT_CELLS
        assert cells["u1"][0][0] == 52.0 and decoded == [{"age": 52}]

    @pytest.mark.parametrize("ttl", [0.0, 60.0], ids=["no-cache", "cache"])
    def test_latest_reads_probe_the_snapshot_and_nothing_else(self, ttl, monkeypatch):
        """A latest-version read — present or absent — is one unpinned ``latest``
        probe: the version lists are never walked and no exception is built."""
        client = _store(row_cache_ttl_s=ttl)
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        pins: List[Optional[int]] = []
        real = ColumnFamilyStore.latest

        def spy(self, row_key, version=None):
            pins.append(version)
            return real(self, row_key, version)

        monkeypatch.setattr(ColumnFamilyStore, "latest", spy)
        monkeypatch.setattr(
            ColumnFamilyStore, "_cells", lambda self, row_key: pytest.fail("walked the history")
        )
        for module in ("store", "client"):  # nothing is raised, so nothing is caught
            monkeypatch.setattr(
                f"repro.hbase.{module}.RowNotFoundError",
                lambda message: pytest.fail(f"read path built an exception: {message}"),
            )
        rows = client.multi_get(TABLE, ["u1", "ghost"], BASIC_FEATURES_FAMILY)
        assert rows == {"u1": {"age": 30}, "ghost": {}}
        assert client.multi_get(TABLE, ["ghost"], BASIC_FEATURES_FAMILY) == {"ghost": {}}
        assert client.get(TABLE, "u1", BASIC_FEATURES_FAMILY) == {"age": 30}
        assert pins == [None] * (4 if ttl == 0.0 else 3)  # the last read is a cache hit


# ---------------------------------------------------------------------------
# Decode once per snapshot: the memo lives and dies with its Row
# ---------------------------------------------------------------------------

DW = EmbeddingBlockSpec("dw", 2)


def _profile(age: int) -> Dict[str, Any]:
    return {"age": age, "gender": "F", "home_city": "city_003", "kyc_level": 2}


def _write(kind: str, client: HBaseClient, family: str, rows: Dict[str, Dict[str, Any]], version: int):
    if kind == "bulk_load":
        client.bulk_load(TABLE, family, rows, version=version)
    else:
        for row_key, values in rows.items():
            client.put(TABLE, row_key, family, values, version=version)


def _served(source: HBaseFeatureSource, accounts: List[str]) -> Tuple[List[float], List[Any]]:
    """What a replica serves for ``accounts``: their ages and their dw rows."""
    cells = source.profiles_for(accounts)
    return [cells[a][0][0] for a in accounts], source.embedding_matrix(DW, accounts)


class TestDecodeOncePerSnapshot:
    @pytest.mark.parametrize("kind", ["put", "bulk_load"])
    def test_a_new_row_is_served_on_the_next_read_from_every_connection(self, kind):
        root = _store(row_cache_ttl_s=3600.0)
        root.put(TABLE, "u1", BASIC_FEATURES_FAMILY, _profile(30), version=1)
        root.put(TABLE, "u1", EMBEDDINGS_FAMILY, {"dw": (1.0, 2.0)}, version=1)
        replicas = [HBaseFeatureSource(root.connection(), TABLE) for _ in range(4)]
        for source in replicas:  # every connection caches the rows and decodes them
            assert _served(source, ["u1", "u2"]) == ([30.0, 35.0], [(1.0, 2.0), (0.0, 0.0)])
        # Through one connection: u1 changes, and cold u2 gets its first rows.
        writer = replicas[0].hbase
        _write(kind, writer, BASIC_FEATURES_FAMILY, {"u1": _profile(31), "u2": _profile(62)}, 2)
        _write(kind, writer, EMBEDDINGS_FAMILY, {"u1": {"dw": (3.0, 4.0)}, "u2": {"dw": [5.0, 6.0]}}, 2)
        for source in replicas:
            assert _served(source, ["u1", "u2"]) == ([31.0, 62.0], [(3.0, 4.0), (5.0, 6.0)])

    def test_the_stored_embedding_tuple_is_served_by_identity(self):
        client = _store(row_cache_ttl_s=60.0)
        client.put(TABLE, "u1", EMBEDDINGS_FAMILY, {"dw": [1.0, 2.0]}, version=1)
        stored = client.get(TABLE, "u1", EMBEDDINGS_FAMILY)["dw"]
        assert stored == (1.0, 2.0) and type(stored) is tuple  # frozen at put: nobody edits it
        source = HBaseFeatureSource(client, TABLE)
        served, ghost = source.embedding_matrix(DW, ["u1", "ghost"])
        assert served is stored  # neither decoded nor copied
        assert ghost == (0.0, 0.0) and source.missing_embeddings == 1
        assert source.embedding_matrix(DW, ["u1"])[0] is stored

    def test_a_stored_embedding_of_another_width_is_a_serving_error(self):
        client = _store(row_cache_ttl_s=60.0)
        client.put(TABLE, "u1", EMBEDDINGS_FAMILY, {"dw": (1.0, 2.0, 3.0)}, version=1)
        source = HBaseFeatureSource(client, TABLE)
        with pytest.raises(ServingError, match="'dw' embedding has 3 dimensions, plan expects 2"):
            source.embedding_matrix(DW, ["u1"])

    def test_one_snapshot_is_decoded_once_across_four_replicas(self, monkeypatch):
        decoded: List[str] = []
        real = feature_source_module.profile_cells
        monkeypatch.setattr(
            feature_source_module,
            "profile_cells",
            lambda row: decoded.append("profile_cells") or real(row),
        )
        root = _store(row_cache_ttl_s=60.0)
        for account in ("u1", "u2"):
            root.put(TABLE, account, BASIC_FEATURES_FAMILY, _profile(40), version=1)
            root.put(TABLE, account, EMBEDDINGS_FAMILY, {"dw": (1.0, 2.0)}, version=1)
        stored = [root.get(TABLE, account, EMBEDDINGS_FAMILY)["dw"] for account in ("u1", "u2")]
        for _ in range(4):
            source = HBaseFeatureSource(root.connection(), TABLE)
            for _ in range(3):
                ages, rows = _served(source, ["u1", "u2"])
                assert ages == [40.0, 40.0]
                # Every replica, every read: the one stored tuple, never decoded.
                assert all(row is cell for row, cell in zip(rows, stored))
        assert decoded == ["profile_cells"] * 2

    def test_a_version_pinned_read_decodes_its_own_row(self):
        client = _store(row_cache_ttl_s=60.0)
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, _profile(30), version=1)
        client.put(TABLE, "u1", BASIC_FEATURES_FAMILY, _profile(31), version=2)
        latest = client.get(TABLE, "u1", BASIC_FEATURES_FAMILY)
        assert latest.decoded(profile_cells)[0][0] == 31.0
        pinned = client.get(TABLE, "u1", BASIC_FEATURES_FAMILY, version=1)
        assert pinned is not latest and pinned.decoded(profile_cells)[0][0] == 30.0
        # Each keeps its own memo: neither read changed what the other serves.
        assert latest.decoded(profile_cells)[0][0] == 31.0
        assert HBaseFeatureSource(client, TABLE).profiles_for(["u1"])["u1"][0][0] == 31.0


# ---------------------------------------------------------------------------
# The injected clock and the stable routing hash
# ---------------------------------------------------------------------------


class TestInjectedClock:
    def test_ttl_expiry_through_the_client(self):
        clock = FakeClock()
        root = _store(row_cache_ttl_s=TTL_S, clock=clock)
        root.put(TABLE, "u1", BASIC_FEATURES_FAMILY, {"age": 30}, version=1)
        conn = root.connection()  # shares the clock
        for client in (root, conn):
            client.get(TABLE, "u1", BASIC_FEATURES_FAMILY)  # miss, cached at t = 0
        clock.now = TTL_S - 0.5
        reads = _region_reads(root)
        for client in (root, conn):
            client.get(TABLE, "u1", BASIC_FEATURES_FAMILY)
            assert client.row_cache_stats()["hits"] == 1.0
        assert _region_reads(root) == reads
        clock.now = TTL_S + 0.5  # past the expiry set at t = 0 (a hit does not renew it)
        for client in (root, conn):
            assert client.multi_get(TABLE, ["u1"], BASIC_FEATURES_FAMILY)["u1"] == {"age": 30}
            assert client.row_cache_stats() == {
                "rows": 1.0,  # re-read from the store and cached again
                "hits": 1.0,
                "misses": 2.0,
                "hit_rate": 1 / 3,
            }
        assert _region_reads(root) == reads + 2

    def test_the_clock_is_read_once_per_call_and_not_at_all_without_a_cache(self):
        readings: List[float] = []

        def clock() -> float:
            readings.append(0.0)
            return 0.0

        cached = _store(row_cache_ttl_s=TTL_S, clock=clock)
        cached.multi_get(TABLE, [f"u{i}" for i in range(50)], BASIC_FEATURES_FAMILY)
        cached.multi_get(TABLE, ["u1"], BASIC_FEATURES_FAMILY)
        assert len(readings) == 2
        _store(row_cache_ttl_s=0.0, clock=clock).multi_get(TABLE, ["u1"], BASIC_FEATURES_FAMILY)
        assert len(readings) == 2


@pytest.mark.determinism
def test_region_routing_is_stable_across_hash_seeds(record_checksum):
    """CRC-32 routing: the same keys load the same regions in every process
    (the sanitizer diffs the recorded report across ``PYTHONHASHSEED``s)."""
    client = _store(num_regions=4, row_cache_ttl_s=0.0)
    keys = [f"u{index:07d}" for index in range(400)]
    for key in keys[::2]:
        client.put(TABLE, key, BASIC_FEATURES_FAMILY, {"age": 1}, version=1)
    client.multi_get(TABLE, keys, BASIC_FEATURES_FAMILY)
    report = client.region_load_report()
    assert sum(stats["reads"] for stats in report.values()) == 400
    assert sum(stats["writes"] for stats in report.values()) == 200
    assert all(stats["reads"] > 60 and stats["rows"] > 30 for stats in report.values())
    assert [report[region]["reads"] for region in range(4)] == [100, 100, 100, 100]
    record_checksum("region-load", hashlib.sha256(repr(report).encode()).hexdigest())
