"""Versioned column-family storage.

The data model follows HBase/Bigtable: a table has named column families,
each cell is addressed by (row key, column family, qualifier) and keeps
multiple timestamped versions.  The Model Server reads "the latest version of
user node embeddings and basic features" uploaded by each offline training
run, so every (row key, column family) keeps that latest view as one
immutable :class:`Row` snapshot — swapped in by each put, shared by reference
with every reader — beside the history that version-pinned reads walk.  A
row's history takes the cheapest form its puts allow: one put's version; while
every put writes the whole row in version order, the list of those rows, so
such a put appends and *is* the new snapshot; otherwise per-cell version lists.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, NoReturn, Optional, Tuple
from typing import TypeVar, Union

from repro.exceptions import RowNotFoundError, StorageError

#: qualifier -> [(version, value), ...] in version order, ties in put order.
_CellHistory = Dict[str, List[Tuple[int, Any]]]
#: [(version, whole row), ...] in version order, ties in put order.
_RowHistory = List[Tuple[int, "Row"]]
_cell_version = itemgetter(0)
_Decoded = TypeVar("_Decoded")


def _read_only(self: Any, *args: Any, **kwargs: Any) -> NoReturn:
    raise TypeError("an HBase row is a read-only snapshot; edit a dict(row) copy")


class Row(Dict[str, Any]):
    """One row's cells by qualifier, read-only: the store, the write-ahead
    log, every connection's row cache and every caller hold the *same*
    object, so it compares and reads like a dict but rejects every edit —
    and what a reader decodes from it is decoded once (:meth:`decoded`)."""

    __slots__ = ("_decoded",)
    _decoded: Dict[Callable[["Row"], Any], Any]
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def decoded(self, decode: Callable[["Row"], _Decoded]) -> _Decoded:
        """``decode(self)``, memoised on this snapshot per decoder: every
        connection holding it shares the value, and a put swaps in a new
        ``Row``, so no memo outlives the cells it was decoded from.  The
        value is shared too — a decoder returns something no reader can edit —
        and a decoder is pure, so two threads racing on a first call at worst
        decode twice and keep equal values."""
        try:
            return self._decoded[decode]
        except AttributeError:
            self._decoded = {}
        except KeyError:
            pass
        value = self._decoded[decode] = decode(self)
        return value


#: The row of an account nothing was ever written for.
EMPTY_ROW = Row()


def freeze_row(values: Mapping[str, Any]) -> Row:
    """``values`` as a :class:`Row` that no caller can reach to edit: list
    cells (array-valued embeddings) become tuples; a ``Row`` is returned as is.
    The row is copied once, and again only if it holds a list cell."""
    if type(values) is Row:
        return values
    row = Row(values)
    for value in row.values():
        if isinstance(value, list):
            return Row({q: tuple(v) if isinstance(v, list) else v for q, v in row.items()})
    return row


class ColumnFamilyStore:
    """Cells of a single column family, organised by row key and qualifier."""

    def __init__(self, name: str, *, max_versions: int = 5):
        if max_versions < 1:
            raise StorageError("max_versions must be at least 1")
        self.name = name
        self.max_versions = max_versions
        #: row key -> the row's latest view: per qualifier the cell with the
        #: highest version (of equal versions, the later put).  Replaced,
        #: never edited, by :meth:`put_row`; also the family's key index.
        self._latest: Dict[str, Row] = {}
        #: row key -> its cells' version lists; or, while a single put is the
        #: row's whole history, that put's version alone (its cells are the
        #: snapshot's, and a bulk-loaded row is not held twice); or, while
        #: every put wrote the whole row in version order, those puts' rows,
        #: oldest first, the last being the snapshot.
        self._history: Dict[str, Union[int, _RowHistory, _CellHistory]] = {}

    # ------------------------------------------------------------------
    def put_row(self, row_key: str, frozen: Row, *, version: int) -> None:
        """Apply one put of an already frozen row (:func:`freeze_row`): file
        each cell under its version, swap the snapshot."""
        snapshot = self._latest.get(row_key)
        if snapshot is None:
            if frozen:  # its first put is the row's snapshot and whole history
                self._latest[row_key] = frozen
                self._history[row_key] = version
            return
        history = self._history[row_key]
        if not isinstance(history, dict) and frozen.keys() == snapshot.keys():
            if isinstance(history, int):  # its second put: its first is a whole row
                history = self._history[row_key] = [(history, snapshot)]
            if version >= history[-1][0]:  # a whole row in order is the snapshot
                history.append((version, frozen))
                if len(history) > self.max_versions:
                    del history[0]
                self._latest[row_key] = frozen
                return
        history = self._history[row_key] = self._cells(row_key)
        cells = dict(snapshot)
        for qualifier, value in frozen.items():
            versions = history.setdefault(qualifier, [])
            versions.append((version, value))
            if len(versions) > 1 and version < versions[-2][0]:
                # Out of order: file it behind its elders; the snapshot stands.
                versions.sort(key=_cell_version)
            else:
                cells[qualifier] = value
            if len(versions) > self.max_versions:
                del versions[: len(versions) - self.max_versions]
        self._latest[row_key] = Row(cells)

    def _cells(self, row_key: str) -> _CellHistory:
        """The row's per-cell version lists, spelled out of the snapshot while
        one put is all of its history, or of its whole-row puts."""
        history = self._history.get(row_key, {})
        if isinstance(history, int):
            return {
                qualifier: [(history, value)]
                for qualifier, value in self._latest[row_key].items()
            }
        if isinstance(history, list):
            return {q: [(v, row[q]) for v, row in history] for q in self._latest[row_key]}
        return history

    def latest(self, row_key: str, version: Optional[int] = None) -> Optional[Row]:
        """The row's latest snapshot — one probe, nothing raised — or, pinned,
        per qualifier its newest cell at or before ``version``; None when the
        row has no such cell."""
        if version is None:
            return self._latest.get(row_key)
        row: Dict[str, Any] = {}
        for qualifier, versions in self._cells(row_key).items():
            for cell_version, value in reversed(versions):
                if cell_version <= version:
                    row[qualifier] = value
                    break
        return Row(row) if row else None

    def row_keys(self) -> List[str]:
        return sorted(self._latest)

    def cell_versions(self, row_key: str, qualifier: str) -> List[int]:
        return [version for version, _ in self._cells(row_key).get(qualifier, [])]


class HBaseTable:
    """A table: named column families sharing the row-key space."""

    def __init__(self, name: str, column_families: Iterable[str], *, max_versions: int = 5):
        families = list(column_families)
        if not families:
            raise StorageError("an HBase table needs at least one column family")
        if len(set(families)) != len(families):
            raise StorageError("duplicate column family names")
        self.name = name
        self._families: Dict[str, ColumnFamilyStore] = {
            family: ColumnFamilyStore(family, max_versions=max_versions) for family in families
        }

    # ------------------------------------------------------------------
    def family(self, name: str) -> ColumnFamilyStore:
        try:
            return self._families[name]
        except KeyError as exc:
            raise StorageError(f"unknown column family {name!r} in table {self.name!r}") from exc

    def put(
        self,
        row_key: str,
        column_family: str,
        values: Mapping[str, Any],
        *,
        version: int,
    ) -> None:
        """Write several qualifiers of one row in one call."""
        self.family(column_family).put_row(row_key, freeze_row(values), version=version)

    def get(
        self,
        row_key: str,
        column_family: str,
        *,
        version: Optional[int] = None,
    ) -> Row:
        row = self.family(column_family).latest(row_key, version)
        if row is None:
            at = "" if version is None else f" at or before version {version}"
            raise RowNotFoundError(f"row {row_key!r} has no {column_family!r} cells{at}")
        return row

    def row_keys(self) -> List[str]:
        keys = set()
        for family in self._families.values():
            keys.update(family.row_keys())
        return sorted(keys)

    def scan(
        self,
        column_family: str,
        *,
        prefix: str = "",
        version: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[str, Row]]:
        """Ordered scan of (row key, row) pairs, optionally prefix-filtered,
        of at most ``limit`` rows (a negative limit raises)."""
        family = self.family(column_family)
        if limit is not None and limit < 0:
            raise StorageError(f"scan limit must be non-negative, got {limit}")
        results: List[Tuple[str, Row]] = []
        for row_key in family.row_keys():
            if limit is not None and len(results) >= limit:
                break
            if prefix and not row_key.startswith(prefix):
                continue
            row = family.latest(row_key, version)
            if row is not None:
                results.append((row_key, row))
        return results
