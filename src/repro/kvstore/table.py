"""Tables: key schemas, atomic row operations, queries, scans, indexes.

A table partitions items by a **hash key** and orders them within a
partition by an optional **range key**. Every mutation is atomic at item
granularity — this is the "atomicity scope" Beldi's linked DAAL is built
around. Conditions are checked and updates applied inside one critical
section, so concurrent simulated writers observe linearizable rows.

A stored row is never mutated in place, and neither is any value in
it: ``put`` stores a frozen copy (:func:`~repro.kvstore.item.freeze_item`,
which takes already-frozen values by reference and records the row's
size), and ``update`` replaces the row with a copy-on-write draft that
shares every value it leaves alone and re-sizes only the attributes it
touched (:func:`~repro.kvstore.item.freeze_update`). A stored row is a
:class:`~repro.kvstore.item.FrozenRow` record — its values over one
names tuple per row shape — not a ``dict``. A read hands out a fresh
top-level ``dict`` per row (:meth:`~repro.kvstore.item.FrozenRow.as_dict`,
which an update's draft starts from too) holding the stored frozen
values by reference (a projected read just its selection,
:meth:`~repro.kvstore.expressions.Projection.walk`): nothing a reader
holds can change a stored row, because every container in it refuses
mutation. So a stored row and its values may be shared — a replica
group's followers install the leader's row objects
(:meth:`Table.install`), and one value may sit in many rows — and the
bytes an operation moves are the size the row recorded when it was
built. A write hands back only what its caller reads: ``update`` the
new row only when asked (``return_new``, DynamoDB's ``ReturnValues``),
``delete`` whether it removed a row. The ``_``-prefixed twins of the
operations return the bytes they moved beside their result, which is
what a :class:`~repro.kvstore.store.KVStore` meters.

A table without a range key keeps ``{hash value: row}``. A table with
one keeps a partition of one row bare too, ``{hash value: row}`` (its
range value is in the row), and one of two or more rows as
``{hash value: {range value: row}}`` — a plain ``dict``, which a row
never is; a partition changes layout only behind the raw seams
(``_get_raw`` / ``_put_raw`` / ``_delete_raw`` / ``_iter_raw`` /
``_sorted_range_keys``), ``query`` and ``item_count``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.kvstore.errors import (
    ConditionFailed,
    ItemTooLarge,
    ValidationError,
)
from repro.kvstore.expressions import (
    _ABSENT,
    Condition,
    Projection,
    UpdateAction,
    apply_updates,
)
from repro.kvstore.item import FrozenRow, freeze_item, freeze_update

DEFAULT_MAX_ITEM_BYTES = 400 * 1024  # DynamoDB's row cap


#: What a key attribute's value may not be. A key part is a scalar — a
#: string, number, bytes (DynamoDB's S / N / B) — so it hashes, orders
#: and routes as itself; a tuple, list, map or set would route by one
#: rendering and be stored as another.
_NOT_SCALAR = (tuple, list, dict, set, frozenset)


@dataclass(frozen=True)
class KeySchema:
    """Hash key plus optional range key, by attribute name."""

    hash_key: str
    range_key: Optional[str] = None

    def key_dict(self, key: tuple) -> dict:
        if self.range_key is None:
            return {self.hash_key: key[0]}
        return {self.hash_key: key[0], self.range_key: key[1]}

    def normalize(self, key: Any) -> tuple:
        """The canonical key tuple of a scalar, a tuple, or a dict (an
        item, or just its key attributes). Every key a table takes is
        built here, so here it is rejected unless each part is a
        scalar."""
        if isinstance(key, dict):
            if self.hash_key not in key:
                raise ValidationError(
                    f"item missing hash key {self.hash_key!r}")
            if self.range_key is None:
                key = (key[self.hash_key],)
            elif self.range_key not in key:
                raise ValidationError(
                    f"item missing range key {self.range_key!r}")
            else:
                key = (key[self.hash_key], key[self.range_key])
        elif isinstance(key, tuple):
            expected = 1 if self.range_key is None else 2
            if len(key) != expected:
                raise ValidationError(
                    f"key tuple must have {expected} parts, got {len(key)}")
        elif self.range_key is not None:
            raise ValidationError(
                "table has a range key; pass a (hash, range) tuple")
        else:
            key = (key,)
        for part in key:
            if isinstance(part, _NOT_SCALAR):
                raise ValidationError(
                    f"a key attribute's value must be a scalar, not "
                    f"{type(part).__name__}")
        return key


@dataclass
class QueryResult:
    items: list[dict]
    scanned_count: int = 0
    consumed_bytes: int = 0


# Scans and queries share a result shape.
ScanResult = QueryResult


@dataclass
class _SecondaryIndex:
    """A sparse global secondary index on one top-level attribute.

    Items that lack the attribute simply do not appear — the trick Beldi's
    intent collector uses to find pending intents cheaply (index on a
    ``Pending`` marker that is removed once the intent is done).
    """

    name: str
    attribute: str
    entries: dict[Any, set] = field(default_factory=dict)

    def remove(self, key: tuple, old_value: Any) -> None:
        bucket = self.entries.get(old_value)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del self.entries[old_value]

    def insert(self, key: tuple, new_value: Any) -> None:
        self.entries.setdefault(new_value, set()).add(key)

    def lookup(self, value: Any) -> set:
        return self.entries.get(value, set())


def _hashable_index_value(value: Any) -> Any:
    if isinstance(value, (list, dict, set, frozenset)):
        raise ValidationError("index attributes must be scalar")
    return value


class Table:
    """One table: storage, indexes, atomic ops.

    All public methods are thread-safe; the simulation kernel already
    serializes processes, but unit tests exercise tables directly from
    multiple OS threads.
    """

    def __init__(self, name: str, schema: KeySchema,
                 max_item_bytes: int = DEFAULT_MAX_ITEM_BYTES) -> None:
        self.name = name
        self.schema = schema
        self.max_item_bytes = max_item_bytes
        #: ``{hash: row}``; with a range key, ``{hash: row}`` for a
        #: partition of one row and ``{hash: {range: row}}`` for more.
        self._partitions: dict[Any, Any] = {}
        self._indexes: dict[str, _SecondaryIndex] = {}
        self._lock = threading.RLock()
        # Range-key order per partition, maintained incrementally so hot
        # partitions (long DAAL chains) do not pay a sort per query.
        self._sorted_cache: dict[Any, list] = {}

    # -- index management ----------------------------------------------------
    def add_index(self, name: str, attribute: str) -> None:
        with self._lock:
            if name in self._indexes:
                raise ValidationError(f"index {name!r} already exists")
            index = _SecondaryIndex(name, attribute)
            for key, item in self._iter_raw():
                if attribute in item:
                    index.insert(key, _hashable_index_value(item[attribute]))
            self._indexes[name] = index

    def _index_remove(self, key: tuple, item: Optional[dict]) -> None:
        if item is None:
            return
        for index in self._indexes.values():
            value = item.get(index.attribute, _ABSENT)
            if value is not _ABSENT:
                index.remove(key, value)

    def _index_insert(self, key: tuple, item: Optional[dict]) -> None:
        if item is None:
            return
        for index in self._indexes.values():
            value = item.get(index.attribute, _ABSENT)
            if value is not _ABSENT:
                index.insert(key, value)

    # -- raw storage helpers --------------------------------------------------
    # With a range key, a partition of one row is the row itself (its
    # range value is in it); a second row makes it a ``{range: row}``
    # map, and the last but one leaving makes it bare again. Stored rows
    # are ``FrozenRow``s, so a plain ``dict`` is always such a map.
    def _iter_raw(self) -> Iterable[tuple[tuple, dict]]:
        range_key = self.schema.range_key
        if range_key is None:
            for hash_value, item in self._partitions.items():
                yield (hash_value,), item
            return
        for hash_value, partition in self._partitions.items():
            if partition.__class__ is dict:
                for range_value, item in partition.items():
                    yield (hash_value, range_value), item
            else:
                yield (hash_value, partition[range_key]), partition

    def _get_raw(self, key: tuple) -> Optional[dict]:
        partition = self._partitions.get(key[0])
        if partition is None or self.schema.range_key is None:
            return partition
        if partition.__class__ is dict:
            return partition.get(key[1])
        if partition[self.schema.range_key] == key[1]:
            return partition
        return None

    def _put_raw(self, key: tuple, item: dict) -> None:
        range_key = self.schema.range_key
        partition = self._partitions.get(key[0])
        if partition is None or range_key is None:
            self._partitions[key[0]] = item
            return
        if partition.__class__ is not dict:
            if partition[range_key] == key[1]:
                self._partitions[key[0]] = item
                return
            partition = self._partitions[key[0]] = {
                partition[range_key]: partition}
        if key[1] not in partition:
            self._sorted_cache.pop(key[0], None)
        partition[key[1]] = item

    def _delete_raw(self, key: tuple) -> None:
        partition = self._partitions.get(key[0])
        if partition is None:
            return
        if partition.__class__ is not dict:  # a row
            if self._get_raw(key) is partition:
                del self._partitions[key[0]]
            return
        if key[1] in partition:
            self._sorted_cache.pop(key[0], None)
            del partition[key[1]]
            if len(partition) == 1:
                (row,) = partition.values()
                self._partitions[key[0]] = row

    def _sorted_range_keys(self, hash_value: Any) -> list:
        partition = self._partitions.get(hash_value)
        if partition is None:
            return []
        if partition.__class__ is not dict:
            return [partition[self.schema.range_key]]
        cached = self._sorted_cache.get(hash_value)
        if cached is None:
            cached = sorted(partition.keys(), key=_sort_token)
            self._sorted_cache[hash_value] = cached
        return cached

    def _check_row(self, row: FrozenRow) -> None:
        """Reject a row before it lands: an indexed attribute that is not
        a scalar, or a row over the item cap."""
        for index in self._indexes.values():
            value = row.get(index.attribute, _ABSENT)
            if value is not _ABSENT:
                _hashable_index_value(value)
        if row.size > self.max_item_bytes:
            raise ItemTooLarge(
                f"item of {row.size} bytes exceeds {self.max_item_bytes} "
                f"byte cap in table {self.name!r}")

    def _replace(self, key: tuple, existing: Optional[dict],
                 row: Optional[dict]) -> None:
        """Swap ``existing`` under ``key`` for ``row`` (``None``: none)."""
        self._index_remove(key, existing)
        if row is None:
            self._delete_raw(key)
        else:
            self._put_raw(key, row)
            self._index_insert(key, row)

    # -- building rows before any effect ------------------------------------------
    def prepare_put(self, item: dict) -> tuple[tuple, FrozenRow]:
        """``(key, row)`` of ``item`` as a put would store it: the
        validated frozen copy, rejected here when the table may not hold
        it (:meth:`_check_row`)."""
        row = freeze_item(item)
        key = self.schema.normalize(item)
        self._check_row(row)
        return key, row

    def draft(self, key: tuple, existing: Optional[FrozenRow],
              updates: Sequence[UpdateAction]) -> FrozenRow:
        """The new row ``updates`` make of ``existing`` (``None``: a row
        of just the key), rejected here when the table may not hold it.

        Copy-on-write: the draft starts as a shallow copy of
        ``existing``, the actions copy a frozen container only along a
        path they change, and only the top-level attributes they name
        are frozen and sized again; the row shares every other value
        with ``existing`` — so building it costs what the update
        touches, not the row."""
        key_dict = self.schema.key_dict(key)
        draft = dict(key_dict) if existing is None else existing.as_dict()
        apply_updates(draft, updates)
        for name in (self.schema.hash_key, self.schema.range_key):
            if name is not None and draft.get(name) != key_dict.get(name):
                raise ValidationError(
                    f"update may not modify key attribute {name!r}")
        if existing is None:
            row = freeze_item(draft)
        else:
            row = freeze_update(existing, draft,
                                {action.path.top for action in updates})
        self._check_row(row)
        return row

    def install(self, key: tuple, row: Optional[dict]) -> None:
        """Store ``row`` under ``key`` as it is (``None`` removes the
        key): no check, copy or size. ``row`` must be one this table
        built or another table's stored row — never mutated in place, so
        two replicas can hold the same object."""
        with self._lock:
            self._replace(key, self._get_raw(key), row)

    # -- point operations ------------------------------------------------------
    def get(self, key: Any) -> Optional[dict]:
        return self._get(key)[0]

    def _get(self, key: Any) -> tuple[Optional[dict], int, int]:
        """``(the row or None, bytes read, rows walked)``."""
        key = self.schema.normalize(key)
        with self._lock:
            item = self._get_raw(key)
        if item is None:
            return None, 0, 1
        return item.as_dict(), item.size, 1

    def put(self, item: dict, condition: Optional[Condition] = None) -> None:
        self._put(item, condition)

    def _put(self, item: dict, condition: Optional[Condition] = None
             ) -> tuple[None, int]:
        """``(None, bytes written)``."""
        row = freeze_item(item)
        key = self.schema.normalize(item)
        with self._lock:
            existing = self._get_raw(key)
            if condition is not None and not condition.evaluate(existing):
                raise ConditionFailed(
                    f"put condition failed on {self.name}:{key}")
            self._check_row(row)
            self._replace(key, existing, row)
        return None, row.size

    def update(self, key: Any, updates: Sequence[UpdateAction],
               condition: Optional[Condition] = None,
               return_new: bool = False) -> Optional[dict]:
        """Atomically check ``condition`` and apply ``updates``.

        Creates the item (with just its key attributes) when absent,
        matching DynamoDB ``UpdateItem`` semantics. Returns the new
        item when ``return_new`` asks for it (DynamoDB's
        ``ReturnValues``), else ``None``.
        """
        return self._update(key, updates, condition, return_new)[0]

    def _update(self, key: Any, updates: Sequence[UpdateAction],
                condition: Optional[Condition] = None,
                return_new: bool = False) -> tuple[Optional[dict], int]:
        """``(the new row or None, bytes written)``."""
        key = self.schema.normalize(key)
        with self._lock:
            existing = self._get_raw(key)
            if condition is not None and not condition.evaluate(existing):
                raise ConditionFailed(
                    f"update condition failed on {self.name}:{key}")
            row = self.draft(key, existing, updates)
            self._replace(key, existing, row)
        return (row.as_dict() if return_new else None), row.size

    def delete(self, key: Any,
               condition: Optional[Condition] = None) -> bool:
        """Remove the row under ``key``; whether there was one."""
        return self._delete(key, condition)[0]

    def _delete(self, key: Any, condition: Optional[Condition] = None
                ) -> tuple[bool, int]:
        """``(whether a row was removed, its bytes)``."""
        key = self.schema.normalize(key)
        with self._lock:
            existing = self._get_raw(key)
            if condition is not None and not condition.evaluate(existing):
                raise ConditionFailed(
                    f"delete condition failed on {self.name}:{key}")
            if existing is None:
                return False, 0
            self._replace(key, existing, None)
        return True, existing.size

    # -- queries and scans -------------------------------------------------------
    def query(self, hash_value: Any,
              projection: Optional[Projection] = None,
              limit: Optional[int] = None) -> QueryResult:
        """The first ``limit`` rows of one partition, by range key."""
        with self._lock:
            partition = self._partitions.get(hash_value)
            if partition is None:
                ordered = []
            elif partition.__class__ is dict:
                ordered = [partition[rk] for rk in
                           self._sorted_range_keys(hash_value)]
            else:
                ordered = [partition]
            return self._page(ordered, None, projection, limit)

    def scan(self, filter_condition: Optional[Condition] = None,
             projection: Optional[Projection] = None,
             limit: Optional[int] = None) -> ScanResult:
        """The first ``limit`` rows of the table in key order, filtered.

        DynamoDB applies ``limit`` *before* the filter (it bounds the
        rows walked, not the rows returned), and so does this.
        """
        with self._lock:
            ordered = [item for _key, item in
                       sorted(self._iter_raw(),
                              key=lambda kv: _sort_token_tuple(kv[0]))]
            return self._page(ordered, filter_condition, projection, limit)

    @staticmethod
    def _page(ordered: list, filter_condition: Optional[Condition],
              projection: Optional[Projection],
              limit: Optional[int]) -> QueryResult:
        walked = ordered if limit is None else ordered[:limit]
        items: list[dict] = []
        consumed = 0
        for item in walked:
            if filter_condition is not None and not filter_condition.evaluate(
                    item):
                continue
            if projection is None:
                out, size = item.as_dict(), item.size
            else:
                out, size = projection.walk(item)
            consumed += size
            items.append(out)
        return QueryResult(items, len(walked), consumed)

    def _query(self, *args) -> tuple[QueryResult, int, int]:
        """``(page, bytes read, rows walked)`` of :meth:`query`."""
        result = self.query(*args)
        return result, result.consumed_bytes, result.scanned_count

    def _scan(self, *args) -> tuple[ScanResult, int, int]:
        """``(page, bytes read, rows walked)`` of :meth:`scan`."""
        result = self.scan(*args)
        return result, result.consumed_bytes, result.scanned_count

    def query_index(self, index_name: str, value: Any) -> list[dict]:
        """All items whose indexed attribute equals ``value``."""
        return self._query_index(index_name, value)[0]

    def _query_index(self, index_name: str, value: Any
                     ) -> tuple[list[dict], int, int]:
        """``(the rows, bytes read, rows walked)``."""
        with self._lock:
            index = self._indexes.get(index_name)
            if index is None:
                raise ValidationError(f"no index named {index_name!r}")
            keys = sorted(index.lookup(value), key=_sort_token_tuple)
            results = []
            consumed = 0
            for key in keys:
                item = self._get_raw(key)
                if item is None:
                    continue
                consumed += item.size
                results.append(item.as_dict())
            return results, consumed, len(results)

    # -- stats -----------------------------------------------------------------
    def item_count(self) -> int:
        with self._lock:
            if self.schema.range_key is None:
                return len(self._partitions)
            return sum(len(p) if p.__class__ is dict else 1
                       for p in self._partitions.values())

    def storage_bytes(self) -> int:
        with self._lock:
            return sum(item.size for _k, item in self._iter_raw())


def _sort_token(value: Any) -> tuple:
    """Total order over heterogeneous key values (type rank, then value)."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, bytes):
        return (4, value)
    return (5, str(value))


def _sort_token_tuple(key: tuple) -> tuple:
    return tuple(_sort_token(part) for part in key)
