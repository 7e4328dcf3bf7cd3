"""Tables: key schemas, atomic row operations, queries, scans, indexes.

A table partitions items by a **hash key** and orders them within a
partition by an optional **range key**. Every mutation is atomic at item
granularity — this is the "atomicity scope" Beldi's linked DAAL is built
around. Conditions are checked and updates applied inside one critical
section, so concurrent simulated writers observe linearizable rows.

A stored row is never mutated in place: ``put`` stores a fresh copy,
``update`` replaces the row with a freshly built draft, and every read
hands out a copy. So a stored row may be shared — a replica group's
followers install the leader's row objects (:meth:`Table.install`) — and
every operation walks a row once (:func:`~repro.kvstore.item.walk_item`:
validate, copy and size together). The ``_``-prefixed twins of the
operations return the bytes they moved beside their result, which is
what a :class:`~repro.kvstore.store.KVStore` meters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.kvstore.errors import (
    ConditionFailed,
    ItemTooLarge,
    ValidationError,
)
from repro.kvstore.expressions import (
    Condition,
    Projection,
    UpdateAction,
    apply_updates,
)
from repro.kvstore.item import (
    copy_item,
    item_size,
    walk_item,
)

DEFAULT_MAX_ITEM_BYTES = 400 * 1024  # DynamoDB's row cap


@dataclass(frozen=True)
class KeySchema:
    """Hash key plus optional range key, by attribute name."""

    hash_key: str
    range_key: Optional[str] = None

    def extract(self, item: dict) -> tuple:
        if self.hash_key not in item:
            raise ValidationError(f"item missing hash key {self.hash_key!r}")
        hash_value = item[self.hash_key]
        if self.range_key is None:
            return (hash_value,)
        if self.range_key not in item:
            raise ValidationError(
                f"item missing range key {self.range_key!r}")
        return (hash_value, item[self.range_key])

    def key_dict(self, key: tuple) -> dict:
        if self.range_key is None:
            return {self.hash_key: key[0]}
        return {self.hash_key: key[0], self.range_key: key[1]}

    def normalize(self, key: Any) -> tuple:
        """Accept a scalar, tuple, or dict and return the canonical tuple."""
        if isinstance(key, dict):
            return self.extract(key)
        if isinstance(key, tuple):
            expected = 1 if self.range_key is None else 2
            if len(key) != expected:
                raise ValidationError(
                    f"key tuple must have {expected} parts, got {len(key)}")
            return key
        if self.range_key is not None:
            raise ValidationError(
                "table has a range key; pass a (hash, range) tuple")
        return (key,)


@dataclass
class QueryResult:
    items: list[dict]
    last_evaluated_key: Optional[tuple] = None
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
    if isinstance(value, (list, dict, set)):
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
        self._partitions: dict[Any, dict[Any, dict]] = {}
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
            if index.attribute in item:
                index.remove(key, _hashable_index_value(
                    item[index.attribute]))

    def _index_insert(self, key: tuple, item: Optional[dict]) -> None:
        if item is None:
            return
        for index in self._indexes.values():
            if index.attribute in item:
                index.insert(key, _hashable_index_value(
                    item[index.attribute]))

    # -- raw storage helpers --------------------------------------------------
    def _iter_raw(self) -> Iterable[tuple[tuple, dict]]:
        for hash_value, partition in self._partitions.items():
            for range_value, item in partition.items():
                if self.schema.range_key is None:
                    yield (hash_value,), item
                else:
                    yield (hash_value, range_value), item

    def _get_raw(self, key: tuple) -> Optional[dict]:
        partition = self._partitions.get(key[0])
        if partition is None:
            return None
        range_value = key[1] if self.schema.range_key is not None else None
        return partition.get(range_value)

    def _put_raw(self, key: tuple, item: dict) -> None:
        partition = self._partitions.setdefault(key[0], {})
        range_value = key[1] if self.schema.range_key is not None else None
        if range_value not in partition:
            self._sorted_cache.pop(key[0], None)
        partition[range_value] = item

    def _delete_raw(self, key: tuple) -> None:
        partition = self._partitions.get(key[0])
        if partition is None:
            return
        range_value = key[1] if self.schema.range_key is not None else None
        if range_value in partition:
            self._sorted_cache.pop(key[0], None)
        partition.pop(range_value, None)
        if not partition:
            del self._partitions[key[0]]

    def _sorted_range_keys(self, hash_value: Any) -> list:
        cached = self._sorted_cache.get(hash_value)
        if cached is None:
            partition = self._partitions.get(hash_value, {})
            cached = sorted(partition.keys(), key=_sort_token)
            self._sorted_cache[hash_value] = cached
        return cached

    def _check_size(self, size: int) -> None:
        if size > self.max_item_bytes:
            raise ItemTooLarge(
                f"item of {size} bytes exceeds {self.max_item_bytes} "
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
    def prepare_put(self, item: dict) -> tuple[tuple, dict, int]:
        """``(key, row, size)`` of ``item`` as a put would store it: the
        validated copy and its size, rejected here when oversized."""
        row, size = walk_item(item)
        key = self.schema.extract(item)
        self._check_size(size)
        return key, row, size

    def draft(self, key: tuple, existing: Optional[dict],
              updates: Sequence[UpdateAction]) -> dict:
        """The new row ``updates`` make of ``existing`` (``None``: a row
        of just the key), sharing nothing with it or with ``updates``."""
        key_dict = self.schema.key_dict(key)
        draft = dict(key_dict) if existing is None else copy_item(existing)
        apply_updates(draft, updates)
        for name in (self.schema.hash_key, self.schema.range_key):
            if name is not None and draft.get(name) != key_dict.get(name):
                raise ValidationError(
                    f"update may not modify key attribute {name!r}")
        return draft

    def install(self, key: tuple, row: Optional[dict]) -> None:
        """Store ``row`` under ``key`` as it is (``None`` removes the
        key): no check, copy or size. ``row`` must be one this table
        built or another table's stored row — never mutated in place, so
        two replicas can hold the same object."""
        with self._lock:
            self._replace(key, self._get_raw(key), row)

    # -- point operations ------------------------------------------------------
    def get(self, key: Any,
            projection: Optional[Projection] = None) -> Optional[dict]:
        return self._get(key, projection)[0]

    def _get(self, key: Any, projection: Optional[Projection] = None
             ) -> tuple[Optional[dict], int, int]:
        """``(copy of the row or None, bytes read, rows walked)``."""
        key = self.schema.normalize(key)
        with self._lock:
            item = self._get_raw(key)
        if item is None:
            return None, 0, 1
        return (*_handed_out(item, projection), 1)

    def put(self, item: dict, condition: Optional[Condition] = None) -> None:
        self._put(item, condition)

    def _put(self, item: dict, condition: Optional[Condition] = None
             ) -> tuple[None, int]:
        """``(None, bytes written)``."""
        row, size = walk_item(item)
        key = self.schema.extract(item)
        with self._lock:
            existing = self._get_raw(key)
            if condition is not None and not condition.evaluate(existing):
                raise ConditionFailed(
                    f"put condition failed on {self.name}:{key}")
            self._check_size(size)
            self._replace(key, existing, row)
        return None, size

    def update(self, key: Any, updates: Sequence[UpdateAction],
               condition: Optional[Condition] = None) -> dict:
        """Atomically check ``condition`` and apply ``updates``.

        Creates the item (with just its key attributes) when absent,
        matching DynamoDB ``UpdateItem`` semantics. Returns the new item.
        """
        return self._update(key, updates, condition)[0]

    def _update(self, key: Any, updates: Sequence[UpdateAction],
                condition: Optional[Condition] = None) -> tuple[dict, int]:
        """``(copy of the new row, bytes written)``."""
        key = self.schema.normalize(key)
        with self._lock:
            existing = self._get_raw(key)
            if condition is not None and not condition.evaluate(existing):
                raise ConditionFailed(
                    f"update condition failed on {self.name}:{key}")
            draft = self.draft(key, existing, updates)
            row, size = walk_item(draft)
            self._check_size(size)
            self._replace(key, existing, draft)
        return row, size

    def delete(self, key: Any,
               condition: Optional[Condition] = None) -> Optional[dict]:
        return self._delete(key, condition)[0]

    def _delete(self, key: Any, condition: Optional[Condition] = None
                ) -> tuple[Optional[dict], int]:
        """``(copy of the removed row or None, its bytes)``."""
        key = self.schema.normalize(key)
        with self._lock:
            existing = self._get_raw(key)
            if condition is not None and not condition.evaluate(existing):
                raise ConditionFailed(
                    f"delete condition failed on {self.name}:{key}")
            if existing is None:
                return None, 0
            self._replace(key, existing, None)
        return walk_item(existing)

    # -- queries and scans -------------------------------------------------------
    def query(self, hash_value: Any,
              range_condition: Optional[Condition] = None,
              filter_condition: Optional[Condition] = None,
              projection: Optional[Projection] = None,
              limit: Optional[int] = None,
              exclusive_start: Optional[Any] = None,
              reverse: bool = False) -> QueryResult:
        """All items in one partition, ordered by range key."""
        with self._lock:
            partition = self._partitions.get(hash_value, {})
            if self.schema.range_key is None:
                ordered = list(partition.values())
            else:
                range_keys = self._sorted_range_keys(hash_value)
                if reverse:
                    range_keys = list(reversed(range_keys))
                ordered = [partition[rk] for rk in range_keys]
            return self._page(ordered, range_condition, filter_condition,
                              projection, limit, exclusive_start,
                              key_of=lambda it: self.schema.extract(it))

    def scan(self, filter_condition: Optional[Condition] = None,
             projection: Optional[Projection] = None,
             limit: Optional[int] = None,
             exclusive_start: Optional[Any] = None) -> ScanResult:
        """Full-table scan in deterministic key order with paging.

        DynamoDB applies ``limit`` *before* the filter; the GC's paging
        (Appendix A, ``LastEvaluatedKey``) depends on that, so we mimic it.
        """
        with self._lock:
            ordered = [item for _key, item in
                       sorted(self._iter_raw(),
                              key=lambda kv: _sort_token_tuple(kv[0]))]
            return self._page(ordered, None, filter_condition, projection,
                              limit, exclusive_start,
                              key_of=lambda it: self.schema.extract(it))

    def _page(self, ordered: list, range_condition: Optional[Condition],
              filter_condition: Optional[Condition],
              projection: Optional[Projection], limit: Optional[int],
              exclusive_start: Optional[Any],
              key_of: Callable[[dict], tuple]) -> QueryResult:
        start_index = 0
        if exclusive_start is not None:
            for i, item in enumerate(ordered):
                if key_of(item) == tuple(exclusive_start):
                    start_index = i + 1
                    break
            else:
                start_index = len(ordered)
        items: list[dict] = []
        scanned = 0
        consumed = 0
        last_key: Optional[tuple] = None
        for item in ordered[start_index:]:
            if limit is not None and scanned >= limit:
                break
            scanned += 1
            last_key = key_of(item)
            if range_condition is not None and not range_condition.evaluate(
                    item):
                continue
            if filter_condition is not None and not filter_condition.evaluate(
                    item):
                continue
            out, size = _handed_out(item, projection)
            consumed += size
            items.append(out)
        exhausted = (limit is None or scanned < limit
                     or start_index + scanned >= len(ordered))
        return QueryResult(
            items=items,
            last_evaluated_key=None if exhausted else last_key,
            scanned_count=scanned,
            consumed_bytes=consumed)

    def _query(self, *args) -> tuple[QueryResult, int, int]:
        """``(page, bytes read, rows walked)`` of :meth:`query`."""
        result = self.query(*args)
        return result, result.consumed_bytes, result.scanned_count

    def _scan(self, *args) -> tuple[ScanResult, int, int]:
        """``(page, bytes read, rows walked)`` of :meth:`scan`."""
        result = self.scan(*args)
        return result, result.consumed_bytes, result.scanned_count

    def query_index(self, index_name: str, value: Any,
                    projection: Optional[Projection] = None) -> list[dict]:
        """All items whose indexed attribute equals ``value``."""
        return self._query_index(index_name, value, projection)[0]

    def _query_index(self, index_name: str, value: Any,
                     projection: Optional[Projection] = None
                     ) -> tuple[list[dict], int, int]:
        """``(copies of the rows, bytes read, rows walked)``."""
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
                out, size = _handed_out(item, projection)
                consumed += size
                results.append(out)
            return results, consumed, len(results)

    # -- stats -----------------------------------------------------------------
    def item_count(self) -> int:
        with self._lock:
            return sum(len(p) for p in self._partitions.values())

    def storage_bytes(self) -> int:
        with self._lock:
            return sum(item_size(item) for _k, item in self._iter_raw())


def _handed_out(row: dict, projection: Optional[Projection]
                ) -> tuple[dict, int]:
    """What a read hands out for a stored row — its copy, or the
    projected copy — and the bytes that moves."""
    if projection is None:
        return walk_item(row)
    out = projection.apply(row)
    return out, item_size(out)


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
