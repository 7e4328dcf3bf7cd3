"""The store surface, declared once.

Beldi needs only a narrow storage API (§2.2, §4.1): strongly consistent
reads, a row-scoped atomic conditional update, a projected partition
query and a filtered, projected scan. This module is the one place that
API is written down, and an operation takes only the parameters some
caller passes.
It holds

- the **ten operations** as plain functions — each operation's one
  signature and its contract docstring — which :func:`store_layer`
  installs on every layer class;
- one :class:`StoreOp` **declaration** per operation: its *kind*, the
  latency op it pays, the metering/span key it records under, and the
  few facts a layer may need about it (does a condition re-price it,
  does its cost scale with the rows it walks, may it degrade);
- the request/response **value types** the operations exchange
  (``Transact*``, :class:`BatchGetResult`, :class:`BatchWriteResult`);
- the **routing and validation rules** that must be the same wherever
  they are applied: :func:`partition_value` / :func:`route_token` (what
  routes a row), :func:`validate_batch_write` (what a well-formed batch
  is), :func:`fan_out_batch` (how a batch splits per owner and merges
  back);
- the **one walk** over a stack of layers, :func:`layers` (and its
  :func:`leaves`) — the only code that knows how layers nest.

The only direct path to rows is a leaf's ``KVStore.table(name)``, a
physical :class:`~repro.kvstore.table.Table`: no latency, no metering,
no faults, no replication — for tests and index definitions, never for
traffic a facade must see.

An entry function does no work of its own beyond "an empty request is
free": it packs its arguments, in declared order, into one tuple and
hands ``(op, args)`` to the layer's handler for the operation's *kind* —
``_keyed_read``, ``_keyed_write``, ``_batch``, ``_table_read`` or
``_transact``. Layers implement those five handlers (often fewer: a
layer that treats two kinds alike binds both names to one method), never
the ten operations, and reach the next layer through its public names
with :meth:`StoreOp.call`.

The positional conventions every handler relies on (pinned by
``tests/kvstore/test_store_conformance.py``): ``args[0]`` is the table
for every kind but ``transact``; a keyed operation's routing key (a key,
an item for ``put``, a hash value for ``query``) is ``args[1]``; every
read ends with ``consistency``; every keyed write ends with
``condition``; and after the table a keyed or whole-table operation's
arguments are exactly the same-named :class:`~repro.kvstore.table.Table`
method's, in order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.kvstore.asyncio import overlap
from repro.kvstore.errors import ThrottledError, UnavailableError
from repro.kvstore.expressions import Condition, Projection, UpdateAction
from repro.kvstore.table import KeySchema, QueryResult, ScanResult


# -- request / response value types --------------------------------------------
@dataclass(frozen=True)
class TransactPut:
    table: str
    item: dict
    condition: Optional[Condition] = None


@dataclass(frozen=True)
class TransactUpdate:
    table: str
    key: Any
    updates: Sequence[UpdateAction]
    condition: Optional[Condition] = None


@dataclass(frozen=True)
class TransactDelete:
    table: str
    key: Any
    condition: Optional[Condition] = None


TransactOp = Union[TransactPut, TransactUpdate, TransactDelete]


#: DynamoDB ``BatchWriteItem`` caps one request at 25 put/delete items.
MAX_BATCH_WRITE_ITEMS = 25


class BatchWriteResult:
    """``batch_write``'s return value: what the round trip left unserved.

    Mirrors DynamoDB ``BatchWriteItem``'s ``UnprocessedItems``: under a
    throttle the store may apply only a prefix of the batch and hand the
    rest back for the caller to retry (:func:`batch_write_all` is the
    retrying wrapper). ``unprocessed_puts`` holds the unapplied item
    dicts, ``unprocessed_deletes`` the unapplied keys, both in request
    order.
    """

    def __init__(self, unprocessed_puts: Sequence[dict] = (),
                 unprocessed_deletes: Sequence[Any] = ()) -> None:
        self.unprocessed_puts: list[dict] = list(unprocessed_puts)
        self.unprocessed_deletes: list[Any] = list(unprocessed_deletes)

    @property
    def complete(self) -> bool:
        return not self.unprocessed_puts and not self.unprocessed_deletes


class BatchGetResult(list):
    """``batch_get``'s return value: aligned rows plus the unserved rest.

    Behaves as a plain list of ``Optional[dict]`` aligned with the
    requested keys (missing rows are ``None``), so callers that predate
    partial results keep working unchanged. Under throttling the store
    may serve only part of the batch — DynamoDB's ``UnprocessedKeys`` —
    in which case the unserved positions are ``None`` *and* listed in
    :attr:`unprocessed_indexes`/:attr:`unprocessed_keys` for the caller
    to retry. Use :func:`batch_get_all` for a retrying wrapper.
    """

    def __init__(self, items: Sequence[Optional[dict]] = (),
                 unprocessed_indexes: Sequence[int] = (),
                 keys: Sequence[Any] = ()) -> None:
        super().__init__(items)
        self.unprocessed_indexes: list[int] = list(unprocessed_indexes)
        self.unprocessed_keys: list[Any] = [
            keys[i] for i in self.unprocessed_indexes] if keys else []

    @property
    def complete(self) -> bool:
        return not self.unprocessed_indexes


# -- the ten operations ----------------------------------------------------------
def get(self, table: str, key: Any,
        consistency: Optional[str] = None) -> Optional[dict]:
    """Point read.

    ``consistency`` is the DynamoDB knob: ``None``/``"strong"`` is a
    strongly consistent read (full price); ``"eventual"`` meters at
    half a read unit. On a plain :class:`KVStore` both serve the same
    (single, current) state — a
    :class:`~repro.kvstore.replication.ReplicaGroup` additionally
    routes eventual reads to a possibly-lagging follower.
    """
    return self._keyed_read(GET, (table, key, consistency))


def put(self, table: str, item: dict,
        condition: Optional[Condition] = None) -> None:
    """Write one row, atomically with its (optional) condition."""
    return self._keyed_write(PUT, (table, item, condition))


def update(self, table: str, key: Any, updates: Sequence[UpdateAction],
           condition: Optional[Condition] = None) -> dict:
    """Atomically check ``condition`` and apply ``updates`` to one row
    (created when absent); returns the new row."""
    return self._keyed_write(UPDATE, (table, key, updates, condition))


def delete(self, table: str, key: Any,
           condition: Optional[Condition] = None) -> Optional[dict]:
    """Remove one row; returns it, or ``None`` when it was absent."""
    return self._keyed_write(DELETE, (table, key, condition))


def query(self, table: str, hash_value: Any,
          projection: Optional[Projection] = None,
          limit: Optional[int] = None,
          consistency: Optional[str] = None) -> QueryResult:
    """The first ``limit`` rows of one partition, ordered by range key,
    each cut down to ``projection``.

    One partition lives on exactly one shard, so this — the DAAL's
    skeleton traversal — never fans out.
    """
    return self._keyed_read(QUERY, (
        table, hash_value, projection, limit, consistency))


def scan(self, table: str,
         filter_condition: Optional[Condition] = None,
         projection: Optional[Projection] = None,
         limit: Optional[int] = None,
         consistency: Optional[str] = None) -> ScanResult:
    """The first ``limit`` rows of the whole table in deterministic
    order, those ``filter_condition`` keeps, each cut down to
    ``projection``. As in DynamoDB the limit bounds the rows walked, so
    a filtered page may hold fewer. There is no cursor: a caller that
    wants more rows than one page rescans.
    """
    return self._table_read(SCAN, (
        table, filter_condition, projection, limit, consistency))


def query_index(self, table: str, index_name: str, value: Any,
                consistency: Optional[str] = None) -> list[dict]:
    """All rows whose indexed attribute equals ``value``, ordered by
    primary key — the same order however the table is placed."""
    return self._table_read(QUERY_INDEX, (
        table, index_name, value, consistency))


def batch_get(self, table: str, keys: Sequence[Any],
              consistency: Optional[str] = None) -> BatchGetResult:
    """Read many rows of one table in a single round trip.

    Models DynamoDB ``BatchGetItem`` restricted to one table: the
    whole batch pays one latency/fault draw and meters as a single
    request whose read units cover every served row. Results align
    with ``keys``; missing rows come back as ``None``. An empty
    batch is free.

    Throttling is DynamoDB-style **partial**: a throttle draw serves
    only a prefix of the batch and reports the remainder through
    :attr:`BatchGetResult.unprocessed_indexes` — callers retry the
    rest (see :func:`batch_get_all`). Only when *nothing* could be
    served (always the case for a single-key batch) does the call
    raise :class:`ThrottledError`, matching the point-read contract.
    """
    if not keys:
        return BatchGetResult()
    return self._batch(BATCH_GET, (table, keys, consistency))


def batch_write(self, table: str, puts: Sequence[dict] = (),
                deletes: Sequence[Any] = ()) -> BatchWriteResult:
    """Write/delete many rows of one table in a single round trip.

    Models DynamoDB ``BatchWriteItem`` restricted to one table: up to
    :data:`MAX_BATCH_WRITE_ITEMS` **unconditional** puts and deletes
    (DynamoDB supports no conditions in a batch) paying one
    latency/fault draw, metered as a single request whose write units
    cover every applied item — identical units to the sequential
    path, fewer round trips. An empty batch is free. A batch may not
    put and delete the same key (DynamoDB rejects such requests).

    Throttling is DynamoDB-style **partial**: a throttle draw applies
    only a prefix (puts first, then deletes, in request order) and
    reports the rest through :class:`BatchWriteResult` — callers
    retry via :func:`batch_write_all`. Only when *nothing* could be
    applied does the call raise :class:`ThrottledError`, matching the
    point-write contract.
    """
    # Materialize once: a generator argument must survive being routed,
    # applied and (on a replica group) shipped.
    puts, deletes = list(puts), list(deletes)
    if not puts and not deletes:
        return BatchWriteResult()
    return self._batch(BATCH_WRITE, (table, puts, deletes))


def transact_write(self, ops: Sequence[TransactOp]) -> None:
    """All-or-nothing conditional writes across tables.

    Models DynamoDB ``TransactWriteItems``; used only by the paper's
    cross-table-transaction baseline variant (Figs. 13 and 16), never by
    Beldi's linked-DAAL path. An empty transaction is free.
    """
    if not ops:
        return None
    return self._transact(TRANSACT_WRITE, (ops,))


# -- the declaration -----------------------------------------------------------------
KEYED_READ = "keyed_read"
KEYED_WRITE = "keyed_write"
BATCH = "batch"
TABLE_READ = "table_read"
TRANSACT = "transact"


@dataclass(frozen=True)
class StoreOp:
    """What every layer may know about one operation.

    name / entry:
        The public method name and the one function behind it.
    kind:
        Which per-layer handler (``_<kind>``) serves it.
    latency / meter:
        The latency op one round trip pays (also the name fault scopes,
        failover draws and retry labels use) and the metering key — which
        is the ``store.<meter>`` span name — it records under.
    conditional:
        A present ``condition`` re-prices the write as
        ``db.cond_write``/``cond_write`` (``put``, ``update``).
    ranged:
        The cost scales with the rows the effect walks, so a node runs
        the effect *before* charging for it (``query``, ``scan``,
        ``query_index``).
    degradable:
        A strong read that finds its leader dark may be served stale by a
        follower (``get`` of a data table only: the DAAL's serialization
        points are conditional writes, so a stale data read is pinned by
        the read log, while a traversal must see the current chain).
    """

    name: str
    entry: Callable
    kind: str
    latency: str
    meter: str
    conditional: bool = False
    ranged: bool = False
    degradable: bool = False

    def labels(self, args: tuple) -> tuple[str, str]:
        """``(latency op, metering/span key)`` of this particular call."""
        if self.conditional and args[-1] is not None:
            return "db.cond_write", "cond_write"
        return self.latency, self.meter

    def call(self, target, args: tuple):
        """Issue the operation on the next layer, through its public name."""
        return getattr(target, self.name)(*args)

    def keys(self, args: tuple) -> list[tuple]:
        """Every ``(table, routing key)`` the request touches.

        A routing key is whatever :func:`partition_value` accepts: a key,
        an item, a bare hash value. Whole-table reads touch no single key.
        """
        if self.kind == BATCH:
            return [(args[0], row) for row in batch_rows(self, args)[0]]
        if self.kind == TRANSACT:
            return [(op.table,
                     op.item if isinstance(op, TransactPut) else op.key)
                    for op in args[0]]
        return [] if self.kind == TABLE_READ else [args[:2]]


GET = StoreOp("get", get, KEYED_READ, "db.read", "read", degradable=True)
PUT = StoreOp("put", put, KEYED_WRITE, "db.write", "write",
              conditional=True)
UPDATE = StoreOp("update", update, KEYED_WRITE, "db.write", "write",
                 conditional=True)
DELETE = StoreOp("delete", delete, KEYED_WRITE, "db.delete", "delete")
QUERY = StoreOp("query", query, KEYED_READ, "db.query", "query",
                ranged=True)
SCAN = StoreOp("scan", scan, TABLE_READ, "db.scan", "scan", ranged=True)
QUERY_INDEX = StoreOp("query_index", query_index, TABLE_READ, "db.query",
                      "query_index", ranged=True)
BATCH_GET = StoreOp("batch_get", batch_get, BATCH, "db.batch_read",
                    "batch_get")
BATCH_WRITE = StoreOp("batch_write", batch_write, BATCH, "db.batch_write",
                      "batch_write")
TRANSACT_WRITE = StoreOp("transact_write", transact_write, TRANSACT,
                         "db.txn", "transact_write")

OPS = (GET, PUT, UPDATE, DELETE, QUERY, SCAN, QUERY_INDEX, BATCH_GET,
       BATCH_WRITE, TRANSACT_WRITE)


def store_layer(cls):
    """Class decorator: give ``cls`` the ten public operations.

    The functions are *copied into the class's own namespace* rather
    than inherited: each layer is a distinct run-time thing whose public
    entry points tools attach to per class (``perfbench/probes.py`` wraps
    the names it finds in each class's ``__dict__`` to attribute time
    to the layer), which a shared base class would collapse into one.
    """
    for op in OPS:
        setattr(cls, op.name, op.entry)
    return cls


# -- the stack of layers -------------------------------------------------------------
def _beneath(store) -> Sequence:
    """The layers directly under ``store``: a wrapper's one ``inner``
    store — read explicitly, since ``ResilientStore.__getattr__`` would
    answer ``nodes`` with the inner store's own and skip that layer — or
    a facade's ``nodes``; nothing under a leaf."""
    inner = getattr(store, "inner", None)
    if inner is not None:
        return (inner,)
    return getattr(store, "nodes", ())


def layers(store) -> Iterator:
    """``store``, then every layer beneath it, depth first in node
    order: a wrapper, its inner store, a sharded facade, each replica
    group, each group's members. The one walk over the store tree."""
    yield store
    for node in _beneath(store):
        yield from layers(node)


def leaves(store) -> Iterator:
    """The leaf nodes under ``store`` (the ``KVStore``\\ s holding the
    tables, clocks and capacity queues), in :func:`layers` order."""
    for layer in layers(store):
        if not _beneath(layer):
            yield layer


# -- routing ---------------------------------------------------------------------------
def partition_value(schema: KeySchema, key: Any) -> Any:
    """The component of ``key`` that routes it.

    ``key`` may be a scalar partition value (even for a ranged table), a
    (hash, range) tuple, or an item dict — only the partition component
    routes, so one item's whole chain co-locates."""
    if isinstance(key, dict):
        return key[schema.hash_key]
    if isinstance(key, tuple):
        return key[0]
    return key


def route_token(table: str, value: Any) -> str:
    """The stable name of one ``(table, partition value)`` placement
    unit — what hash placement, follower affinity, migration latches and
    forwarding entries are all keyed by."""
    return f"{table}|{value!r}"


# -- batches -----------------------------------------------------------------------------
def batch_rows(op: StoreOp, args: tuple) -> tuple[list, int]:
    """A batch request as ``(rows, n_puts)``: one flat row list — keys
    for ``batch_get``; the put items, then the delete keys, for
    ``batch_write`` — and where the puts end."""
    if op is BATCH_GET:
        return list(args[1]), 0
    return args[1] + args[2], len(args[1])


def batch_result(op: StoreOp, rows: list, n_puts: int, items: list,
                 unprocessed: Sequence[int]):
    """The batch's result from the row positions left ``unprocessed``
    (ascending) and, for reads, the position-aligned ``items``."""
    if op is BATCH_GET:
        return BatchGetResult(items, unprocessed, rows)
    return BatchWriteResult([rows[i] for i in unprocessed if i < n_puts],
                            [rows[i] for i in unprocessed if i >= n_puts])


def validate_batch_write(schema: KeySchema, rows: list) -> None:
    """Reject a malformed ``batch_write`` before it touches anything.

    Applied ahead of routing, so a bad request is all-or-nothing on any
    placement. DynamoDB rejects any repeated key in one BatchWriteItem —
    duplicate puts, duplicate deletes, or a put+delete pair.
    """
    if len(rows) > MAX_BATCH_WRITE_ITEMS:
        raise ValueError(
            f"batch_write accepts at most {MAX_BATCH_WRITE_ITEMS} "
            f"items per request, got {len(rows)}")
    touched = set()
    for row in rows:
        token = repr(schema.normalize(row))
        if token in touched:
            raise ValueError(
                "batch_write may not touch the same key twice in "
                "one request")
        touched.add(token)


def fan_out_batch(op: StoreOp, args: tuple, owner_of: Callable,
                  call: Callable, store, async_io: bool):
    """Split one batch by owner, re-merge in request order.

    ``owner_of(row)`` names the owner of one row (an orderable id);
    ``call(owner, sub_args)`` performs that owner's single round trip —
    overlapped under ``async_io``, via an
    :func:`~repro.kvstore.asyncio.overlap` scope over ``store``. An
    owner's partial throttle, or its whole ``ThrottledError`` /
    ``UnavailableError``, becomes unprocessed rows of the merged result;
    the call raises only when not a single row anywhere was served.
    """
    rows, n_puts = batch_rows(op, args)
    by_owner: dict = {}
    for position, row in enumerate(rows):
        by_owner.setdefault(owner_of(row), []).append(position)
    items: list = [None] * len(rows)
    unprocessed: list[int] = []
    served_any = dark = False
    with overlap(store, enabled=async_io) as scope:
        for owner in sorted(by_owner):
            positions = by_owner[owner]
            owned = [rows[i] for i in positions]
            owned_puts = bisect_left(positions, n_puts)
            sub_args = ((args[0], owned) + args[2:] if op is BATCH_GET else
                        (args[0], owned[:owned_puts], owned[owned_puts:]))
            try:
                with scope.branch():
                    result = call(owner, sub_args)
            except (ThrottledError, UnavailableError) as exc:
                dark = dark or isinstance(exc, UnavailableError)
                unprocessed.extend(positions)
                continue
            if op is BATCH_GET:
                unserved = set(result.unprocessed_indexes)
            else:
                unserved = {
                    *range(owned_puts - len(result.unprocessed_puts),
                           owned_puts),
                    *range(len(owned) - len(result.unprocessed_deletes),
                           len(owned))}
            for offset, position in enumerate(positions):
                if offset in unserved:
                    unprocessed.append(position)
                else:
                    served_any = True
                    if op is BATCH_GET:
                        items[position] = result[offset]
    if not served_any:
        if dark:
            raise UnavailableError(
                f"{op.latency} unavailable on every owner")
        raise ThrottledError(f"{op.latency} throttled on every owner")
    return batch_result(op, rows, n_puts, items, sorted(unprocessed))


__all__ = [
    "BATCH", "BATCH_GET", "BATCH_WRITE", "BatchGetResult",
    "BatchWriteResult", "DELETE", "GET", "KEYED_READ", "KEYED_WRITE",
    "MAX_BATCH_WRITE_ITEMS", "OPS", "PUT", "QUERY", "QUERY_INDEX", "SCAN",
    "StoreOp", "TABLE_READ", "TRANSACT", "TRANSACT_WRITE", "TransactDelete",
    "TransactOp", "TransactPut", "TransactUpdate", "UPDATE", "batch_result",
    "batch_rows", "fan_out_batch", "layers", "leaves", "partition_value",
    "route_token", "store_layer", "validate_batch_write",
]
