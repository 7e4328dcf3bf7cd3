"""The store node: tables + virtual latency + metering + faults.

``KVStore`` is what every other layer ends at. Its public operations are
the ten of :mod:`repro.kvstore.surface`; behind them every round trip
runs one template:

1. scheduled fault windows (``FaultTimeline``), then the probabilistic
   fault policy (throttling),
2. the calibrated virtual latency — spiked, slowed and queued as the
   policy, timeline and service capacity dictate — through the time
   source,
3. the atomic table effect,
4. metering of the bytes and request units consumed,
5. one ``store.<op>`` span.

The order of checks and random draws inside that template is pinned
bit-for-bit by the kernel goldens. Two per-kind variations: an operation
whose cost scales with the rows it walks (``query``, ``scan``,
``query_index``) runs step 3 *before* steps 1–2, and a throttled batch
serves a prefix instead of failing outright.

With a :class:`NullTimeSource` (the default) the store runs synchronously
with zero latency — unit tests use it directly without a kernel.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.kvstore.errors import (
    TableExists,
    TableNotFound,
    ThrottledError,
    TransactionCanceled,
    UnavailableError,
)
from repro.kvstore.expressions import Projection
from repro.kvstore.faults import FaultPolicy, FaultTimeline
from repro.kvstore.item import item_size
from repro.kvstore.metering import Metering
from repro.kvstore.surface import (
    BATCH_GET,
    MAX_BATCH_WRITE_ITEMS,
    PUT,
    StoreOp,
    TransactOp,
    TransactPut,
    TransactUpdate,
    batch_result,
    batch_rows,
    store_layer,
    validate_batch_write,
)
from repro.kvstore.table import KeySchema, Table
from repro.sim.kernel import SimKernel
from repro.sim.latency import LatencyModel, ServiceCapacity
from repro.sim.randsrc import RandomSource


class TimeSource:
    """Protocol: provides virtual time passage for store operations.

    ``pay`` is the store-facing entry point: identical to ``sleep``
    unless an :func:`~repro.kvstore.asyncio.overlap` scope is attached,
    in which case the duration is deferred into the scope's completion
    frontier instead of sleeping inline. ``pending_offset`` exposes the
    scope cursor so capacity queues see overlapped arrivals at their
    true issue offsets; ``clock_id`` identifies the underlying clock so
    scope settlement never double-sleeps sources sharing one kernel.
    """

    #: Active overlap scope, attached by :func:`repro.kvstore.asyncio.overlap`.
    _ov_scope = None

    def sleep(self, duration: float) -> None:
        raise NotImplementedError

    def now(self) -> float:
        raise NotImplementedError

    def pay(self, duration: float) -> None:
        """Sleep ``duration``, or defer it into the active overlap scope."""
        scope = self._ov_scope
        if scope is not None:
            scope.add(duration)
        else:
            self.sleep(duration)

    def pending_offset(self) -> float:
        """Virtual time already accumulated by the active scope's strand."""
        scope = self._ov_scope
        return scope.cursor if scope is not None else 0.0

    def clock_id(self):
        """Identity of the clock this source advances (for deduping)."""
        return id(self)


class NullTimeSource(TimeSource):
    """Zero-latency time source for direct (non-simulated) use.

    Zero- and negative-duration sleeps are no-ops, exactly as in
    :class:`KernelTimeSource` — the two sources must agree so that a
    zero-latency store meters and times identically under both.
    """

    def __init__(self) -> None:
        self._ticks = 0.0

    def sleep(self, duration: float) -> None:
        if duration > 0:
            self._ticks += duration

    def now(self) -> float:
        return self._ticks


class KernelTimeSource(TimeSource):
    """Time source backed by the simulation kernel (virtual ms)."""

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel

    def sleep(self, duration: float) -> None:
        if duration > 0 and self.kernel.current_process is not None:
            self.kernel.sleep(duration)

    def now(self) -> float:
        return self.kernel.now

    def clock_id(self):
        # All sources over one kernel share a clock: an overlap scope
        # spanning several store nodes must settle its frontier once.
        return ("kernel", id(self.kernel))


@store_layer
class KVStore:
    """A collection of tables behind one latency/metering boundary.

    ``shard_id`` names this node inside a
    :class:`~repro.kvstore.sharding.ShardedStore` (``None`` for a
    standalone store) and scopes shard-targeted fault policies.
    ``capacity`` bounds the node's parallelism: when set, operations
    queue through a :class:`~repro.sim.latency.ServiceCapacity` with that
    many servers, so a saturated node exhibits queueing delay instead of
    unbounded concurrency.
    """

    def __init__(self, time_source: Optional[TimeSource] = None,
                 latency: Optional[LatencyModel] = None,
                 rand: Optional[RandomSource] = None,
                 faults: Optional[FaultPolicy] = None,
                 shard_id: Optional[int] = None,
                 capacity: Optional[int] = None) -> None:
        self.time = time_source or NullTimeSource()
        self.latency = latency or LatencyModel.zero()
        self.rand = rand or RandomSource(0, "kvstore")
        self.faults = faults
        self.shard_id = shard_id
        #: Scheduled fault windows (:class:`FaultTimeline`), installed by
        #: the runtime or a test; ``None`` (the default) skips the hook
        #: with one attribute check.
        self.timeline: Optional[FaultTimeline] = None
        #: ``"leader"`` / ``"follower"`` when this node serves inside a
        #: :class:`~repro.kvstore.replication.ReplicaGroup` (set by the
        #: group; endpoint-static across failovers). Scopes role-targeted
        #: fault windows.
        self.replica_role: Optional[str] = None
        # capacity=0 must reach ServiceCapacity's ValueError, not
        # silently mean "unbounded" — only None disables queueing.
        self.queue = (ServiceCapacity(capacity)
                      if capacity is not None else None)
        self.metering = Metering()
        #: Observability hub (``repro.obs``), attached by an
        #: observability-enabled runtime; ``None`` (the default) skips
        #: every recording hook with one attribute check.
        self.obs = None
        self._tables: dict[str, Table] = {}

    # -- table management ------------------------------------------------------
    def create_table(self, name: str, hash_key: str,
                     range_key: Optional[str] = None,
                     max_item_bytes: Optional[int] = None) -> Table:
        if name in self._tables:
            raise TableExists(f"table {name!r} already exists")
        kwargs = {}
        if max_item_bytes is not None:
            kwargs["max_item_bytes"] = max_item_bytes
        table = Table(name, KeySchema(hash_key, range_key), **kwargs)
        self._tables[name] = table
        return table

    def ensure_table(self, name: str, hash_key: str,
                     range_key: Optional[str] = None,
                     max_item_bytes: Optional[int] = None) -> Table:
        if name in self._tables:
            return self._tables[name]
        return self.create_table(name, hash_key, range_key, max_item_bytes)

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise TableNotFound(f"no table named {name!r}")
        return table

    def drop_table(self, name: str) -> None:
        self._tables.pop(name, None)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- latency/fault boundary --------------------------------------------------
    def _throttled(self, op: str) -> bool:
        return (self.faults is not None
                and self.faults.should_throttle(self.rand, op,
                                                shard=self.shard_id))

    def _timeline_check(self, op: str) -> None:
        """Apply scheduled fault windows before the operation runs.

        Raises before any table effect, so every error here is safe to
        retry verbatim. An empty timeline returns after one check.
        """
        timeline = self.timeline
        if timeline is None or not timeline.windows:
            return
        now = self.time.now()
        timeline.observe(self, now)
        if timeline.outage_active(now, op, self.shard_id,
                                  self.replica_role):
            raise UnavailableError(
                f"{op} unavailable (scheduled outage on "
                f"shard {self.shard_id})")
        rate = timeline.burst_rate(now, op, self.shard_id,
                                   self.replica_role)
        if rate > 0 and self.rand.random() < rate:
            raise ThrottledError(f"{op} throttled (error burst)")

    def _charge(self, op: str, units: float = 0.0) -> None:
        """Pay the virtual-time cost of one (admitted) operation.

        Under an :func:`~repro.kvstore.asyncio.overlap` scope the cost is
        deferred into the scope's frontier (``pay``) rather than slept
        inline; the capacity queue still sees the true arrival offset, so
        overlapped operations queue exactly as concurrent arrivals would.
        """
        multiplier = 1.0
        if self.faults is not None:
            multiplier = self.faults.latency_multiplier(
                self.rand, op, shard=self.shard_id)
        if self.timeline is not None and self.timeline.windows:
            multiplier *= self.timeline.latency_multiplier(
                self.time.now(), op, self.shard_id, self.replica_role)
        service = self.latency.sample(op, units=units) * multiplier
        if self.queue is not None and service > 0:
            service = self.queue.delay(
                self.time.now() + self.time.pending_offset(), service)
        self.time.pay(service)

    def _span(self, op: str, table: str, start: float, **args) -> None:
        """Record one store round-trip span (no-op without a tracer).

        Span names mirror the metering op keys exactly, so every
        metered request has exactly one ``store.<op>`` span — the
        parity the observability tests pin.
        """
        obs = self.obs
        if obs is not None:
            obs.tracer.record_span(
                f"store.{op}", cat="store", start=start,
                end=self.time.now(), shard=self.shard_id, table=table,
                **args)

    def _pay(self, op: str, units: float = 0.0) -> None:
        self._timeline_check(op)
        if self._throttled(op):
            raise ThrottledError(f"{op} throttled")
        self._charge(op, units=units)

    # -- the round trip, per kind -------------------------------------------------
    def _read(self, op: StoreOp, args: tuple):
        """``get`` / ``query`` / ``scan`` / ``query_index``."""
        table = args[0]
        effect = getattr(self.table(table), op.name)
        start = self.time.now()
        if not op.ranged:
            self._pay(op.latency)
        result = effect(*args[1:-1])
        nbytes, rows = _read_cost(result)
        if op.ranged:
            # The charge scales with the rows walked, so it follows them.
            self._pay(op.latency, units=rows)
        self.metering.record_read(op.meter, table, nbytes, items=rows,
                                  consistency=args[-1])
        self._span(op.meter, table, start)
        return result

    _keyed_read = _table_read = _read

    def _keyed_write(self, op: StoreOp, args: tuple):
        """``put`` / ``update`` / ``delete``."""
        table = args[0]
        effect = getattr(self.table(table), op.name)
        latency, meter = op.labels(args)
        start = self.time.now()
        self._pay(latency)
        result = effect(*args[1:])
        # Bytes written: the item put, the row as updated, the row removed.
        written = args[1] if op is PUT else result
        self.metering.record_write(meter, table,
                                   item_size(written) if written else 0)
        self._span(meter, table, start)
        return result

    def _batch(self, op: StoreOp, args: tuple):
        """``batch_get`` / ``batch_write``: one draw, one charge, and the
        partial-prefix rule under a throttle."""
        table = args[0]
        tbl = self.table(table)
        rows, n_puts = batch_rows(op, args)
        if op is not BATCH_GET:
            validate_batch_write(tbl.schema, rows)
        start = self.time.now()
        self._timeline_check(op.latency)
        served = len(rows)
        if self._throttled(op.latency):
            served = self.rand.randint(0, len(rows) - 1)
            if served == 0:
                raise ThrottledError(f"{op.latency} throttled")
        self._charge(op.latency, units=served)
        items: list[Optional[dict]] = []
        if op is BATCH_GET:
            items = [tbl.get(key, args[2]) for key in rows[:served]]
            self.metering.record_read(
                op.meter, table,
                sum(item_size(item) for item in items if item),
                items=served, consistency=args[3])
            items.extend([None] * (len(rows) - served))
        else:
            sizes: list[int] = []
            for position, row in enumerate(rows[:served]):
                if position < n_puts:
                    tbl.put(row)
                    sizes.append(item_size(row))
                else:
                    removed = tbl.delete(row)
                    sizes.append(item_size(removed) if removed else 0)
            self.metering.record_batch_write(op.meter, table, sizes)
        self._span(op.meter, table, start, items=served)
        return batch_result(op, rows, n_puts, items,
                            range(served, len(rows)))

    def _transact(self, op: StoreOp, args: tuple) -> None:
        """``transact_write`` on one node: pay, then check and apply
        under every involved table's lock."""
        ops = args[0]
        # Acquire in deterministic order to avoid lock-order inversion.
        ordered = sorted({write.table: self.table(write.table)
                          for write in ops}.items())
        start = self.time.now()
        self._pay(op.latency, units=len(ops))
        acquired = []
        try:
            for _name, tbl in ordered:
                tbl._lock.acquire()
                acquired.append(tbl)
            self._transact_check(ops)
            self._transact_apply(ops, start)
        finally:
            for tbl in reversed(acquired):
                tbl._lock.release()

    def _transact_check(self, ops: Sequence[TransactOp]) -> None:
        """Phase 1: check all conditions against current state.

        Callers must hold every involved table's lock (this store's
        ``transact_write`` does; a ``ShardedStore`` holds the locks
        across all involved nodes before checking any of them)."""
        for op in ops:
            tbl = self.table(op.table)
            if isinstance(op, TransactPut):
                existing = tbl.get(tbl.schema.extract(op.item))
            else:
                existing = tbl.get(op.key)
            if op.condition is not None and not op.condition.evaluate(
                    existing):
                raise TransactionCanceled(
                    f"condition failed on {op.table}")

    def _transact_apply(self, ops: Sequence[TransactOp],
                        start: float) -> None:
        """Phase 2: apply (conditions re-checked by the table; they
        cannot fail because every table lock is held). ``start`` is when
        the transaction began paying, so the span covers its rounds."""
        total_bytes = 0
        for op in ops:
            tbl = self.table(op.table)
            if isinstance(op, TransactPut):
                tbl.put(op.item, condition=op.condition)
                total_bytes += item_size(op.item)
            elif isinstance(op, TransactUpdate):
                new_item = tbl.update(op.key, op.updates,
                                      condition=op.condition)
                total_bytes += item_size(new_item)
            else:
                tbl.delete(op.key, condition=op.condition)
        self.metering.record_write("transact_write", ops[0].table,
                                   total_bytes)
        self._span("transact_write", ops[0].table, start, items=len(ops))

    # -- stats ---------------------------------------------------------------------------
    def time_sources(self) -> list[TimeSource]:
        """The time sources an overlap scope must cover (just ours)."""
        return [self.time]

    def storage_bytes(self, table: Optional[str] = None) -> int:
        if table is not None:
            return self.table(table).storage_bytes()
        return sum(t.storage_bytes() for t in self._tables.values())

    def item_count(self, table: str) -> int:
        return self.table(table).item_count()


def _read_cost(result) -> tuple[int, int]:
    """``(bytes moved, rows walked)`` of one read's result: a row (or
    none), an index lookup's row list, or a query/scan page."""
    if result is None:
        return 0, 1
    if isinstance(result, dict):
        return item_size(result), 1
    if isinstance(result, list):
        return sum(item_size(item) for item in result), len(result)
    return result.consumed_bytes, result.scanned_count


def batch_get_all(store, table: str, keys: Sequence[Any],
                  projection: Optional[Projection] = None,
                  attempts: int = 4,
                  consistency: Optional[str] = None
                  ) -> list[Optional[dict]]:
    """``batch_get`` that retries the unprocessed remainder to completion.

    Issues up to ``attempts`` batched round trips, each covering only the
    keys the previous one left unprocessed; whatever still remains after
    that falls back to point ``get``\\ s (the pre-batching behavior, with
    its usual throttling semantics). Retries and fallback read at the
    same ``consistency`` as the first round, so a partial throttle
    changes neither the routing nor the price of the rows it delays.
    The returned plain list aligns with ``keys``. This is the retry loop
    DynamoDB's SDKs run for ``UnprocessedKeys``, and what the
    transaction-commit, GC and ``read_many`` callers use so a partial
    throttle never fails a whole batch.
    """
    results: list[Optional[dict]] = [None] * len(keys)
    pending = list(range(len(keys)))
    for _ in range(attempts):
        if not pending:
            return results
        try:
            got = store.batch_get(table, [keys[i] for i in pending],
                                  projection=projection,
                                  consistency=consistency)
        except ThrottledError:
            continue  # nothing served this round; retry the same set
        unprocessed = set(got.unprocessed_indexes)
        still_pending = []
        for position, index in enumerate(pending):
            if position in unprocessed:
                still_pending.append(index)
            else:
                results[index] = got[position]
        pending = still_pending
    for index in pending:
        results[index] = store.get(table, keys[index],
                                   projection=projection,
                                   consistency=consistency)
    return results


def batch_write_all(store, table: str, puts: Sequence[dict] = (),
                    deletes: Sequence[Any] = (),
                    attempts: int = 4) -> None:
    """``batch_write`` that chunks, then retries the remainder to done.

    Splits arbitrarily large put/delete sets into
    :data:`MAX_BATCH_WRITE_ITEMS`-item requests, re-issues whatever each
    round left unprocessed (throttled whole batches included), and after
    ``attempts`` rounds falls back to point ``put``/``delete`` calls —
    the pre-batching behavior, with its usual throttling semantics. This
    is the retry loop DynamoDB's SDKs run for ``UnprocessedItems``; the
    GC and the parallel-invoke claim path use it so a partial throttle
    never fails a whole batch.
    """
    pending_puts = list(puts)
    pending_deletes = list(deletes)
    for _ in range(attempts):
        if not pending_puts and not pending_deletes:
            return
        retry_puts: list[dict] = []
        retry_deletes: list[Any] = []
        queue_puts, queue_deletes = pending_puts, pending_deletes
        while queue_puts or queue_deletes:
            chunk_puts = queue_puts[:MAX_BATCH_WRITE_ITEMS]
            queue_puts = queue_puts[len(chunk_puts):]
            room = MAX_BATCH_WRITE_ITEMS - len(chunk_puts)
            chunk_deletes = queue_deletes[:room]
            queue_deletes = queue_deletes[len(chunk_deletes):]
            try:
                result = store.batch_write(table, chunk_puts,
                                           chunk_deletes)
            except ThrottledError:
                retry_puts.extend(chunk_puts)
                retry_deletes.extend(chunk_deletes)
                continue
            retry_puts.extend(result.unprocessed_puts)
            retry_deletes.extend(result.unprocessed_deletes)
        pending_puts, pending_deletes = retry_puts, retry_deletes
    for item in pending_puts:
        store.put(table, item)
    for key in pending_deletes:
        store.delete(table, key)


__all__ = [
    "KVStore",
    "KernelTimeSource",
    "NullTimeSource",
    "TimeSource",
    "batch_get_all",
    "batch_write_all",
]
