"""Hot-shard elasticity: live chain migration and skew detection.

PR 2 made uniform traffic scale by partitioning the store; a Zipf-skewed
key population defeats it — consistent hashing pins the hottest items to
whatever shard their hash picked, and that shard's ``ServiceCapacity``
queue caps the whole fleet's throughput. Netherite (arXiv:2103.00033)
and the transactional-dataflow line (arXiv:2512.17429) both make the
same observation: partition *ownership must move* under load imbalance,
without giving up exactly-once semantics. This module is that movement
for the linked DAAL:

:class:`ChainMigrator`
    Moves one ``(table, partition key)``'s complete row set — the DAAL
    chain with its embedded write logs, orphan rows, lock markers, and
    (when the controller asks) the item's shadow chain — from its
    current owner node to a target node, then installs a **forwarding
    entry** in the :class:`~repro.kvstore.sharding.HashRing` so routing
    follows the move. On a replicated store the nodes are
    :class:`~repro.kvstore.replication.ReplicaGroup`\\ s, so a group
    migrates as a unit: the copy commits on the target's leader and
    ships to its followers through the ordinary replication log, and the
    source's deletes ship as tombstones.

:class:`ElasticityController`
    The hot-partition detector. Samples per-shard routed-op counts (and
    leader queue backlog) kept by
    :meth:`~repro.kvstore.sharding.ShardedStore.enable_elasticity`,
    and when one shard's share of the observation window exceeds a
    load-ratio threshold, asks the ring for a
    :meth:`~repro.kvstore.sharding.HashRing.plan_rebalance` over the
    per-key heat map and executes the plan's moves.

Migration protocol (and why it is linearizable and crash-recoverable)
---------------------------------------------------------------------

Each move is driven by a durable **migration record** in the store-level
``__migrations__`` table, written through the normal conditional-write
path (so it meters, pays latency, and replicates like any other row):

``copy``       record exists, rows may be partially copied to the
               target; **routing still points at the source**, which
               remains authoritative. A crash here is rolled *back*
               (target partial copy deleted, record reverted).
``committed``  the copy is complete and the ring's forwarding entry
               points at the target; the source's rows are stale
               leftovers awaiting deletion. A crash here is rolled
               *forward* (source rows deleted, record marked done).
``done``       the move is finished; the record persists as the durable
               twin of the in-memory forwarding entry.

Concurrency safety rests on three mechanisms in
:class:`~repro.kvstore.sharding.ShardedStore`:

- a per-token **latch** blocks new inline operations on the moving item
  for the duration of the move (they wait in virtual time — the stall a
  real resharding imposes);
- the migrator **drains in-flight** inline operations (and whole-table
  scans) before copying, so no operation that resolved its node before
  the move can mutate the source afterwards;
- the copy + record flip + forward installation run inside one
  :func:`~repro.kvstore.asyncio.overlap` scope, which is **atomic in
  virtual time** — concurrent overlap-scope bodies (themselves atomic)
  therefore serialize entirely before the copy (and are captured by it)
  or after it (and route to the target). With ``async_io`` off no scope
  exists anywhere, and the latch + drain alone provide the exclusion.

A crash (``ProcessCrashed`` at one of the migration's explicit crash
points) releases the in-memory latch on the way out — the worker's
memory dies with it — and leaves the durable record mid-phase; recovery
is performed by whoever sees the record next: the GC's periodic
:func:`recover_stale_migrations` pass, or the next migration attempt for
the same token. Lock-set records (keyed by transaction id) and the
read/invoke logs (keyed by instance id) route by their own keys and need
no movement; the chain's embedded ``LockOwner`` markers and write-log
entries travel inside the rows.

The exhaustive crash sweep's ``current-repl3`` variant forces a
migration mid-request and re-runs the workflow once per crash point —
including the points inside the migration itself — asserting
exactly-once effects, atomicity, a residue-free store, and (via
:func:`placement_residue`) that every row sits exactly where routing
says it should.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.kvstore.asyncio import overlap
from repro.kvstore.errors import (ConditionFailed, ThrottledError,
                                  UnavailableError)
from repro.kvstore.expressions import AttrNotExists, Eq, Set
from repro.kvstore.item import item_size
from repro.kvstore.metering import Metering
from repro.kvstore.store import batch_write_all
from repro.kvstore.surface import route_token

#: Store-level table holding one durable record per migrated route token.
MIGRATIONS_TABLE = "__migrations__"

PHASE_COPY = "copy"
PHASE_COMMITTED = "committed"
PHASE_DONE = "done"


@dataclass
class MigrationStats:
    """Observability counters for one migrator.

    ``metering`` mirrors the request units the migration traffic added
    to the node books (same formulas, same pricing), so benchmarks can
    report the move cost separately from the workload's own $/op.
    """

    migrations: int = 0          # tokens moved to a committed new owner
    rows_moved: int = 0
    rolled_back: int = 0         # crashed copies undone
    rolled_forward: int = 0      # crashed cleanups completed
    skipped: int = 0             # moves abandoned (contention, throttle)
    metering: Metering = field(default_factory=Metering)

    def dollars(self) -> float:
        return self.metering.dollar_cost()


class ChainMigrator:
    """Live mover of DAAL chains between the shards of one store."""

    def __init__(self, store, async_io: bool = False,
                 on_moved: Optional[Callable[[str, Any], None]] = None
                 ) -> None:
        self.store = store
        self.async_io = async_io
        #: Called as ``on_moved(table, key)`` after each committed move —
        #: the runtime invalidates the §4.4 tail cache through this.
        self.on_moved = on_moved
        self.stats = MigrationStats()
        store.enable_elasticity()
        store.ensure_table(MIGRATIONS_TABLE, hash_key="Token")

    # -- bookkeeping helpers ---------------------------------------------------
    def _token(self, table: str, key: Any) -> str:
        return self.store._token_for(table, key)

    def _meter_write(self, op: str, nbytes: int) -> None:
        self.stats.metering.record_write(op, MIGRATIONS_TABLE, nbytes)

    # -- the public entry ------------------------------------------------------
    def migrate(self, moves: Sequence[tuple], ctx=None) -> int:
        """Move each ``(table, key, target_shard)`` to its target.

        Returns the number of tokens committed to a new owner. ``ctx``
        (an invocation context) threads the crash-point instrumentation
        through; migrations triggered outside any invocation pass
        ``None`` and simply cannot crash. Contended tokens (already
        latched by a concurrent move) and moves to the current owner are
        skipped, not errors.
        """
        store = self.store
        work = []
        tables = set()
        seen: set = set()
        for table, key, target in moves:
            if not 0 <= target < store.n_shards:
                raise ValueError(f"no shard {target}")
            token = self._token(table, key)
            if token in seen:
                # One batch, one move per token: a duplicate would
                # find the first entry's record live mid-batch and
                # "recover" it onto a third shard. First entry wins.
                self.stats.skipped += 1
                continue
            seen.add(token)
            if token in store._latched:
                self.stats.skipped += 1
                continue
            if store.ring.shard_of(token) == target:
                continue
            work.append((token, table, key, target))
            tables.add(table)
        if not work:
            return 0
        store._migration_epoch += 1
        for token, *_ in work:
            store._latched.add(token)
        for table in tables:
            store._migrating_tables[table] = (
                store._migrating_tables.get(table, 0) + 1)
        try:
            return self._migrate_latched(work, tables, ctx)
        finally:
            for table in tables:
                remaining = store._migrating_tables.get(table, 0) - 1
                if remaining > 0:
                    store._migrating_tables[table] = remaining
                else:
                    store._migrating_tables.pop(table, None)
            for token, *_ in work:
                store._latched.discard(token)

    def _migrate_latched(self, work, tables, ctx) -> int:
        store = self.store
        # Drain: no inline operation that resolved its node before this
        # point may still be in flight on a moving token (or scanning a
        # moving table) when the copy runs.
        store._await(lambda: not any(
            store._inflight.get(token, 0) for token, *_ in work)
            and not any(store._table_inflight.get(table, 0)
                        for table in tables))
        if ctx is not None:
            ctx.crash_point("migrate:start")
        # Phase 1 — durable intent: one record per token, phase="copy",
        # via ordinary conditional writes (a crashed attempt's record is
        # recovered first, so the conditions never fight a corpse).
        prepared = []
        for token, table, key, target in work:
            source = self._prepare(token, table, key, target)
            if source is not None:
                prepared.append((token, table, key, source, target))
            else:
                self.stats.skipped += 1
        if ctx is not None and prepared:
            ctx.crash_point("migrate:prepared")
        if not prepared:
            return 0
        # Phase 2 — copy + flip, atomic in virtual time under async_io
        # (one overlap scope; mutations land at the issue instant, the
        # deferred latency is slept on exit). With async_io off the
        # latch + drain provide the exclusion instead.
        committed = []
        with overlap(store, enabled=self.async_io) as scope:
            for token, table, key, source, target in prepared:
                with scope.branch():
                    row_keys = self._copy(token, table, key, source,
                                          target)
                    committed.append(
                        (token, table, key, source, target, row_keys))
        if ctx is not None:
            ctx.crash_point("migrate:committed")
        # Phase 3 — retire the source copies and close the records.
        with overlap(store, enabled=self.async_io) as scope:
            for token, table, key, source, target, row_keys in committed:
                with scope.branch():
                    self._cleanup(token, table, source, row_keys)
        if ctx is not None and committed:
            ctx.crash_point("migrate:done")
        for token, table, key, *_ in committed:
            if self.on_moved is not None:
                self.on_moved(table, key)
        self.stats.migrations += len(committed)
        obs = self.store.obs
        if obs is not None and committed:
            obs.tracer.event(
                "migration:committed", cat="elasticity",
                moves=[[table, str(target)] for _token, table, _key,
                       _source, target, _rows in committed])
        return len(committed)

    # -- phases ----------------------------------------------------------------
    def _prepare(self, token: str, table: str, key: Any,
                 target: int) -> Optional[int]:
        """Create/advance the durable record to ``copy``; returns the
        source shard, or ``None`` when the move should be skipped."""
        store = self.store
        record = store.get(MIGRATIONS_TABLE, token)
        if record is not None and record["Phase"] != PHASE_DONE:
            # A predecessor crashed mid-move; put the world back first.
            self.recover(record)
            record = store.get(MIGRATIONS_TABLE, token)
        source = store.ring.shard_of(token)
        if source == target:
            return None
        now = store.nodes[0].time.now()
        try:
            if record is None:
                item = {"Token": token, "Table": table, "Key": key,
                        "Source": source, "Target": target,
                        "Phase": PHASE_COPY, "StartedAt": now}
                store.put(MIGRATIONS_TABLE, item,
                          condition=AttrNotExists("Token"))
                self._meter_write("migrate_meta", item_size(item))
            else:
                store.update(MIGRATIONS_TABLE, token,
                             [Set("Source", source),
                              Set("Target", target),
                              Set("Phase", PHASE_COPY),
                              Set("StartedAt", now)],
                             condition=Eq("Phase", PHASE_DONE))
                self._meter_write("migrate_meta", item_size(record))
        except (ConditionFailed, ThrottledError, UnavailableError):
            return None
        return source

    def _copy(self, token: str, table: str, key: Any, source: int,
              target: int) -> list:
        """Copy every row of the item (reachable chain, orphans, lock
        markers — the lot) to the target, then flip record + ring."""
        store = self.store
        result = store.nodes[source].query(table, key)
        rows = result.items
        self.stats.metering.record_read(
            "migrate_read", table,
            sum(item_size(row) for row in rows),
            items=max(1, len(rows)))
        if rows:
            batch_write_all(store.nodes[target], table, puts=rows)
            self.stats.metering.record_batch_write(
                "migrate_write", table,
                [item_size(row) for row in rows])
        store.update(MIGRATIONS_TABLE, token,
                     [Set("Phase", PHASE_COMMITTED)],
                     condition=Eq("Phase", PHASE_COPY))
        self._meter_write("migrate_meta", 64)
        # In the same (yield-free) step as the record flip: routing.
        store.ring.set_forward(token, target)
        self.stats.rows_moved += len(rows)
        schema = store._schemas[table]
        return [schema.extract(row) for row in rows]

    def _cleanup(self, token: str, table: str, source: int,
                 row_keys: list) -> None:
        if row_keys:
            batch_write_all(self.store.nodes[source], table,
                            deletes=row_keys)
            self.stats.metering.record_batch_write(
                "migrate_delete", table, [0] * len(row_keys))
        self.store.update(MIGRATIONS_TABLE, token,
                          [Set("Phase", PHASE_DONE)],
                          condition=Eq("Phase", PHASE_COMMITTED))
        self._meter_write("migrate_meta", 64)

    # -- recovery --------------------------------------------------------------
    def recover(self, record: dict) -> bool:
        """Roll a crashed migration forward or back from its record.

        ``copy`` rolls back: the source never stopped being
        authoritative, so the target's partial rows are deleted and the
        record reverts to its pre-move state (``done`` at the source if
        the source itself was a forwarded placement, gone otherwise).
        ``committed`` rolls forward: routing already points at the
        target, so the source's leftover rows are deleted and the record
        closes. Returns whether anything had to be done.
        """
        store = self.store
        token = record["Token"]
        table, key = record["Table"], record["Key"]
        phase = record["Phase"]
        if phase == PHASE_DONE:
            return False
        if phase == PHASE_COPY:
            self._delete_all_rows(record["Target"], table, key)
            self._meter_write("migrate_meta", 64)
            try:
                if store.ring._forwards.get(token) == record["Source"]:
                    # The source placement was itself a forwarded one:
                    # the record must survive as its durable twin.
                    store.update(MIGRATIONS_TABLE, token,
                                 [Set("Phase", PHASE_DONE),
                                  Set("Target", record["Source"])],
                                 condition=Eq("Phase", PHASE_COPY))
                else:
                    store.delete(MIGRATIONS_TABLE, token,
                                 condition=Eq("Phase", PHASE_COPY))
            except ConditionFailed:
                return False  # a concurrent recovery beat us to it
            self.stats.rolled_back += 1
            return True
        # committed: finish the job the crashed worker started.
        store.ring.set_forward(token, record["Target"])
        self._delete_all_rows(record["Source"], table, key)
        self._meter_write("migrate_meta", 64)
        try:
            store.update(MIGRATIONS_TABLE, token,
                         [Set("Phase", PHASE_DONE)],
                         condition=Eq("Phase", PHASE_COMMITTED))
        except ConditionFailed:
            return False
        if self.on_moved is not None:
            self.on_moved(table, key)
        self.stats.rolled_forward += 1
        return True

    def _delete_all_rows(self, shard: int, table: str, key: Any) -> None:
        # Recovery traffic mirrors into the migration book exactly like
        # the happy path's copy/cleanup — the "$/op flat modulo
        # separately-metered migration writes" accounting must cover
        # rolled-back and rolled-forward moves too.
        node = self.store.nodes[shard]
        result = node.query(table, key)
        self.stats.metering.record_read(
            "migrate_read", table,
            sum(item_size(row) for row in result.items),
            items=max(1, len(result.items)))
        schema = self.store._schemas[table]
        row_keys = [schema.extract(row) for row in result.items]
        if row_keys:
            batch_write_all(node, table, deletes=row_keys)
            self.stats.metering.record_batch_write(
                "migrate_delete", table, [0] * len(row_keys))


def recover_stale_migrations(store, migrator: Optional[ChainMigrator]
                             = None) -> int:
    """GC hook: roll every crashed (unlatched, non-``done``) migration
    forward or back. Tokens still latched belong to a live move and are
    left alone. Returns the number of records recovered.

    Epoch-gated: the migrator bumps ``store._migration_epoch`` once per
    attempt, and a completed sweep remembers the epoch it covered — so
    a GC cycle with no new migration activity skips the (metered)
    record scan entirely instead of billing a steady-state tax.
    """
    if getattr(store, "heat", None) is None:
        return 0
    if MIGRATIONS_TABLE not in getattr(store, "_schemas", {}):
        return 0
    # Both default 0: a store that never migrated anything must skip
    # the scan outright, or an elastic-but-idle runtime's first GC pass
    # would pay latency and read units PR 4 never paid.
    # The counters live on the sharded store itself (its fan-outs read
    # them); ``store`` may be a layer wrapped around it.
    sharded = store if migrator is None else migrator.store
    epoch = sharded._migration_epoch
    if epoch == sharded._migration_epoch_swept:
        return 0
    if migrator is None:
        migrator = ChainMigrator(store)
    recovered = 0
    skipped_live = False
    scan = store.scan(MIGRATIONS_TABLE)
    for record in scan.items:
        if record["Phase"] == PHASE_DONE:
            continue
        if record["Token"] in store._latched:
            skipped_live = True
            continue
        if migrator.recover(record):
            recovered += 1
    if not skipped_live:
        sharded._migration_epoch_swept = epoch
    return recovered


def placement_residue(store) -> list:
    """Rows living on a node that routing does not map them to.

    The invariant a correct migration history maintains: for every data
    table, every row's partition key routes (hash + forwards) to exactly
    the node storing it. Mid-``copy`` target rows and
    mid-``committed`` source leftovers show up here — after recovery
    the list must be empty. Test/assert helper; scans node state
    directly (no latency, no metering).
    """
    residue = []
    for table, schema in getattr(store, "_schemas", {}).items():
        if table == MIGRATIONS_TABLE:
            continue
        for shard, node in enumerate(store.nodes):
            seen = set()
            for row in node._tables[table].scan().items:
                value = row[schema.hash_key]
                token = repr(value)
                if token in seen:
                    continue
                seen.add(token)
                if store.shard_for(table, value) != shard:
                    residue.append((table, value, shard))
    return residue


class ElasticityController:
    """Hot-partition detector: watch per-shard load, trigger rebalances.

    ``tick()`` is called by the runtime once per logged Beldi operation
    (a pure-python counter bump). Every ``check_every`` ticks it looks
    at the routed-op window since the last decision; when the window is
    big enough to trust (``min_window``) and the hottest shard carries
    more than ``load_ratio`` times the mean, it plans token moves over
    the per-key heat map and executes them — migrating each data chain
    together with its shadow-table twin. Below the trigger it draws no
    randomness, pays no latency, and touches no store state, so an
    elastic-but-balanced runtime is bit-for-bit a static one.
    """

    def __init__(self, store, migrator: ChainMigrator,
                 check_every: int = 64, min_window: int = 2500,
                 load_ratio: float = 1.5, max_moves: int = 8,
                 tolerance: float = 0.2) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        store.enable_elasticity()
        self.store = store
        self.migrator = migrator
        self.check_every = check_every
        self.min_window = min_window
        self.load_ratio = load_ratio
        self.max_moves = max_moves
        self.tolerance = tolerance
        self._ticks = 0
        self._busy = False
        self._baseline = list(store.shard_ops)
        self.rebalances = 0      # triggered plan executions
        self.checks = 0          # windows actually evaluated
        self.last_ratio: Optional[float] = None

    # -- sampling --------------------------------------------------------------
    def window(self) -> list:
        """Routed ops per shard since the last rebalance decision."""
        return [current - base for current, base
                in zip(self.store.shard_ops, self._baseline)]

    def queue_backlog(self) -> list:
        """Per-shard leader queue busy horizon (virtual ms from now) —
        the second skew signal next to op counts."""
        now = self.store.nodes[0].time.now()
        backlog = []
        for node in self.store.nodes:
            queue = getattr(node, "queue", None)
            backlog.append(max(0.0, queue.busy_until() - now)
                           if queue is not None else 0.0)
        return backlog

    def _reset_window(self) -> None:
        self._baseline = list(self.store.shard_ops)
        self.store.heat.clear()

    # -- the per-op hook -------------------------------------------------------
    def tick(self, ctx=None) -> None:
        if self.store.n_shards < 2 or self._busy:
            return
        self._ticks += 1
        if self._ticks % self.check_every:
            return
        window = self.window()
        total = sum(window)
        if total < self.min_window:
            return
        self.checks += 1
        mean = total / len(window)
        self.last_ratio = max(window) / mean if mean else 0.0
        if self.last_ratio <= self.load_ratio:
            # Second skew signal: a shard can be queue-saturated while
            # op counts look even (few-but-expensive operations).
            # Consulted only when the op window already leans the same
            # way (at least halfway to the trigger) so a momentarily
            # lumpy queue cannot thrash a balanced fleet, and only
            # when nodes actually have work queued — with no capacity
            # queues (or idle ones) backlog is all zeros and this is
            # inert, so the bit-for-bit pins hold.
            halfway = 1.0 + (self.load_ratio - 1.0) / 2.0
            backlog = (self.queue_backlog()
                       if self.last_ratio > halfway else [])
            backlog_mean = (sum(backlog) / len(backlog)
                            if backlog else 0.0)
            if (backlog_mean <= 0.0
                    or max(backlog) <= self.load_ratio * backlog_mean):
                self._reset_window()
                return
            self.last_ratio = max(backlog) / backlog_mean
        self._busy = True
        moved = 0
        try:
            moved = self._rebalance(ctx)
        except (ThrottledError, UnavailableError):
            # An injected fault mid-move (throttle or scheduled outage)
            # abandons the move; recovery rolls back the durable record.
            # Background placement work must never kill the foreground
            # request whose step ticked it.
            pass
        finally:
            self._busy = False
            if moved:
                self._reset_window()
            # An over-threshold window with no productive move (e.g.
            # one mega-key dominating it) keeps accumulating: a richer
            # heat map is what eventually makes a move productive.

    def _rebalance(self, ctx) -> int:
        store = self.store
        loads: dict[str, float] = {}
        units: dict[str, tuple] = {}
        for (table, key), count in store.heat.items():
            if not self._migratable(table):
                continue
            token = route_token(table, key)
            loads[token] = loads.get(token, 0) + count
            units[token] = (table, key)
        plan = store.ring.plan_rebalance(loads,
                                         tolerance=self.tolerance,
                                         max_moves=self.max_moves)
        if not plan:
            return 0
        moves = []
        planned = {token for token, *_ in plan}
        for token, _source, target in plan:
            table, key = units[token]
            moves.append((table, key, target))
            if table.endswith(".shadow"):
                continue  # planned directly; no twin to derive
            shadow = f"{table}.shadow"
            if route_token(shadow, key) in planned:
                continue  # the shadow was planned on its own merit
            if shadow in store._schemas:
                # The item's transaction scratch chain travels with it —
                # but only if it has rows. An empty shadow needs no
                # placement pin (correctness is placement-independent;
                # co-location is a locality nicety), and skipping it
                # saves two durable record writes per move. The probe
                # is an ordinary metered read, mirrored into the
                # migration book like every other move cost.
                probe = store.query(shadow, key, limit=1)
                self.migrator.stats.metering.record_read(
                    "migrate_probe", shadow, probe.consumed_bytes,
                    items=max(1, probe.scanned_count))
                if probe.items:
                    moves.append((shadow, key, target))
        moved = self.migrator.migrate(moves, ctx=ctx)
        if moved:
            self.rebalances += 1
        return moved

    @staticmethod
    def _migratable(table: str) -> bool:
        """Only DAAL data/shadow chains move; intent/read/invoke logs
        and lock sets are keyed by instance/transaction id (their own
        placement unit), and the migration table never migrates."""
        if table == MIGRATIONS_TABLE:
            return False
        suffix = table.rsplit(".", 1)[-1]
        return suffix not in ("intent", "readlog", "invokelog",
                              "locksets", "writelog")


__all__ = [
    "ChainMigrator",
    "ElasticityController",
    "MIGRATIONS_TABLE",
    "MigrationStats",
    "placement_residue",
    "recover_stale_migrations",
]
