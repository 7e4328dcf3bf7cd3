"""Replicated shards: per-shard replica groups with log shipping.

The paper assumes a durable, strongly consistent store (§2.2) and pays
DynamoDB's price for it: a strongly consistent read costs twice an
eventually consistent one. This module makes that trade *expressible*.
A :class:`ReplicaGroup` wraps one shard's state in a group of one
**leader** plus N **followers**:

- Every write commits on the leader (full latency, full metering), then
  appends a record to the group's durable **replication log** — the
  final row state, Netherite-style log shipping. Each follower applies
  the log in order after a sampled shipping delay (``repl.ship`` in
  ``sim/latency.py``), clamped to ``max_lag`` virtual ms — the *bounded
  replication-lag model*. A follower's state is therefore always a
  prefix-consistent past state of the leader.
- Replicas share rows. A stored row is never mutated in place (an
  update stores a fresh draft; see :mod:`repro.kvstore.table`), so a
  record carries the leader's stored row object and a follower installs
  that same object with no validate, copy or size pass. A lagging
  follower keeps the previous object until the record applies.
- Reads carry a consistency. ``"strong"`` (``None``, the default
  everywhere) routes to the leader and prices at one read unit per 4 KB.
  ``"eventual"`` routes to a follower — possibly stale within the lag
  bound — and prices at half a unit, exactly DynamoDB's knob. Per-item
  follower affinity (the same item's eventual reads always land on the
  same follower) keeps multi-operation reads such as a DAAL chain
  traversal monotonic.
- A ``leader_crash`` window of the group's
  :class:`~repro.kvstore.faults.FaultTimeline` can crash the leader out
  from under any leader-routed operation. The group then **fails
  over**: every follower drains what has shipped, the most-caught-up
  one is promoted, and the unacked suffix of the replication log is
  replayed onto it (paying ``repl.failover`` latency per replayed
  record). Because the
  log is durable and replayed in full, the promoted leader's state is
  *identical* to the crashed leader's — no acknowledged write is ever
  lost, so the DAAL/txn layers above notice nothing but latency. The
  old node re-joins as a fully caught-up follower (re-replication from
  its intact durable storage).

``replicas=1`` is handled one level up: the runtime simply does not
wrap the shard, so the unreplicated configuration stays bit-for-bit the
plain :class:`~repro.kvstore.sharding.ShardedStore` behavior.

:class:`ReplicatedStore` is a :class:`ShardedStore` whose nodes are
replica groups — all routing, fan-out, and cross-shard transaction
logic is inherited unchanged; the group speaks the node protocol: the
ten operations of :mod:`repro.kvstore.surface`, which it handles with
one read route and one "failover draw → leader → ship" write path.

With ``async_io=True`` the group additionally **batches log shipping**:
a multi-row commit (a transaction's writes, a ``batch_write``) ships as
one boat per follower — a single sampled ``repl.ship`` delay covers the
whole batch, Netherite-style — and the eventually consistent
``batch_get`` fan-out across followers overlaps its round trips. Off
(the default for hand-built groups) keeps per-record shipping and
sequential fan-outs bit-for-bit.

Invariants this layer must uphold (see ``docs/architecture.md``):

- **Writes are leader-serialized.** Every mutation commits on the
  leader before anything ships; followers apply the log strictly in
  sequence order, so a follower is always a prefix-consistent past
  state of the leader — never a divergent one.
- **Bounded staleness.** A record becomes visible on every follower no
  later than ``max_lag`` after commit (batched boats included), which
  is what makes eventual reads — and the GC's eventual first-pass
  scan — analyzable.
- **Failover loses nothing.** The replication log is durable; promotion
  replays the unacked suffix, so the promoted leader's state is
  identical to the crashed leader's and no acknowledged write is ever
  lost. Layers above observe only latency.
- **Correctness reads stay leader-routed.** Only reads that explicitly
  declare eventual consistency may touch a follower;
  ``Metering.per_table_eventual`` exists to prove protocol tables never
  appear there.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Sequence

from repro.kvstore.metering import Metering, normalize_consistency
from repro.kvstore.sharding import ShardedStore
from repro.kvstore.store import KVStore
from repro.kvstore.surface import (
    BATCH,
    BATCH_GET,
    DELETE,
    KEYED_READ,
    StoreOp,
    TransactOp,
    fan_out_batch,
    partition_value,
    route_token,
    store_layer,
)
from repro.kvstore.table import Table
from repro.sim.latency import LatencyModel
from repro.sim.randsrc import RandomSource

#: Default clamp on one record's shipping delay (virtual ms). DynamoDB
#: documents eventual reads as "usually" current within a second; the
#: bound is what makes staleness — and the GC's eventual first-pass scan
#: — analyzable: a follower can never be more than ``max_lag`` behind.
DEFAULT_MAX_LAG_MS = 250.0


class _LogRecord(NamedTuple):
    """One shipped state change: the *final* row (or its tombstone)."""

    seq: int
    table: str
    key: Any               # normalized key tuple
    item: Optional[dict]   # the leader's stored row; None = tombstone


@dataclass
class ReplicationStats:
    """Observability counters for one replica group."""

    shipped: int = 0        # records appended to the replication log
    applied: int = 0        # record applications across all followers
    failovers: int = 0      # leader promotions
    replayed: int = 0       # records replayed during failovers
    eventual_reads: int = 0  # read operations served by a follower

    def merge(self, other: "ReplicationStats") -> None:
        self.shipped += other.shipped
        self.applied += other.applied
        self.failovers += other.failovers
        self.replayed += other.replayed
        self.eventual_reads += other.eventual_reads


class _Follower:
    """Per-follower shipping state: the pending (seq, visible_at) queue."""

    def __init__(self, node: KVStore) -> None:
        self.node = node
        self.applied_seq = 0          # highest log seq applied
        self.pending: deque = deque()  # (_LogRecord, visible_at)
        self.last_visible = 0.0       # enforces in-order visibility


@store_layer
class ReplicaGroup:
    """One leader plus N followers behind the single-node protocol.

    Speaks the same surface as :class:`~repro.kvstore.KVStore`, so a
    :class:`~repro.kvstore.sharding.ShardedStore` can use groups as its
    nodes. Writes go to the leader and ship asynchronously; reads route
    by consistency. A ``leader_crash`` window of :attr:`timeline`
    injects leader failover on any leader-routed operation.
    """

    def __init__(self, leader: KVStore, followers: Sequence[KVStore],
                 rand: Optional[RandomSource] = None,
                 latency: Optional[LatencyModel] = None,
                 max_lag: float = DEFAULT_MAX_LAG_MS,
                 lag_scale: float = 1.0,
                 async_io: bool = False) -> None:
        if max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {max_lag}")
        #: Batch multi-row log shipping (one boat per follower per
        #: commit) and overlap the eventual batch-read fan-out. Off =
        #: per-record shipping and sequential fan-outs, bit-for-bit.
        self.async_io = async_io
        self.nodes: list[KVStore] = [leader, *followers]
        # Roles are endpoint-static: failover swaps table *contents*
        # into the leader endpoint, never the nodes themselves, so the
        # labels (which scope role-targeted fault windows) never move.
        self.leader = leader
        leader.replica_role = "leader"
        for node in followers:
            node.replica_role = "follower"
        #: Fault windows (:class:`FaultTimeline`); the group consults
        #: ``leader_crash`` windows before leader-routed operations and
        #: ``partition`` windows when shipping the replication log.
        #: Member nodes hold the same timeline for their own op checks.
        self.timeline = None
        self.rand = rand or RandomSource(0, "replica-group")
        #: Samples ``repl.ship`` / ``repl.failover``; independent of the
        #: member nodes' latency streams so that enabling replication
        #: never perturbs the leader's own draws.
        self.latency = latency or LatencyModel.zero()
        self.max_lag = max_lag
        self.lag_scale = lag_scale
        self.time = leader.time
        self.stats = ReplicationStats()
        #: Observability hub (``repro.obs``); attached by an
        #: observability-enabled runtime, ``None`` otherwise.
        self.obs = None
        #: Sequence number of the last committed record. The durable
        #: log itself is materialized as each follower's ``pending``
        #: deque — exactly the unacked suffix that follower (or a
        #: failover replay) still needs; the fully-acked prefix would
        #: never be read again and is not retained.
        self._next_seq = 0
        self._followers: dict[int, _Follower] = {
            index: _Follower(node)
            for index, node in enumerate(self.nodes) if index != 0}

    # -- roles -----------------------------------------------------------------
    @property
    def followers(self) -> list[KVStore]:
        return self.nodes[1:]

    @property
    def n_replicas(self) -> int:
        return len(self.nodes)

    @property
    def shard_id(self) -> Optional[int]:
        return self.leader.shard_id

    @property
    def queue(self):
        """The leader's service-capacity queue (or ``None``).

        Writes and strong reads all funnel through the leader, so its
        queue backlog is the group's saturation signal — what the
        hot-shard detector (:mod:`repro.kvstore.rebalance`) samples.
        When a chain migrates between groups, the whole group moves as
        a unit: the copy commits on the target's leader and reaches its
        followers through the ordinary replication log, the source's
        deletes ship as tombstones, and this queue simply stops seeing
        the item's traffic.
        """
        return self.leader.queue

    # -- node-protocol plumbing used by ShardedStore ---------------------------
    @property
    def _tables(self) -> dict[str, Table]:
        return self.leader._tables

    @property
    def metering(self) -> Metering:
        """Group-wide books: leader plus every follower.

        Followers meter only the (half-price) eventual reads they serve;
        log application is internal replication traffic, unmetered —
        DynamoDB does not bill for it either.
        """
        merged = Metering()
        for node in self.nodes:
            merged.merge_from(node.metering)
        return merged

    # -- table management ------------------------------------------------------
    def create_table(self, name: str, hash_key: str,
                     range_key: Optional[str] = None,
                     max_item_bytes: Optional[int] = None) -> None:
        for node in self.nodes:
            node.create_table(name, hash_key, range_key, max_item_bytes)

    def ensure_table(self, name: str, hash_key: str,
                     range_key: Optional[str] = None,
                     max_item_bytes: Optional[int] = None) -> None:
        if name not in self.leader._tables:
            self.create_table(name, hash_key, range_key, max_item_bytes)

    def drop_table(self, name: str) -> None:
        for node in self.nodes:
            node.drop_table(name)
        # Pending records for a dropped table are void.
        for follower in self._followers.values():
            follower.pending = deque(
                (record, visible) for record, visible in follower.pending
                if record.table != name)

    def table_names(self) -> list[str]:
        return self.leader.table_names()

    # -- the replication log ---------------------------------------------------
    def _follower_index_for(self, table: str, key: Any) -> int:
        """Stable per-item follower affinity (process-independent)."""
        token = route_token(table, partition_value(
            self.leader.table(table).schema, key))
        indexes = list(self._followers)
        digest = int.from_bytes(
            hashlib.md5(token.encode("utf-8")).digest()[:8], "big")
        return indexes[digest % len(indexes)]

    def _ship(self, rows: Sequence[tuple]) -> None:
        """Commit each ``(table, key or item)`` row's *current leader
        state* — the final row, or its tombstone — to the log.

        Without ``async_io`` shipping is per record: one ``repl.ship``
        draw per record per follower, in record order. With it, a
        multi-row commit travels as one boat: each follower draws **one**
        delay for the whole batch — Netherite-style — while per-follower
        in-order visibility (and therefore prefix consistency) is
        preserved by ``last_visible``.
        """
        leader_tables = self.leader._tables
        records = []
        for table, key in rows:
            leader_table = leader_tables[table]
            normalized = leader_table.schema.normalize(key)
            self._next_seq += 1
            # The stored row object itself: it is never mutated in place,
            # so the record and every follower can share it.
            records.append(_LogRecord(self._next_seq, table, normalized,
                                      leader_table._get_raw(normalized)))
        if not records:
            return
        self.stats.shipped += len(records)
        now = self.time.now()
        # A scheduled leader↔follower partition stalls the shipping
        # channel: records committed during the window leave the leader
        # only once it heals, so follower lag grows unboundedly (past
        # ``max_lag``) and converges through the ordinary pending-queue
        # drain afterwards.
        ship_base = now
        if self.timeline is not None and self.timeline.windows:
            self.timeline.observe(self.leader, now)
            heal = self.timeline.partition_heal_time(now, self.shard_id)
            if heal is not None:
                ship_base = max(ship_base, heal)
        # Looked up per call: a probe may rebind it between runs.
        sample = self.latency.sample
        # Record-major, follower-minor: the per-record draw order. A boat
        # draws on its first record only, once per follower.
        delays: dict[int, float] = {}
        for record in records:
            for index, follower in self._followers.items():
                if index not in delays or not self.async_io:
                    delays[index] = (0.0 if self.lag_scale == 0.0 else min(
                        sample("repl.ship") * self.lag_scale, self.max_lag))
                visible = max(follower.last_visible,
                              ship_base + delays[index])
                follower.last_visible = visible
                follower.pending.append((record, visible))
        # Opportunistic catch-up: apply whatever has already shipped, so
        # a write-only stretch cannot grow the pending queues unboundedly
        # (a record visible at ``t`` applies no later than the next
        # append — or the next read/failover, whichever drains first).
        for index in self._followers:
            self._drain(index, now)

    def _apply_record(self, node: KVStore, record: _LogRecord) -> None:
        table = node._tables.get(record.table)
        if table is None:
            return  # table dropped since the record shipped
        table.install(record.key, record.item)

    def _drain(self, index: int, now: Optional[float] = None) -> None:
        """Apply every record that has shipped to follower ``index``."""
        follower = self._followers[index]
        if now is None:
            now = self.time.now()
        while follower.pending and follower.pending[0][1] <= now:
            record, _visible = follower.pending.popleft()
            self._apply_record(follower.node, record)
            follower.applied_seq = record.seq
            self.stats.applied += 1

    def replication_lag(self) -> dict[int, int]:
        """Records not yet *visible*, per follower node index.

        Drains each follower first (application is lazy; a record whose
        ship time has passed is semantically already there), so the
        answer is how far behind a follower read would actually be.
        """
        now = self.time.now()
        for index in self._followers:
            self._drain(index, now)
        return {index: self._next_seq - follower.applied_seq
                for index, follower in self._followers.items()}

    # -- failover --------------------------------------------------------------
    def _maybe_failover(self, op: str) -> None:
        timeline = self.timeline
        if timeline is None or not timeline.windows or len(self.nodes) < 2:
            return
        rate = timeline.rate("leader_crash", self.time.now(), op,
                             self.shard_id)
        if rate > 0 and self.rand.random() < rate:
            self.fail_leader()

    def fail_leader(self) -> int:
        """Crash the leader and promote the most-caught-up follower.

        Followers first drain everything that has shipped; the one with
        the highest applied sequence wins (lowest node index breaks
        ties). Promotion moves that follower's durable storage into the
        leader *endpoint* — ``nodes[0]``'s identity is stable, so an
        in-flight operation that already resolved the leader lands on
        the post-failover state, exactly as an operation arriving
        during a real failover is served by the recovered leader — and
        then replays the unacked suffix of the durable replication log
        onto it. After the replay the promoted state is identical to
        the crashed leader's: no acknowledged write is lost. The
        crashed node's storage (intact — the substrate is durable,
        §2.2) re-joins as the winning follower's, already fully caught
        up: re-replication for free.

        The promotion itself is atomic in virtual time (no yield
        points), so concurrent operations serialize strictly before or
        after it; the ``repl.failover`` latency (one unit per replayed
        record) is charged afterwards to the operation that tripped
        over the crash. Returns the index of the follower whose state
        was promoted.
        """
        if len(self.nodes) < 2:
            raise ValueError("cannot fail over a single-replica group")
        now = self.time.now()
        candidates = list(self._followers)
        for index in candidates:
            self._drain(index, now)
        promoted_index = max(candidates,
                             key=lambda index: (
                                 self._followers[index].applied_seq,
                                 -index))
        promoted = self._followers[promoted_index]
        leader = self.leader
        # Swap storage *contents*: the winner's state becomes the leader
        # endpoint's; the crashed leader's (fully caught-up, durable)
        # state re-joins as the winner's follower storage. Contents, not
        # object identity — a concurrent operation that resolved its
        # ``Table`` before yielding into its latency sleep must wake up
        # holding the (recovered) leader table, never the demoted copy.
        for name, leader_table in leader._tables.items():
            self._swap_table_state(leader_table,
                                   promoted.node._tables[name])
        replay = list(promoted.pending)
        for record, _visible in replay:
            self._apply_record(leader, record)
        promoted.applied_seq = self._next_seq
        promoted.pending.clear()
        promoted.last_visible = now
        self.stats.failovers += 1
        self.stats.replayed += len(replay)
        if self.obs is not None:
            self.obs.tracer.event(
                f"failover:shard{self.shard_id}", cat="replication",
                promoted=promoted_index, replayed=len(replay),
                shard=self.shard_id)
        # ``pay`` (not ``sleep``): a failover tripped inside an overlap
        # scope must defer its cost like any other store latency — a
        # scope body may never yield to the kernel mid-flight.
        self.time.pay(
            self.latency.sample("repl.failover", units=len(replay)))
        # Schedule-exploration point *after* the (atomic) promotion: the
        # interesting races are between the freshly promoted state and
        # operations that resolved routing before the crash. The kernel
        # guard keeps this a no-op inside overlap scopes.
        kernel = getattr(self.time, "kernel", None)
        if kernel is not None:
            kernel.interleave_point(f"failover:promoted:{self.shard_id}")
        return promoted_index

    @staticmethod
    def _swap_table_state(a: Table, b: Table) -> None:
        """Exchange two tables' storage (rows, indexes, sort caches).

        Object identities — and each table's own lock — stay put, so
        references resolved before a failover remain references to the
        same *role* (leader endpoint or follower) afterwards.
        """
        for attr in ("_partitions", "_indexes", "_sorted_cache"):
            first, second = getattr(a, attr), getattr(b, attr)
            setattr(a, attr, second)
            setattr(b, attr, first)

    # -- reads: leader when strong, a follower when eventual ----------------------
    def _read(self, op: StoreOp, args: tuple):
        """Every read, whatever its kind.

        Strong reads (and any read in a followerless group) go to the
        leader, which a crash may first fail over. An eventual keyed read
        goes to the item's affine follower; an eventual whole-table read
        to any follower (rotating by a stable draw from the group's
        stream); an eventual batch splits by each item's affine follower
        — the same per-item routing as point reads, so an item never
        goes backwards in time between a batch and a point read — one
        round trip per involved follower, re-merged aligned with the
        request. The serving node meters the normalized consistency.
        """
        args = args[:-1] + (normalize_consistency(args[-1]),)
        if args[-1] is None or len(self.nodes) < 2:
            self._maybe_failover(op.latency)
            return op.call(self.leader, args)
        table = args[0]
        if op.kind == BATCH:
            return fan_out_batch(
                op, args,
                owners=[self._follower_index_for(table, key)
                        for key in args[1]],
                call=lambda index, sub_args: op.call(
                    self._serving_follower(index), sub_args),
                store=self, async_io=self.async_io)
        if op.kind == KEYED_READ:
            index = self._follower_index_for(*op.keys(args)[0])
        else:
            indexes = sorted(self._followers)
            index = indexes[self.rand.randint(0, len(indexes) - 1)]
        return op.call(self._serving_follower(index), args)

    _keyed_read = _table_read = _read

    def _serving_follower(self, index: int) -> KVStore:
        """Follower ``index``, drained to now, about to serve a read."""
        self._drain(index)
        self.stats.eventual_reads += 1
        return self._followers[index].node

    # -- writes: failover draw → leader → ship -------------------------------------
    def _write(self, op: StoreOp, args: tuple):
        """Every write, whatever its kind: commit on the leader (which a
        crash may first fail over), then ship the rows it changed.

        Only *applied* rows ship: a ``delete`` that found nothing and the
        unprocessed remainder of a throttled ``batch_write`` changed
        nothing. (A batch's delete of an absent row ships a harmless
        tombstone, as a follower's delete of a missing key is a no-op.)
        """
        self._maybe_failover(op.labels(args)[0])
        result = op.call(self.leader, args)
        rows = op.keys(args)
        if op is DELETE and not result:
            rows = []
        elif op.kind == BATCH:
            n_puts = len(args[1])
            applied_puts = n_puts - len(result.unprocessed_puts)
            rows = (rows[:applied_puts] + rows[n_puts:len(rows) - len(
                result.unprocessed_deletes)])
        self._ship(rows)
        return result

    _keyed_write = _transact = _write

    def _batch(self, op: StoreOp, args: tuple):
        return (self._read if op is BATCH_GET else self._write)(op, args)

    # -- two-phase hooks used by ShardedStore's cross-shard path ---------------
    def _pay(self, op: str, units: float = 0.0) -> None:
        # Cross-shard 2PC rounds land here; they are leader-routed.
        self._maybe_failover(op)
        self.leader._pay(op, units=units)

    def _transact_check(self, ops: Sequence[TransactOp]) -> list:
        return self.leader._transact_check(ops)

    def _transact_apply(self, plan: list, start: float) -> None:
        self.leader._transact_apply(plan, start)
        self._ship([(tbl.name, key) for tbl, key, _row in plan])

    # -- stats -----------------------------------------------------------------
    def storage_bytes(self, table: Optional[str] = None) -> int:
        # Logical bytes: replicas are copies, not additional data.
        return self.leader.storage_bytes(table)

    def item_count(self, table: str) -> int:
        return self.leader.item_count(table)


class ReplicatedStore(ShardedStore):
    """N replica groups behind the sharded-store facade.

    Same routing, fan-out, and cross-shard transaction machinery as
    :class:`ShardedStore` — its nodes just happen to be
    :class:`ReplicaGroup` instances, so every shard gains followers,
    bounded-lag eventual reads, and leader failover without a line of
    the layers above changing.
    """

    @property
    def groups(self) -> list[ReplicaGroup]:
        return list(self.nodes)

    @property
    def replication_stats(self) -> ReplicationStats:
        total = ReplicationStats()
        for group in self.nodes:
            total.merge(group.stats)
        return total

    def replication_lag(self) -> dict[int, dict[int, int]]:
        """Unapplied record counts: shard index -> follower -> lag."""
        return {shard: group.replication_lag()
                for shard, group in enumerate(self.nodes)}


__all__ = [
    "DEFAULT_MAX_LAG_MS",
    "ReplicaGroup",
    "ReplicatedStore",
    "ReplicationStats",
]
