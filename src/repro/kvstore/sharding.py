"""A sharded store: N ``KVStore`` nodes behind one facade.

The linked DAAL keys every chain by ``(table, key)`` with all of an
item's rows sharing the item's hash key — exactly the unit a partitioned
store needs. :class:`ShardedStore` exploits that: it routes each
``(table, partition key)`` to one of N :class:`~repro.kvstore.KVStore`
nodes via rendezvous hashing, so

- every row of one item's chain (and therefore every row-scoped atomic
  conditional write, which is Beldi's whole atomicity story) lives on a
  single node;
- ``query`` — the skeleton traversal — is a single-node operation;
- each node keeps its **own** latency model, fault domain (a
  :class:`~repro.kvstore.faults.FaultTimeline` window scoped with
  ``shards=``), service capacity, and metering, so per-shard throttling,
  latency spikes, and saturation are all expressible;
- the DAAL, transaction, GC, and collector layers go through the facade
  unchanged — it carries the full store surface
  (:mod:`repro.kvstore.surface`), handled here *by kind*: the five keyed
  operations share one latch-guard-and-route path, the two batches one
  per-owner split/merge, and only the whole-table reads and the
  cross-shard transaction below need fan-outs of their own.

Fan-out operations:

``scan``
    Walks the nodes in shard order; a ``limit`` (the GC's page, the
    Appendix-A refinement) counts the rows walked across all of them, so
    the page ends on the shard where it fills.
``query_index``
    Queries every node and merge-sorts by ``(index value, primary key)``
    so the global order matches single-node semantics exactly,
    independent of placement.
``batch_get``
    Splits the batch by owning shard, one round trip per involved node,
    and re-merges aligned with the request. A node's partial throttle
    (or full ``ThrottledError``) surfaces as unprocessed positions; the
    call only raises when **no** key anywhere was served.
``transact_write``
    Ops on a single shard delegate to that node's native transaction.
    Ops spanning shards fall back to a lock-based two-phase path: pay a
    prepare and a commit round of conditional-write latency on every
    involved shard, then check all conditions and apply all writes under
    the involved tables' locks in deterministic order. The store
    substrate is durable and non-crashing by assumption (§2.2), so the
    coordinator window collapses to latency — what remains observable is
    the two-round cost and all-or-nothing atomicity.

``batch_write``
    The write-side twin: puts route by item, deletes by key, one
    ``BatchWriteItem`` round trip per involved node; unprocessed items
    merge back and the call raises only when no item anywhere applied.

With ``async_io=True`` the fan-outs (``batch_get``/``batch_write``) and
the cross-shard transaction's per-shard rounds run under an
:func:`~repro.kvstore.asyncio.overlap` scope: the involved nodes' round
trips pay ``max(latencies)`` plus per-node capacity queueing instead of
the sum. Off (the default for hand-built stores) keeps the sequential
virtual-latency model bit-for-bit.

Routing is stable: MD5-based rendezvous hashing (:class:`HashRing` —
each token goes to the shard whose ``(shard, token)`` digest is
highest, so shares are equal by construction), keyed by
``"<table>|<partition key repr>"`` — independent of process hash seeds,
so a given key lands on the same shard in every run and every test.

Invariants this layer must uphold (see ``docs/architecture.md``):

- **Chain co-location.** Every row of one item's chain routes by the
  item's partition key alone, so the row-scoped atomic conditional
  write — Beldi's entire atomicity story — never spans nodes, and
  ``query`` (the skeleton traversal) is single-node.
- **Placement-independent results.** Fan-out reads re-merge to exactly
  the single-node order (``query_index`` merge-sorts, ``batch_get``/
  ``batch_write`` align with the request), so no layer above can
  observe how many shards exist.
- **All-or-nothing cross-shard writes.** The two-phase path checks
  every condition and applies every write under all involved table
  locks with no yield point in between; the store substrate is durable
  and non-crashing (§2.2), so the coordinator window collapses to
  latency.
- **Per-shard fault/latency/metering domains stay independent** — one
  node's throttle or saturation never alters a sibling's draws.
- **Placement follows routing, always.** Every row lives on exactly the
  node the (forward-aware) placement maps its partition key to;
  live chain migration (:mod:`repro.kvstore.rebalance`) may *move* that
  mapping, but never leaves a row behind it —
  ``placement_residue(store)`` is empty at every crash point of the
  sweep.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional, Sequence

from repro.kvstore.asyncio import in_scope, overlap
from repro.kvstore.errors import TableExists, TableNotFound
from repro.kvstore.metering import Metering
from repro.kvstore.store import KVStore
from repro.kvstore.surface import (
    BATCH_GET,
    QUERY,
    SCAN,
    StoreOp,
    batch_rows,
    fan_out_batch,
    leaves,
    partition_value,
    route_token,
    store_layer,
    validate_batch_write,
)
from repro.kvstore.table import (
    KeySchema,
    ScanResult,
    Table,
    _sort_token_tuple,
)

#: Backoff while an operation waits out a live chain migration (virtual
#: ms). Small against any store round trip; the stall an operation can
#: observe is the migration's own duration, not this granularity.
_LATCH_WAIT_MS = 1.0
#: Tokens :class:`HashRing`'s placement memo holds before it is dropped.
#: A miss costs one digest per shard, so a small memo pays: 4 096 rather
#: than 65 536 ran ``profile-ladder`` and ``hotkey-gc`` in 3% less peak
#: memory at no measurable CPU cost (perfbench, paired runs, 2-CPU box).
MEMO_TOKENS = 4_096


class HashRing:
    """Rendezvous (highest-random-weight) placement over shard indexes.

    The name is historical: there is no ring. Every ``(shard, token)``
    pair has a score — the MD5 digest of the shard's label followed by
    the token — and a token lives on the shard that scores highest.
    Each token picks independently of every other, so every shard's
    share is exactly ``1/n`` in expectation whatever ``n`` is (nothing
    like a ring's arc lengths to be unlucky with); a shard added to
    ``n`` can only win tokens, never shuffle them between the others.
    MD5 keeps placement stable across processes and Python versions
    (``hash()`` is salted per process and would reshard every run).

    **Forwarding entries** sit on top: ``set_forward(token, shard)``
    pins one route token to an explicit owner, overriding the hash
    placement — the in-memory face of a committed chain migration
    (:mod:`repro.kvstore.rebalance` keeps the durable twin). Lookups
    check forwards first; :meth:`hash_shard_of` exposes the underlying
    hash owner for rollback decisions.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards <= 0:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        #: token -> shard overrides (committed migrations).
        self._forwards: dict[str, int] = {}
        #: token -> hash owner memo; placement is a pure function of
        #: the token, so it never invalidates.
        self._memo: dict[str, int] = {}
        #: One MD5 state per shard, already fed the shard's label; a
        #: score is a copy of it fed the token.
        self._labels = [hashlib.md5(f"shard-{shard}|".encode("utf-8"))
                        for shard in range(n_shards)]

    # -- forwarding ------------------------------------------------------------
    @property
    def forwards(self) -> dict[str, int]:
        """Token -> shard overrides currently installed (a copy)."""
        return dict(self._forwards)

    def set_forward(self, token: str, shard: int) -> None:
        """Pin ``token`` to ``shard``, overriding hash placement."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"no shard {shard} among {self.n_shards}")
        if shard == self.hash_shard_of(token):
            # A forward to the hash owner is a no-op entry; keep the
            # overlay minimal so balanced states need no bookkeeping.
            self._forwards.pop(token, None)
        else:
            self._forwards[token] = shard

    def clear_forward(self, token: str) -> None:
        self._forwards.pop(token, None)

    def hash_shard_of(self, token: str) -> int:
        """The pure rendezvous-hash owner, ignoring forwards."""
        owner = self._memo.get(token)
        if owner is None:
            data = token.encode("utf-8")
            best = b""
            for shard, label in enumerate(self._labels):
                scorer = label.copy()
                scorer.update(data)
                score = scorer.digest()
                if score > best:
                    best, owner = score, shard
            if len(self._memo) >= MEMO_TOKENS:
                # Tokens include instance-keyed log rows, an unbounded
                # population; the memo is a pure cache, so dropping it
                # wholesale is always sound.
                self._memo.clear()
            self._memo[token] = owner
        return owner

    def shard_of(self, token: str) -> int:
        """The shard owning ``token`` (forwards first, then the hash)."""
        owner = self._forwards.get(token)
        if owner is None:
            owner = self._memo.get(token)
            if owner is None:
                owner = self.hash_shard_of(token)
        return owner

    # -- rebalancing -----------------------------------------------------------
    def plan_rebalance(self, loads, tolerance: float = 0.2,
                       max_moves: Optional[int] = None) -> list[tuple]:
        """Minimal token moves that bring observed load inside tolerance.

        ``loads`` maps route tokens to non-negative observed load (op
        counts, queue samples — any additive measure). The plan is a
        list of ``(token, source_shard, target_shard)`` moves, greedy
        largest-first: while some shard carries more than
        ``mean * (1 + tolerance)``, move its heaviest token that (a)
        strictly narrows the donor/recipient gap and (b) does not push
        the recipient itself past tolerance. Both guards make the plan
        *convergent*: applying every move and re-planning from the
        resulting placement yields the empty plan, and a balanced load
        yields the empty plan outright (property-tested).

        The plan is advisory routing arithmetic only — executing it
        (copying chains, installing forwards) is the
        :class:`~repro.kvstore.rebalance.ChainMigrator`'s job.
        """
        n = self.n_shards
        if n < 2 or not loads:
            return []
        shard_load = [0.0] * n
        by_shard: dict[int, list] = {shard: [] for shard in range(n)}
        for token in sorted(loads):
            load = loads[token]
            if load < 0:
                raise ValueError(f"negative load for token {token!r}")
            shard = self.shard_of(token)
            shard_load[shard] += load
            by_shard[shard].append(token)
        total = sum(shard_load)
        if total <= 0:
            return []
        mean = total / n
        bound = mean * (1.0 + tolerance)
        # Heaviest-first candidate order per shard; stable by token so
        # the plan is deterministic for a given load map.
        for shard in range(n):
            by_shard[shard].sort(key=lambda t: (-loads[t], t))
        moves: list[tuple] = []
        moved: set = set()
        for _ in range(len(loads) + 1):
            donor = max(range(n), key=lambda s: (shard_load[s], -s))
            recipient = min(range(n), key=lambda s: (shard_load[s], s))
            if shard_load[donor] <= bound:
                break
            gap = shard_load[donor] - shard_load[recipient]
            candidate = None
            for token in by_shard[donor]:
                if token in moved:
                    continue
                load = loads[token]
                if load <= 0 or load >= gap:
                    continue
                if shard_load[recipient] + load > bound:
                    continue
                candidate = token
                break
            if candidate is None:
                break  # nothing productive left (e.g. one mega-token)
            moves.append((candidate, donor, recipient))
            moved.add(candidate)  # moved tokens are final this plan
            by_shard[donor].remove(candidate)
            shard_load[donor] -= loads[candidate]
            shard_load[recipient] += loads[candidate]
            if max_moves is not None and len(moves) >= max_moves:
                break
        return moves


@store_layer
class ShardedStore:
    """N store nodes behind the single-store facade.

    Drop-in for :class:`KVStore` everywhere above the storage layer: the
    DAAL, ops, txn, GC, and env code paths run unchanged. Construct with
    pre-built nodes (each carrying its own time source, latency model,
    fault policy, and capacity), or let
    :meth:`~repro.core.runtime.BeldiRuntime` build a fleet via its
    ``shards=`` parameter.
    """

    def __init__(self, nodes: Sequence[KVStore],
                 ring: Optional[HashRing] = None,
                 async_io: bool = False) -> None:
        if not nodes:
            raise ValueError("a sharded store needs at least one node")
        self.nodes = list(nodes)
        self.ring = ring or HashRing(len(self.nodes))
        if self.ring.n_shards != len(self.nodes):
            raise ValueError(
                f"placement covers {self.ring.n_shards} shards but "
                f"{len(self.nodes)} nodes were given")
        #: Overlap independent per-shard round trips (fan-outs, the
        #: cross-shard transaction rounds) instead of serializing their
        #: virtual latency. Off = the sequential model, bit-for-bit.
        self.async_io = async_io
        #: Observability hub (``repro.obs``); attached by an
        #: observability-enabled runtime, ``None`` otherwise.
        self.obs = None
        self._schemas: dict[str, KeySchema] = {}
        # -- elasticity bookkeeping (dormant until enable_elasticity) --
        #: Per-(table, partition key) routed-op counts — the observed
        #: load the hot-shard detector plans against. ``None`` disables
        #: every elasticity hook at a single attribute check.
        self.heat = None
        #: Routed ops per shard since construction (windowed by the
        #: detector via snapshots).
        self.shard_ops: list[int] = []
        #: Route tokens with a live migration: inline operations wait
        #: here instead of racing the copy.
        self._latched: set = set()
        #: Tables with a live migration (gates whole-table fan-outs).
        self._migrating_tables: dict[str, int] = {}
        #: In-flight inline operations per route token / per table —
        #: what a migration drains before touching rows. Operations
        #: issued inside an overlap scope are exempt: a scope body is
        #: atomic in virtual time, so its mutations land entirely
        #: before or after the (equally atomic) copy instant.
        self._inflight: dict = {}
        self._table_inflight: dict[str, int] = {}
        #: Migration attempts so far, and how many of them the last
        #: recovery sweep covered (``rebalance.recover_stale_migrations``).
        #: While they differ a crashed move may have left rows on a node
        #: routing does not map them to.
        self._migration_epoch = 0
        self._migration_epoch_swept = 0

    @property
    def n_shards(self) -> int:
        return len(self.nodes)

    # -- routing ---------------------------------------------------------------
    def _schema(self, table: str) -> KeySchema:
        schema = self._schemas.get(table)
        if schema is None:
            raise TableNotFound(f"no table named {table!r}")
        return schema

    def _route(self, table: str, key: Any) -> tuple:
        """``(partition value, route token, shard)`` of one key — see
        :func:`partition_value` and :func:`route_token`."""
        value = partition_value(self._schema(table), key)
        token = route_token(table, value)
        return value, token, self.ring.shard_of(token)

    def shard_for(self, table: str, key: Any) -> int:
        """The shard index owning ``(table, key)``; key may be a scalar
        partition value (even for a ranged table), a (hash, range)
        tuple, or an item dict — only the partition component routes, so
        one item's whole chain co-locates."""
        return self._route(table, key)[2]

    def node_for(self, table: str, key: Any) -> KVStore:
        return self.nodes[self.shard_for(table, key)]

    # -- elasticity hooks ------------------------------------------------------
    def enable_elasticity(self) -> None:
        """Start heat tracking and migration safety bookkeeping.

        Idempotent. Until called, every hook below is a single ``is
        None`` check, so a non-elastic store runs the exact pre-existing
        code path (the pure-python counters themselves never draw
        randomness or pay latency, so enabling tracking alone cannot
        perturb a run's virtual timeline either).
        """
        if self.heat is None:
            self.heat = {}
            self.shard_ops = [0] * self.n_shards

    def _await(self, ready) -> None:
        """Wait (in virtual time) until ``ready()`` holds.

        Only meaningful under a kernel: latches are held exclusively by
        migrations running inside simulated processes, so a
        non-process caller can never observe one.
        """
        while not ready():
            self.nodes[0].time.sleep(_LATCH_WAIT_MS)

    def _note_heat(self, table: str, partition_value: Any,
                   shard: int) -> None:
        self.shard_ops[shard] += 1
        try:
            self.heat[(table, partition_value)] = (
                self.heat.get((table, partition_value), 0) + 1)
        except TypeError:
            pass  # unhashable partition value: never a migration unit

    def _interleave(self, tag: str) -> None:
        """Schedule-exploration point (no-op without an exploring
        schedule). Never yields inside an overlap scope."""
        if in_scope(self.nodes[0].time):
            return
        kernel = getattr(self.nodes[0].time, "kernel", None)
        if kernel is not None:
            kernel.interleave_point(tag)

    def _enter_rows(self, pairs: list) -> tuple[list, Optional[tuple]]:
        """Route every ``(table, key)`` of a batch or transaction once;
        return the rows' shards and the guard for ``_release``.

        With elasticity on, count each row's heat, wait out any live
        migration latch on the tokens (re-checking all of them after
        every wait, then re-routing: the wait may have outlived a move)
        and register every token with no intervening yield, so there is
        never a wait while holding a registration. No guard when
        elasticity is off or inside an overlap scope (whose body is
        atomic in virtual time: it cannot straddle a copy instant).
        """
        routes = [self._route(table, key) for table, key in pairs]
        shards = [shard for _value, _token, shard in routes]
        if self.heat is None:
            return shards, None
        for (table, _key), (value, _token, shard) in zip(pairs, routes):
            self._note_heat(table, value, shard)
        tokens = list(dict.fromkeys(token for _v, token, _s in routes))
        if in_scope(self.nodes[0].time):
            return shards, None
        latched = self._latched
        if any(token in latched for token in tokens):
            self._await(lambda: not any(token in latched
                                        for token in tokens))
            ring = self.ring
            shards = [ring.shard_of(token) for _value, token, _s in routes]
        return shards, self._register(self._inflight, tokens)

    def _enter_table(self, table: str) -> Optional[tuple]:
        """The whole-table twin of ``_enter_rows`` for scans/index
        fan-outs: waits out migrations touching ``table``, then counts
        the fan-out in flight so a migration drains it before copying."""
        if self.heat is None or in_scope(self.nodes[0].time):
            return None
        migrating = self._migrating_tables
        if migrating:
            self._await(lambda: table not in migrating)
        return self._register(self._table_inflight, (table,))

    @staticmethod
    def _register(inflight: dict, names) -> tuple:
        """Count every name in ``inflight``; the guard for ``_release``."""
        for name in names:
            inflight[name] = inflight.get(name, 0) + 1
        return inflight, names

    @staticmethod
    def _release(guard: Optional[tuple]) -> None:
        if guard is None:
            return
        inflight, names = guard
        for name in names:
            remaining = inflight.pop(name, 0) - 1
            if remaining > 0:
                inflight[name] = remaining

    # -- table management ------------------------------------------------------
    def create_table(self, name: str, hash_key: str,
                     range_key: Optional[str] = None,
                     max_item_bytes: Optional[int] = None) -> None:
        if name in self._schemas:
            raise TableExists(f"table {name!r} already exists")
        for node in self.nodes:
            node.create_table(name, hash_key, range_key, max_item_bytes)
        self._schemas[name] = KeySchema(hash_key, range_key)

    def ensure_table(self, name: str, hash_key: str,
                     range_key: Optional[str] = None,
                     max_item_bytes: Optional[int] = None) -> None:
        if name not in self._schemas:
            self.create_table(name, hash_key, range_key, max_item_bytes)

    def drop_table(self, name: str) -> None:
        for node in self.nodes:
            node.drop_table(name)
        self._schemas.pop(name, None)

    def table_names(self) -> list[str]:
        return sorted(self._schemas)

    # -- keyed ops (route to the owner) -----------------------------------------
    def _keyed(self, op: StoreOp, args: tuple):
        """``get`` / ``put`` / ``update`` / ``delete`` / ``query``: one
        partition lives on exactly one shard — route the key once and
        call its owner. No fan-out. With elasticity on, also count the
        key's heat, wait out a live migration of it (then re-route) and
        count the op in flight for the whole call: a migration's drain
        reads that count, and it must see an op already parked in a
        node's service time. One token, so plain dict arithmetic.
        """
        table, key = args[0], args[1]
        # ``op.keys(args)[0]``, inline: a query routes its hash value as
        # the one-part key ``(hash_value,)``, so a tuple is never unpacked.
        value, token, shard = self._route(
            table, (key,) if op is QUERY else key)
        if self.heat is not None:
            self._note_heat(table, value, shard)
        if self.heat is None or in_scope(self.nodes[0].time):
            return op.call(self.nodes[shard], args)
        latched = self._latched
        if token in latched:
            self._await(lambda: token not in latched)
            shard = self.ring.shard_of(token)
        inflight = self._inflight
        inflight[token] = inflight.get(token, 0) + 1
        try:
            return op.call(self.nodes[shard], args)
        finally:
            remaining = inflight.pop(token) - 1
            if remaining:
                inflight[token] = remaining

    _keyed_read = _keyed_write = _keyed

    # -- fan-outs ------------------------------------------------------------------
    def _batch(self, op: StoreOp, args: tuple):
        """Per-shard fan-out of one logical batch, re-merged in order.

        Keys (and deletes) route by key, puts by item; one ``batch_get``
        / ``batch_write`` round trip per involved node (overlapped under
        ``async_io``). Partial throttles and whole-node
        ``ThrottledError``\\ s become unprocessed rows of the merged
        result; the call raises only when not a single row on any shard
        was served. A malformed write batch — a repeated key, or a put
        the store would refuse (an unsupported value, a row over the
        table's cap) — is rejected here, before any shard is touched.
        """
        table = args[0]
        if op is not BATCH_GET:
            validate_batch_write(self._schema(table), batch_rows(op, args)[0])
            # Each owner checks only its own puts, and an earlier owner
            # has already applied by then; the leaves share one cap.
            leaf_table = next(leaves(self)).table(table)
            for item in args[1]:
                leaf_table.prepare_put(item)
        shards, guard = self._enter_rows(op.keys(args))
        try:
            return fan_out_batch(
                op, args, owners=shards,
                call=lambda shard, sub_args: op.call(self.nodes[shard],
                                                     sub_args),
                store=self, async_io=self.async_io)
        finally:
            self._release(guard)

    def _table_read(self, op: StoreOp, args: tuple):
        """``scan`` / ``query_index``: every node holds a slice of the
        table, so wait out migrations touching it, then ask them all."""
        self._schema(args[0])
        guard = self._enter_table(args[0])
        try:
            if op is SCAN:
                return self._scan_nodes(args)
            return self._query_index_nodes(args)
        finally:
            self._release(guard)

    def _placed(self, table: str, shard: int, rows: list) -> list:
        """``rows`` of node ``shard`` minus those routing maps elsewhere.

        A migration whose worker crashed leaves the item on two nodes
        until the GC's phase 0 recovers the move — a half-made copy on
        the target, or the source's leftovers once routing has flipped.
        Keyed operations never see the stray copy (they route past it);
        a fan-out must not either, or one item answers twice. Free while
        no move is unrecovered; a row projected down past its partition
        key cannot be judged and stays.
        """
        if self._migration_epoch == self._migration_epoch_swept:
            return rows
        hash_key = self._schemas[table].hash_key
        return [row for row in rows
                if hash_key not in row
                or self.shard_for(table, row[hash_key]) == shard]

    def _scan_nodes(self, args: tuple) -> ScanResult:
        """Shard-ordered scan: each node walks what is left of the
        ``limit``, and none is asked once it is spent."""
        table, filter_condition, projection, limit, consistency = args
        items: list[dict] = []
        scanned = 0
        consumed = 0
        for shard, node in enumerate(self.nodes):
            remaining = None if limit is None else limit - scanned
            if remaining is not None and remaining <= 0:
                break
            result = node.scan(table, filter_condition, projection,
                               remaining, consistency)
            items.extend(self._placed(table, shard, result.items))
            scanned += result.scanned_count
            consumed += result.consumed_bytes
        return ScanResult(items, scanned, consumed)

    def _query_index_nodes(self, args: tuple) -> list[dict]:
        """Index lookup fan-out, merge-sorted to single-node order.

        One node sorts its matches by primary key (see
        :meth:`Table.query_index`); concatenating per-shard results in
        shard order would interleave that global order. The fan-out is
        therefore re-sorted by primary key so the result is
        byte-identical to the same data on one node — callers (the IC's
        pending sweep, the commit path's shadow resolution) see
        deterministic, placement-independent ordering.
        """
        table, index_name, value, consistency = args
        schema = self._schemas[table]
        items: list[dict] = []
        for shard, node in enumerate(self.nodes):
            items.extend(self._placed(table, shard, node.query_index(
                table, index_name, value, consistency)))
        items.sort(key=lambda item: _sort_token_tuple(schema.extract(item)))
        return items

    # -- cross-shard transactions ------------------------------------------------
    def _transact(self, op: StoreOp, args: tuple) -> None:
        """All-or-nothing conditional writes, across shards if need be.

        Single-shard groups delegate to the owning node's native
        ``TransactWriteItems``. A cross-shard group runs the lock-based
        two-phase path: a *prepare* and a *commit* round of
        conditional-write latency on each involved shard (2PC's two
        round trips), then — under every involved table's lock, in
        deterministic (shard, table) order — all conditions are checked
        and all writes applied with no intervening yield point. Nodes
        are durable and never crash (§2.2), so the protocol cannot stall
        between rounds; its observable cost is the doubled per-shard
        latency, its observable guarantee atomicity.
        """
        shards, guard = self._enter_rows(op.keys(args))
        try:
            groups: dict[int, list] = {}
            for shard, write in zip(shards, args[0]):
                groups.setdefault(shard, []).append(write)
            if len(groups) == 1:
                shard, writes = next(iter(groups.items()))
                self.nodes[shard].transact_write(writes)
            else:
                self._two_phase(groups)
        finally:
            self._release(guard)

    def _two_phase(self, groups: dict) -> None:
        shards = sorted(groups)
        # Each node's span starts where its rounds start, on its clock.
        starts = {shard: self.nodes[shard].time.now() for shard in shards}
        # Two rounds of latency — prepare, then commit — one per involved
        # shard each. Under async_io a round's fan-out overlaps (all
        # shards are contacted concurrently; the round completes when the
        # slowest answers) — the two rounds themselves stay strictly
        # sequential, as 2PC requires.
        for phase in ("2pc:prepared", "2pc:committed"):
            with overlap(self, enabled=self.async_io) as scope:
                for shard in shards:
                    with scope.branch():
                        self.nodes[shard]._pay("db.txn",
                                               units=len(groups[shard]))
            if self.obs is not None:
                self.obs.tracer.event(phase, cat="txn", shards=shards)
            self._interleave(phase)
        # Decision + apply under every involved table's lock.
        tables: dict[tuple, Table] = {}
        for shard, writes in groups.items():
            for write in writes:
                tables[(shard, write.table)] = (
                    self.nodes[shard]._tables[write.table])
        acquired: list[Table] = []
        try:
            for key in sorted(tables):
                tables[key]._lock.acquire()
                acquired.append(tables[key])
            # Same check-then-apply semantics as one node's transaction,
            # reusing its phases so the two paths cannot drift — just
            # spread over every involved shard (each meters its own
            # portion). Every shard's rows are built before any lands.
            plans = {shard: self.nodes[shard]._transact_check(groups[shard])
                     for shard in shards}
            for shard in shards:
                self.nodes[shard]._transact_apply(plans[shard],
                                                  starts[shard])
        finally:
            for tbl in reversed(acquired):
                tbl._lock.release()

    # -- stats ---------------------------------------------------------------------
    @property
    def metering(self) -> Metering:
        """Fleet-wide counters, merged fresh from every node.

        Per-node books stay on ``nodes[i].metering``; this merged view
        satisfies the single-store reporting idiom
        (``copy()``/``diff()``/``dollar_cost()``).
        """
        merged = Metering()
        for node in self.nodes:
            merged.merge_from(node.metering)
        return merged

    def storage_bytes(self, table: Optional[str] = None) -> int:
        return sum(node.storage_bytes(table) for node in self.nodes)

    def item_count(self, table: str) -> int:
        return sum(node.item_count(table) for node in self.nodes)

    def items_per_shard(self, table: str) -> list[int]:
        """Row counts by shard (balance observability)."""
        return [node.item_count(table) for node in self.nodes]


__all__ = ["HashRing", "ShardedStore"]
