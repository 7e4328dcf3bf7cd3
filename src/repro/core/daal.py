"""The linked DAAL: Beldi's per-item log-and-data linked list (§4.1).

Every item in a Beldi data table is a chain of rows sharing the item's
``Key`` (the hash key) and distinguished by ``RowId`` (the range key):

====================  =====================================================
Column                Meaning
====================  =====================================================
``Key``               Item key (hash key)
``RowId``             ``"HEAD"`` for the first row; UUIDs after that
``Value``             Item value as of the last write logged in this row
``RecentWrites``      Map: log key -> outcome (write log for this row)
``LogSize``           Number of entries ever logged in this row
``NextRow``           RowId of the successor once this row filled up
``LockOwner``         ``{"Id", "Ts"}`` map — lock-with-intent owner (§6.1)
``DangleTime``        Set by the GC when the row is disconnected (§5)
``TxnId``/``OrigKey`` Only on shadow-table chains (§6.2)
====================  =====================================================

A row is an atomicity scope: one conditional update can check the write
log, the log size, and the chain position, and apply the write plus its
log entry atomically — which is the whole trick. Rows are immutable once
full (``LogSize == N`` and ``NextRow`` set), so the tail always carries the
current value.

Traversal uses a single query with a ``(RowId, NextRow)`` projection to
build a local *skeleton* of the chain, then walks it in memory: any row
reachable from ``HEAD`` up to the first missing ``NextRow`` is a consistent
snapshot under a linearizable store (§4.1). Orphan rows — left over from
appends that lost the CAS race or crashed mid-append — show up in the query
result but are ignored by the walk. That walk is :func:`reachable_rows`,
for the traversal and the garbage collector alike; "the item's current
tail row" is :func:`tail_row`, for every reader that wants it.

Invariants this layer must uphold (see ``docs/architecture.md``) —
everything above (ops, txn, GC) assumes them, and every optimization
below (tail cache, batched reads, overlapped I/O) must preserve them:

- **The tail carries the truth.** Rows are immutable once full
  (``LogSize == N`` and ``NextRow`` set), so the reachable chain's last
  row always holds the current ``Value`` and the live ``LockOwner``.
- **One conditional write is the only commit point.** Every logged
  mutation lands value + log entry + version bump in a single row-scoped
  conditional update; there is no state in which the effect happened but
  its log entry did not (or vice versa). This is the exactly-once
  anchor — caches and batching may change *how a row is found*, never
  this atomicity scope.
- **Appends are version-validated.** ``append_row``'s CAS only links a
  candidate copied from the predecessor's current version, so a racing
  mutation can never be resurrected into the new tail.
- **The CAS is the only thing that links a row**, whoever appends. With
  the fast path case D is normally performed by the writer that fills
  the row, while the other writers of the runtime wait for that one
  append (``ops.py``, ``tailcache.py``); the lazy form — the first
  writer to meet a full tail appends — is the crash / foreign-writer
  fallback, and both are this module's one ``append_row``. A crash
  leaves what it always could: a full tail without a successor, an
  orphan candidate, or an empty successor carrying ``Value`` /
  ``LockOwner`` forward.
- **Stale hints fail safe.** A cached tail or position is only ever a
  starting point; every use re-validates against the store (the case-B
  condition, the chained-row chase) and falls back to the full skeleton
  probe, so eviction, GC disconnection, and follower staleness cost a
  repair traversal, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.tailcache import TailCache
from repro.kvstore import (
    And,
    AttrExists,
    AttrNotExists,
    ConditionFailed,
    Eq,
    KVStore,
    Remove,
    Set,
    SizeLt,
    batch_get_all,
    overlap,
)
from repro.kvstore.expressions import Condition, Projection, path

HEAD_ROW_ID = "HEAD"

_MAX_TAIL_CHASE = 10_000  # defensive bound when chasing a stale tail

# A Value sentinel for "item does not exist yet"; never exposed to apps.
MISSING = "__beldi_missing__"


@dataclass
class Skeleton:
    """Local view of one item's chain built from a projected query."""

    key: Any
    reachable: list[str]          # row ids from HEAD to tail, in order
    orphans: list[str]            # rows present but not reachable
    log_hits: dict[str, Any]      # log outcomes found for the probed key

    @property
    def exists(self) -> bool:
        return bool(self.reachable)

    @property
    def tail(self) -> Optional[str]:
        return self.reachable[-1] if self.reachable else None


def ensure_head(store: KVStore, table: str, key: Any,
                value: Any = MISSING,
                extra_attrs: Optional[dict] = None) -> None:
    """Create the item's head row if it does not exist yet.

    Safe to race: the conditional put makes exactly one creator win.
    """
    item = {"Key": key, "RowId": HEAD_ROW_ID, "Value": value,
            "RecentWrites": {}, "LogSize": 0, "Version": 0}
    if extra_attrs:
        item.update(extra_attrs)
    try:
        store.put(table, item, condition=AttrNotExists("RowId"))
    except ConditionFailed:
        pass


def reachable_rows(next_of: dict) -> list[str]:
    """The §4.1 walk, once: row ids from ``HEAD`` up to the first
    successor the snapshot ``next_of`` (row id -> ``NextRow`` or
    ``None``) does not hold. Everything else in the snapshot is an
    orphan or a disconnected row; a cycle ends the walk."""
    reachable: list[str] = []
    seen = set()
    cursor: Optional[str] = HEAD_ROW_ID
    while cursor is not None and cursor in next_of and cursor not in seen:
        seen.add(cursor)
        reachable.append(cursor)
        cursor = next_of[cursor]
    return reachable


def load_skeleton(store: KVStore, table: str, key: Any,
                  probe_log_key: Optional[str] = None,
                  cache: Optional[TailCache] = None,
                  consistency: Optional[str] = None) -> Skeleton:
    """One projected query -> local chain skeleton (§4.1 traversal).

    When ``probe_log_key`` is given, the projection additionally fetches
    ``RecentWrites.<log key>`` per row so the caller learns, from the same
    snapshot, whether its operation already executed — and with what
    logged outcome (needed by conditional writes).

    When a :class:`TailCache` is given, the freshly observed tail (and its
    log size, which rides along in the projection) is remembered so
    subsequent operations on this item skip the traversal entirely.
    """
    columns = [path("RowId"), path("NextRow")]
    if cache is not None:
        # The tail's log size rides along for the cache; omitted on the
        # seed path so the ``paper`` profile's byte accounting matches the
        # seed exactly.
        columns.append(path("LogSize"))
    if probe_log_key is not None:
        columns.append(path("RecentWrites", probe_log_key))
    result = store.query(table, key, projection=Projection(columns),
                         consistency=consistency)
    next_of: dict[str, Optional[str]] = {}
    size_of: dict[str, Optional[int]] = {}
    hit_of: dict[str, Any] = {}
    for row in result.items:
        row_id = row["RowId"]
        next_of[row_id] = row.get("NextRow")
        size_of[row_id] = row.get("LogSize")
        if probe_log_key is not None:
            writes = row.get("RecentWrites") or {}
            if probe_log_key in writes:
                hit_of[row_id] = writes[probe_log_key]
    reachable = reachable_rows(next_of)
    seen = set(reachable)
    skeleton = Skeleton(
        key=key, reachable=reachable,
        orphans=[row_id for row_id in next_of if row_id not in seen],
        log_hits={row_id: hit_of[row_id] for row_id in reachable
                  if row_id in hit_of})
    if cache is not None and skeleton.exists:
        cache.remember_tail(table, key, skeleton.tail,
                            size_of.get(skeleton.tail))
    return skeleton


def load_skeleton_by_pointer(store: KVStore, table: str,
                             key: Any) -> Skeleton:
    """Ablation: naive pointer-chasing traversal (§4.1's strawman).

    One ``get`` per row instead of one projected query for the whole
    chain; the cost grows with chain length, which is exactly why Beldi
    uses scan+projection. Benchmarked in the traversal ablation.
    """
    reachable: list[str] = []
    cursor: Optional[str] = HEAD_ROW_ID
    seen = set()
    while cursor is not None and cursor not in seen:
        row = store.get(table, (key, cursor),
                        projection=None)
        if row is None:
            break
        seen.add(cursor)
        reachable.append(cursor)
        cursor = row.get("NextRow")
    return Skeleton(key=key, reachable=reachable, orphans=[], log_hits={})


def read_row(store: KVStore, table: str, key: Any,
             row_id: str,
             consistency: Optional[str] = None) -> Optional[dict]:
    return store.get(table, (key, row_id), consistency=consistency)


def fast_tail_row(store: KVStore, table: str, key: Any,
                  cache: Optional[TailCache],
                  consistency: Optional[str] = None) -> Optional[dict]:
    """Resolve the item's current tail row through the cache (§4.4).

    One ``get`` on the cached row; if the row chained (or the GC
    disconnected it — disconnected rows keep their ``NextRow``), chase
    forward pointer by pointer, which re-joins the reachable chain. A
    vanished row evicts the entry. Returns ``None`` when the cache cannot
    resolve the tail — the caller falls back to the skeleton traversal.
    Values are never cached, so a returned row is always a fresh,
    linearizable read of the true tail.
    """
    if cache is None:
        return None
    entry = cache.tail_of(table, key)
    if entry is None:
        return None
    row = read_row(store, table, key, entry.row_id,
                   consistency=consistency)
    chased = 0
    while row is not None and "NextRow" in row and chased < _MAX_TAIL_CHASE:
        row = read_row(store, table, key, row["NextRow"],
                       consistency=consistency)
        chased += 1
    if row is None or "NextRow" in row:
        cache.forget(table, key)
        return None
    if chased or entry.row_id != row["RowId"] or entry.log_size is None:
        cache.remember_tail(table, key, row["RowId"], row.get("LogSize"))
        if chased:
            cache.stats.tail_fallbacks += 1
    return row


def tail_row(store: KVStore, table: str, key: Any,
             cache: Optional[TailCache],
             consistency: Optional[str] = None) -> Optional[dict]:
    """The item's current tail row, resolved once for every reader:
    through the cache (:func:`fast_tail_row`), else one skeleton query
    (which refills the cache) and one ``get``. ``None`` when there is no
    chain, or its tail vanished between the two."""
    row = fast_tail_row(store, table, key, cache, consistency=consistency)
    if row is None:
        skeleton = load_skeleton(store, table, key, cache=cache,
                                 consistency=consistency)
        if skeleton.exists:
            row = read_row(store, table, key, skeleton.tail,
                           consistency=consistency)
    return row


def tail_value(store: KVStore, table: str, key: Any,
               cache: Optional[TailCache] = None,
               consistency: Optional[str] = None) -> Any:
    """Current value of the item (``MISSING`` if the chain is absent).

    With ``consistency="eventual"`` every underlying read routes (and
    meters) as eventually consistent; on a replicated store the observed
    value may then be stale within the group's lag bound. The tail
    cache still participates: its entries are positional *hints*
    validated against whichever replica serves the read, so a
    follower-observed tail cached here at worst costs a later strong
    operation one repair traversal — the same fail-safe staleness the
    cache already absorbs from GC disconnections.
    """
    row = tail_row(store, table, key, cache, consistency=consistency)
    return row.get("Value", MISSING) if row else MISSING


def tail_values(store: KVStore, table: str, keys: list,
                cache: Optional[TailCache],
                consistency: Optional[str] = None,
                overlapped: bool = False) -> list:
    """Current value of every item in ``keys`` (aligned; ``MISSING``
    where the chain is absent) in as few round trips as the cache allows.

    Every tail row is fetched by **one** ``batch_get``: the cache names
    most of them, and a key it has no entry for first learns its tail
    from one skeleton query (which also fills the cache). A fetched row
    that chained or vanished since is evicted and repaired by
    :func:`tail_value`'s sound traversal — as is every key when there is
    no cache at all. With ``overlapped`` the skeleton queries, and then
    the repairs, are branches of one :func:`~repro.kvstore.overlap` scope
    and cost the slowest, not the sum. Like :func:`fast_tail_row`, values
    are never cached: every returned value was read from the store by
    this call.
    """
    values: list = [MISSING] * len(keys)
    repairs = list(range(len(keys)))
    if cache is not None:
        tails: dict = {}
        with overlap(store, enabled=overlapped) as scope:
            for index, key in enumerate(keys):
                entry = cache.tail_of(table, key)
                if entry is not None:
                    tails[index] = entry.row_id
                    continue
                with scope.branch():
                    skeleton = load_skeleton(store, table, key, cache=cache,
                                             consistency=consistency)
                if skeleton.exists:
                    tails[index] = skeleton.tail
        # batch_get_all retries any throttled (unprocessed) remainder, so
        # a partial batch throttle never fails the whole fetch.
        rows = batch_get_all(
            store, table,
            [(keys[index], row_id) for index, row_id in tails.items()],
            consistency=consistency)
        repairs = []
        for index, row in zip(tails, rows):
            if row is None or "NextRow" in row:
                # The tail went stale between resolution and fetch.
                cache.forget(table, keys[index])
                repairs.append(index)
            else:
                values[index] = row.get("Value", MISSING)
    with overlap(store, enabled=overlapped) as scope:
        for index in repairs:
            with scope.branch():
                values[index] = tail_value(store, table, keys[index],
                                           cache=cache,
                                           consistency=consistency)
    return values


def append_row(store: KVStore, table: str, key: Any, prev_row: dict,
               new_row_id: str,
               cache: Optional[TailCache] = None,
               after_put: Optional[Callable[[], None]] = None) -> str:
    """Extend the chain past a full row; returns the new tail's row id.

    The one append path (case D), whoever runs it: normally the writer
    whose update filled ``prev_row`` (``ops._extend_filled_row``, with
    the row that update returned in hand), otherwise the first writer
    that meets a full tail without a successor. ``after_put`` runs
    between the candidate put and the CAS — the filler's crash point.

    Lock-free: create the candidate row, then CAS the predecessor's
    ``NextRow``. Exactly one appender wins; losers adopt the winner's row
    (their candidate is left orphaned for the GC). The candidate carries
    the predecessor's ``Value`` and ``LockOwner`` forward so the tail
    always holds the current value and the live lock (§6.1).

    The CAS is **version-validated**: every row mutation bumps
    ``Version``, and the link only lands if the predecessor still matches
    the snapshot the candidate was copied from. Without this, a copy
    racing a concurrent mutation of the predecessor (e.g. a transaction
    commit's flush-and-unlock) would resurrect the pre-mutation value and
    lock in the new tail — a lost update.
    """
    prev_id = prev_row["RowId"]
    while True:
        candidate = {
            "Key": key,
            "RowId": new_row_id,
            "Value": prev_row.get("Value", MISSING),
            "RecentWrites": {},
            "LogSize": 0,
            "Version": 0,
        }
        if "LockOwner" in prev_row:
            candidate["LockOwner"] = prev_row["LockOwner"]
        for attr in ("TxnId", "OrigKey", "OwnerInstance"):
            if attr in prev_row:
                candidate[attr] = prev_row[attr]
        store.put(table, candidate)
        if after_put is not None:
            after_put()
        try:
            store.update(
                table, (key, prev_id),
                [Set("NextRow", new_row_id)],
                condition=And(AttrNotExists("NextRow"),
                              Eq("Version", prev_row.get("Version", 0))))
            if cache is not None:
                cache.remember_tail(table, key, new_row_id, 0)
            return new_row_id
        except ConditionFailed:
            refreshed = read_row(store, table, key, prev_id)
            if refreshed is None:
                raise
            winner = refreshed.get("NextRow")
            if winner is not None:
                # Lost the race: adopt, orphan the copy. The winner is
                # reachable (it was linked), so it is safe to remember —
                # but its log size is unknown here.
                if cache is not None:
                    cache.remember_tail(table, key, winner, None)
                    cache.stats.append_races_lost += 1
                return winner
            # Predecessor mutated under us (flush/unlock/another log
            # entry): re-snapshot and retry with fresh contents.
            prev_row = refreshed


def bump_version():
    """SET action incrementing a row's mutation counter.

    Every update to a row must include this so that version-validated
    appends (see :func:`append_row`) can detect concurrent mutation.
    """
    from repro.kvstore import IfNotExists, Plus, Value
    from repro.kvstore.expressions import path as kv_path
    return Set("Version", Plus(IfNotExists(kv_path("Version"), Value(0)),
                               Value(1)))


def case_b_condition(log_key: str, capacity: int) -> Condition:
    """Fig. 7a case B: op not logged, log has space, no successor."""
    return And(
        AttrNotExists(path("RecentWrites", log_key)),
        SizeLt("RecentWrites", capacity),
        AttrNotExists(path("NextRow")),
    )


def lock_free_condition(owner_id: str) -> Condition:
    """Lock is free or already mine (Fig. 11's acquisition condition)."""
    return AttrNotExists("LockOwner") | Eq(path("LockOwner", "Id"), owner_id)


def flush_value(store: KVStore, table: str, key: Any, value: Any,
                txn_id: str,
                cache: Optional[TailCache] = None) -> bool:
    """Commit-phase write: install ``value`` and release the lock, atomically.

    Runs with only at-least-once semantics; idempotency comes from the
    ``LockOwner.Id == txn_id`` condition — once the first flush lands and
    releases the lock, every retry fails the condition and backs off.
    Returns True if this call performed the flush.

    The tail resolves through :func:`tail_row` (with a cache, one
    ``get`` on the hot path); the conditional update's own
    ``AttrNotExists(NextRow)`` guard makes a stale cached tail fail
    safely, after which the skeleton traversal repairs the cache.
    """
    while True:
        row = tail_row(store, table, key, cache)
        if row is None:
            # No chain — nothing holds the lock. (The GC deletes only
            # rows a data table's chain no longer reaches, never a tail.)
            return False
        tail_id = row["RowId"]
        owner = row.get("LockOwner")
        if not owner or owner.get("Id") != txn_id:
            return False  # already flushed (and unlocked) by a peer
        if "NextRow" in row:
            if cache is not None:
                cache.forget(table, key)
            continue  # stale tail; rebuild the skeleton
        try:
            store.update(
                table, (key, tail_id),
                [Set("Value", value), Remove("LockOwner"),
                 bump_version()],
                condition=And(Eq(path("LockOwner", "Id"), txn_id),
                              AttrNotExists(path("NextRow"))))
            return True
        except ConditionFailed:
            refreshed = read_row(store, table, key, tail_id)
            if refreshed is None:
                if cache is not None:
                    cache.forget(table, key)
                continue
            owner = refreshed.get("LockOwner")
            if not owner or owner.get("Id") != txn_id:
                return False
            # Tail changed under us (our own earlier lock/append traffic);
            # follow the chain and retry.
            if cache is not None and "NextRow" in refreshed:
                cache.forget(table, key)
            continue


def release_lock(store: KVStore, table: str, key: Any,
                 owner_id: str,
                 cache: Optional[TailCache] = None) -> bool:
    """Abort-phase unlock (no value install); idempotent like flush."""
    while True:
        tail_id = None
        if cache is not None:
            entry = cache.tail_of(table, key)
            if entry is not None:
                tail_id = entry.row_id
        if tail_id is None:
            skeleton = load_skeleton(store, table, key, cache=cache)
            if not skeleton.exists:
                return False
            tail_id = skeleton.tail
        try:
            store.update(
                table, (key, tail_id),
                [Remove("LockOwner"), bump_version()],
                condition=And(Eq(path("LockOwner", "Id"), owner_id),
                              AttrNotExists(path("NextRow"))))
            return True
        except ConditionFailed:
            row = read_row(store, table, key, tail_id)
            if row is None or "NextRow" in row:
                if cache is not None:
                    cache.forget(table, key)
                continue  # stale tail (cached or raced); re-resolve
            owner = row.get("LockOwner")
            if not owner or owner.get("Id") != owner_id:
                return False
            continue


def chain_rows(store: KVStore, table: str, key: Any) -> list[dict]:
    """Full (unprojected) reachable rows, head to tail — GC's view."""
    skeleton = load_skeleton(store, table, key)
    rows = []
    for row_id in skeleton.reachable:
        row = read_row(store, table, key, row_id)
        if row is not None:
            rows.append(row)
    return rows


def all_keys(store: KVStore, table: str) -> list[Any]:
    """Distinct item keys in a DAAL table (``getAllDataKeys`` in Fig. 10)."""
    result = store.scan(
        table,
        filter_condition=Eq("RowId", HEAD_ROW_ID),
        projection=Projection.of("Key"))
    return [row["Key"] for row in result.items]


def chain_length(store: KVStore, table: str, key: Any) -> int:
    return len(load_skeleton(store, table, key).reachable)
