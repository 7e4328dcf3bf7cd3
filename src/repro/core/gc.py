"""The garbage collector (§5, Fig. 10): lock-free log and row pruning.

Runs as a timer-triggered SSF with only at-least-once semantics. One run
executes six phases over its env:

1. stamp a ``FinishTime`` on intents that completed since the last run;
2. classify intents finished more than ``T`` ago as *recyclable* — the
   synchrony assumption (no SSF instance lives longer than ``T``, derived
   from the platform's execution timeout) guarantees no live instance can
   still need their logs;
3. delete the recyclable instances' read-log and invoke-log entries;
4. prune recyclable entries from reachable DAAL rows (and, from
   non-tail rows, the copy of a lock the tail no longer names) and
   *disconnect* interior rows whose write logs emptied, stamping them
   with a ``DangleTime`` (in-flight traversals may still be standing on
   them);
5. delete rows that have dangled for more than ``T`` and are unreachable
   from the head — including append-race orphans, which this
   implementation additionally stamps and collects (the paper leaves
   orphan reclamation implicit);
6. delete the recyclable intent records themselves (last, so a crashed GC
   re-runs the earlier phases for them).

Shadow chains (transaction scratch space) are collected whole — head and
tail included — once their owning instance and every logged writer are
gone (§6.2), and lock-set records follow their owner instance.

Liveness classification treats "present in the intent table" as live
unless recyclable, and "absent" as long-gone (its row entries were
necessarily created before the intent was deleted in a previous run's
phase 6). With paging enabled, instances outside the scanned page are
point-checked before anything of theirs is pruned.
"""

from __future__ import annotations

from typing import Any

from repro.core import daal, logkeys
from repro.core.env import BeldiEnv
from repro.kvstore import (
    AttrNotExists,
    ConditionFailed,
    Eq,
    Remove,
    Set,
    batch_get_all,
    batch_write_all,
)
from repro.kvstore.expressions import Projection, path
from repro.platform.context import InvocationContext


class _Liveness:
    """Classify instance ids as live / recyclable / long-gone."""

    def __init__(self, env: BeldiEnv, live: set, recyclable: set) -> None:
        self.env = env
        self.live = set(live)
        self.recyclable = set(recyclable)
        self.known_gone: set = set()

    def is_live(self, instance_id: str) -> bool:
        if instance_id in self.recyclable:
            return False
        if instance_id in self.live:
            return True
        if instance_id in self.known_gone:
            return False
        # Unknown id: it may have registered *after* our intent scan (an
        # intent is always inserted before any DAAL write), or it may sit
        # outside a paged scan. Point-check the table; "absent" is then
        # definitive — only phase 6 of a previous run can have removed it,
        # which implies it was recyclable.
        record = self.env.store.get(self.env.intent_table, instance_id)
        if record is None:
            self.known_gone.add(instance_id)
            return False
        self.live.add(instance_id)
        return True

    def _unknown(self, instance_ids) -> list:
        return sorted({
            instance_id for instance_id in instance_ids
            if instance_id and instance_id not in self.live
            and instance_id not in self.recyclable
            and instance_id not in self.known_gone})

    def prefetch(self, instance_ids) -> None:
        """Classify many unknown ids with one batched point-check.

        Same liveness semantics as :meth:`is_live`, but the intent-table
        reads for every id not settled by the scan coalesce into a single
        ``batch_get`` round trip instead of one ``get`` each.
        """
        unknown = self._unknown(instance_ids)
        if not unknown:
            return
        # Retry throttled remainders (partial BatchGetItem) rather than
        # failing the whole liveness check; leftovers fall back to
        # point gets inside batch_get_all.
        records = batch_get_all(self.env.store, self.env.intent_table,
                                unknown)
        for instance_id, record in zip(unknown, records):
            if record is None:
                self.known_gone.add(instance_id)
            else:
                self.live.add(instance_id)


def make_garbage_collector(runtime, env: BeldiEnv):
    """Build the GC handler for one env; registered as a platform fn."""

    def garbage_collector(platform_ctx: InvocationContext,
                          payload: Any) -> dict:
        obs = runtime.obs
        if obs is None:
            return _collect(platform_ctx, payload)
        with obs.tracer.span("gc.pass", cat="gc", env=env.name):
            stats = _collect(platform_ctx, payload)
            obs.tracer.event("gc:collected", cat="gc", env=env.name,
                             **{key: count for key, count in stats.items()
                                if count})
        return stats

    def _collect(platform_ctx: InvocationContext,
                 payload: Any) -> dict:
        now = runtime.kernel.now
        t_bound = runtime.config.gc_t
        store = env.store
        # Fast path (a cache to consult): tails via the env's cache,
        # liveness point-checks batched into one batch_get.
        cache = env.tail_cache
        # Batched deletions (the async_io feature): every GC deletion is
        # unconditional and idempotent, so DynamoDB-style BatchWriteItem
        # coalescing (25-item requests, unprocessed-item retries) is
        # always sound here — only the round-trip count changes.
        batch_writes = runtime.config.has_async_io
        stats = {"stamped": 0, "recycled_intents": 0, "log_entries": 0,
                 "pruned_entries": 0, "disconnected": 0, "deleted_rows": 0,
                 "shadow_chains": 0, "locksets": 0, "migrations": 0,
                 "stale_locks": 0}

        # Phase 0 (elastic stores only): a chain migration whose worker
        # crashed left a durable record mid-phase — roll it back (the
        # source stayed authoritative) or forward (routing already
        # flipped) before collecting anything, so the chain walk below
        # never meets a half-moved item. Live moves (still latched) are
        # left alone.
        elasticity = runtime.elasticity
        if elasticity is not None:
            from repro.kvstore.rebalance import recover_stale_migrations
            stats["migrations"] = recover_stale_migrations(
                store, elasticity.migrator)

        # Phases 1-2: stamp finish times; find recyclable intents. The
        # first-pass scan is classification only, so it may run at the
        # configured eventual consistency (half-price on a replicated
        # store): staleness is bounded by the replication lag — far
        # below T — and every conclusion it feeds is conservative or
        # re-checked. A missed/stale intent is treated as live (waits
        # for the next run); "Done without FinishTime" stamps through a
        # guarded conditional write; recyclability requires a FinishTime
        # more than T old, which lag cannot forge. Everything
        # destructive below reads strong.
        scan_consistency = ("eventual" if runtime.config.read_consistency
                            == "eventual" else None)
        live: set = set()
        recyclable: list[str] = []
        page_limit = runtime.config.gc_page_limit
        scan = store.scan(env.intent_table, limit=page_limit,
                          consistency=scan_consistency)
        for intent in scan.items:
            instance_id = intent["InstanceId"]
            if not intent.get("Done"):
                live.add(instance_id)
                continue
            if "FinishTime" not in intent:
                try:
                    store.update(env.intent_table, instance_id,
                                 [Set("FinishTime", now)],
                                 condition=AttrNotExists("FinishTime"))
                    stats["stamped"] += 1
                except ConditionFailed:
                    pass  # a concurrent GC stamped it
                live.add(instance_id)
            elif now - intent["FinishTime"] > t_bound:
                recyclable.append(instance_id)
            else:
                live.add(instance_id)
        liveness = _Liveness(env, live, set(recyclable))

        # Phase 3: drop read/invoke(/write) log entries of recyclables.
        log_tables = [env.read_log, env.invoke_log]
        if env.storage_mode == "crosstable":
            log_tables.append(env.write_log)
        for instance_id in recyclable:
            for log_table in log_tables:
                entries = store.query(log_table, instance_id,
                                      projection=Projection.of("Step"))
                dead_keys = [(instance_id, entry["Step"])
                             for entry in entries.items]
                _delete_keys(store, log_table, dead_keys, batch_writes)
                stats["log_entries"] += len(dead_keys)

        # Phases 4-5: DAAL maintenance for data tables and shadows
        # (cross-table mode has flat tables; nothing to disconnect).
        if env.storage_mode == "daal":
            for short in env.table_names():
                table = env.data_table(short)
                for key in daal.all_keys(store, table):
                    _collect_chain(store, table, key, liveness, now,
                                   t_bound, stats, cache=cache,
                                   batch_writes=batch_writes)
                shadow = env.shadow_table(short)
                _collect_shadows(store, shadow, liveness, now, t_bound,
                                 stats, cache=cache,
                                 batch_writes=batch_writes)

        # Lock sets die with their owning instance. (Unbatched keeps the
        # seed's check-then-delete interleaving so op order — and
        # therefore every latency/fault draw — is untouched.)
        lockset_scan = store.scan(env.lockset_table)
        if batch_writes:
            dead_refs = [
                (ref["TxnId"], ref["LockRef"])
                for ref in lockset_scan.items
                if not liveness.is_live(ref.get("OwnerInstance", ""))]
            _delete_keys(store, env.lockset_table, dead_refs, batch_writes)
            stats["locksets"] += len(dead_refs)
        else:
            for ref in lockset_scan.items:
                if not liveness.is_live(ref.get("OwnerInstance", "")):
                    store.delete(env.lockset_table,
                                 (ref["TxnId"], ref["LockRef"]))
                    stats["locksets"] += 1

        # Phase 6: finally retire the intent records.
        for instance_id in recyclable:
            store.delete(env.intent_table, instance_id)
            stats["recycled_intents"] += 1
        return stats

    return garbage_collector


def _entry_instances(row: dict) -> set:
    return {logkeys.instance_of(log_key)
            for log_key in (row.get("RecentWrites") or {})}


def _delete_keys(store, table: str, keys, batch_writes: bool) -> None:
    """Unconditionally delete ``keys``; coalesced when batching is on."""
    keys = list(keys)
    if not keys:
        return
    if batch_writes:
        batch_write_all(store, table, deletes=keys)
    else:
        for key in keys:
            store.delete(table, key)


def _collect_chain(store, table: str, key: Any, liveness: _Liveness,
                   now: float, t_bound: float, stats: dict,
                   cache=None, batch_writes: bool = False) -> None:
    """Phases 4-5 for one item's chain."""
    result = store.query(table, key)
    rows = {row["RowId"]: row for row in result.items}
    if daal.HEAD_ROW_ID not in rows:
        return
    reachable = daal.reachable_rows(
        {row_id: row.get("NextRow") for row_id, row in rows.items()})
    chain = [rows[row_id] for row_id in reachable]
    if cache is not None:
        # Settle every unknown writer in one batched point-check before
        # the per-entry pruning walk issues singleton gets. Only the
        # reachable chain's entries are consulted below — orphan rows'
        # writers would be wasted read units.
        writers: set = set()
        for row in chain:
            writers |= _entry_instances(row)
        liveness.prefetch(writers)

    # Prune dead log entries everywhere in the reachable chain. LogSize
    # stays a high-water mark (entries ever logged), but nothing gates on
    # it: "has space" is ``SizeLt(RecentWrites, N)`` in the case-B
    # condition, so a pruned *tail* accepts writes again, and the writer
    # that fills it again extends the chain. Interior rows keep their
    # ``NextRow`` and stay closed whatever is pruned.
    # A row that filled while the item was locked handed its ``LockOwner``
    # forward (``daal.append_row``) and kept the copy; the head is never
    # disconnected, so there the copy would outlive the lock for good.
    # Strip it once the tail names another owner or none: that lock was
    # released (a transaction never re-locks after it resolves), so the
    # one reader of a stale row's owner, ``daal.flush_value``, concludes
    # "already flushed" — which is then true.
    tail = chain[-1]
    tail_owner = (tail.get("LockOwner") or {}).get("Id")
    for row in chain:
        dead = [log_key for log_key in (row.get("RecentWrites") or {})
                if not liveness.is_live(logkeys.instance_of(log_key))]
        updates = [Remove(path("RecentWrites", log_key)) for log_key in dead]
        if (row is not tail and "LockOwner" in row
                and row["LockOwner"].get("Id") != tail_owner):
            updates.append(Remove("LockOwner"))
            stats["stale_locks"] += 1
        if updates:
            store.update(table, (key, row["RowId"]),
                         updates + [daal.bump_version()])
        if dead:
            row["RecentWrites"] = {
                log_key: outcome
                for log_key, outcome in row["RecentWrites"].items()
                if log_key not in dead}
            stats["pruned_entries"] += len(dead)

    # Disconnect interior rows whose logs emptied (head and tail stay).
    prev = chain[0] if chain else None
    for row in chain[1:-1]:
        if not row.get("RecentWrites") and "NextRow" in row:
            try:
                store.update(
                    table, (key, prev["RowId"]),
                    [Set("NextRow", row["NextRow"])],
                    condition=Eq("NextRow", row["RowId"]))
                _stamp_dangle(store, table, key, row, now)
                stats["disconnected"] += 1
                continue  # prev stays prev: it now points past this row
            except ConditionFailed:
                pass  # concurrent GC changed the link; be conservative
        prev = row

    # Orphans and disconnected rows: stamp first sighting, delete after T.
    expired = []
    seen = set(reachable)
    for row_id, row in rows.items():
        if row_id in seen:
            continue
        if "DangleTime" not in row:
            _stamp_dangle(store, table, key, row, now)
        elif now - row["DangleTime"] > t_bound:
            if batch_writes:
                expired.append(row_id)
            else:
                store.delete(table, (key, row_id))
                if cache is not None:
                    cache.drop_row(table, key, row_id)
                stats["deleted_rows"] += 1
    if expired:
        _delete_keys(store, table, [(key, row_id) for row_id in expired],
                     batch_writes)
        for row_id in expired:
            if cache is not None:
                cache.drop_row(table, key, row_id)
            stats["deleted_rows"] += 1


def _stamp_dangle(store, table: str, key: Any, row: dict,
                  now: float) -> None:
    try:
        store.update(table, (key, row["RowId"]),
                     [Set("DangleTime", now)],
                     condition=AttrNotExists("DangleTime"))
    except ConditionFailed:
        pass


def _collect_shadows(store, shadow_table: str, liveness: _Liveness,
                     now: float, t_bound: float, stats: dict,
                     cache=None, batch_writes: bool = False) -> None:
    """Collect whole shadow chains once every writer (and the owning
    instance) is gone; head and tail are deleted too (§6.2)."""
    for key in daal.all_keys(store, shadow_table):
        result = store.query(shadow_table, key)
        rows = result.items
        writers = set()
        owner = None
        for row in rows:
            writers |= _entry_instances(row)
            owner = row.get("OwnerInstance", owner)
        if cache is not None:
            liveness.prefetch(writers | ({owner} if owner else set()))
        if owner is not None and liveness.is_live(owner):
            continue
        if any(liveness.is_live(instance_id) for instance_id in writers):
            continue
        head = next((row for row in rows
                     if row["RowId"] == daal.HEAD_ROW_ID), None)
        if head is not None and "DangleTime" not in head:
            # Two-step retirement: stamp now, delete a full T later, so a
            # just-started writer that raced the liveness check can still
            # finish against a consistent chain.
            _stamp_dangle(store, shadow_table, key, head, now)
            continue
        if head is not None and now - head["DangleTime"] <= t_bound:
            continue
        _delete_keys(store, shadow_table,
                     [(key, row["RowId"]) for row in rows], batch_writes)
        for row in rows:
            if cache is not None:
                cache.drop_row(shadow_table, key, row["RowId"])
            stats["deleted_rows"] += 1
        stats["shadow_chains"] += 1
