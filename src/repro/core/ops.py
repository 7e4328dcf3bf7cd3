"""Exactly-once operation wrappers over the linked DAAL (§4.2-§4.4).

Each wrapper pairs the externally visible effect with a log record so that
re-executions (by the intent collector, or duplicate instances) observe
"already done" and skip. Reads log value+step to the read log in a second,
non-atomic step (a crash in between is safe — the unlogged read had no
external effect); writes log *into the same row they modify*, which is the
linked DAAL's whole reason to exist.

The write-side case analysis follows Figures 6/7 and 17/18 exactly, and
is written once — :func:`_logged_write`, the loop ``write``, ``condWrite``
and through them ``lock`` / ``unlock`` / ``tx_lock`` / ``tx_write`` ride:

====  ===========================================================
Case  Candidate tail state
====  ===========================================================
A     operation already in this row's log -> return logged outcome
B     not logged, log has space, no successor -> do it here
(B1/B2 for conditional writes: the two entries of ``attempts``)
C     not logged, row full, successor exists -> follow the chain
D     not logged, row full, no successor -> append a row, retry
====  ===========================================================

Cases are probed in transition-graph order (states with no incoming edges
first), so a failed conditional write soundly eliminates its case even
under concurrent mutation.

Who performs case D. In the paper every writer that meets a full tail
appends — lazily, and racing every other writer that met it. With the
``fastpath`` feature the writer whose case-B update *fills* the row
(the row that update returns says so) runs the append before its op
returns, and announces it in the tail cache; the runtime's other
writers of the key wait for that one append and restart from the new
tail (fill-and-extend: :func:`_extend_filled_row`,
:func:`_await_extension`). It is the same :func:`daal.append_row` and
the same version-validated CAS either way; the lazy form remains the
fallback for a filler that crashed, was killed or lost the store, and
the only form on ``paper`` / ``without="fastpath"``.

The read log's serialization point (``docs/async_io.md``). An observed
value has to be durable before anything that depends on it becomes
visible — not sooner. The paper puts the conditional read-log put right
after every read; with the ``async_io`` feature it moves to the **effect
frontier**: ``read``/``read_eventual``/``record`` buffer their value on
the context (:func:`log_read`) and :func:`flush_read_log` writes the
whole run as *one* conditional put of *one* row, keyed by the run's first
step, immediately before the next write, lock, invoke-log claim,
transaction begin/end, callback or ``mark_done``. One put is atomic, so
no prefix of a run can land without the rest — which is why the run is
one row and not N overlapped puts: step 3's key may depend on step 2's
value. What is buffered is a frozen snapshot, and it is what the handler
is handed: nothing the handler does reaches the log. A replay (an execution that did not
create its intent; for an async stub, one the IC relaunched) starts from
the logged runs (:func:`logged_reads`) and answers those steps from
memory; one whose flush loses to an execution that logged *different*
values has shown nobody anything yet and is rolled back
(:class:`ReadLogLost`) — the re-run replays the winner's log.
:func:`read_many_op` (``ctx.read_many``) is the batched form of
``read_eventual``: one step per key, the unlogged ones fetched with one
``batch_get`` of their tails (:func:`daal.tail_values`) and
joined to the pending run together — one round trip in, still one group
row out. Replay stays per step: a run may split, so a replay can hold
any prefix of a call's steps and fetches only the rest. Without the
feature (``paper``, ``without="async_io"``) the frontier follows every
read: a run of one, today's row, today's crash points — and
``read_many`` is the per-key loop. Every other log write keeps its own
rule: batching only where writes are idempotent or deterministic (the
GC's deletions, the parallel-invoke claim batch in ``invoke.py``),
overlapping only across *independent* operations (the commit fan-out in
``txn.py``), never within one operation's probe/log sequence.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core import daal, intents
from repro.core.errors import BeldiError
from repro.core.logkeys import encode
from repro.kvstore import (
    And,
    AttrNotExists,
    ConditionFailed,
    IfNotExists,
    Plus,
    Set,
    ThrottledError,
    UnavailableError,
    Value,
)
from repro.kvstore.expressions import Condition, UpdateAction, path
from repro.kvstore.item import freeze_value
from repro.kvstore.table import DEFAULT_MAX_ITEM_BYTES
from repro.sim.kernel import ProcessCrashed

_MAX_CHAIN_STEPS = 10_000  # defensive bound; chains are GC-kept short
#: A pending run flushes early rather than grow past this many value
#: bytes, so a group row stays well inside the store's row cap — the
#: same cap that turns one DAAL row into a linked list (§4.1).
_MAX_RUN_BYTES = DEFAULT_MAX_ITEM_BYTES // 2


# Expression objects are immutable at apply time (``apply`` mutates the
# item, never the action), so the two constant actions of every logged
# write are built once instead of per operation.
_LOG_SIZE_BUMP = Set("LogSize", Plus(IfNotExists(path("LogSize"), Value(0)),
                                     Value(1)))
_VERSION_BUMP = daal.bump_version()


def _log_write_updates(log_key: str, outcome: Any) -> list[UpdateAction]:
    """SET actions that append one entry to a row's write log."""
    return [
        _LOG_SIZE_BUMP,
        Set(path("RecentWrites", log_key), outcome),
        _VERSION_BUMP,
    ]


# ---------------------------------------------------------------------------
# the read log: one serialization point, at the effect frontier
# ---------------------------------------------------------------------------
#
# A run of reads is one row keyed by its first step: ``Value`` is that
# step's value and ``Run`` (absent for a run of one — the paper's row)
# carries the following steps' values in order.

class ReadLogLost(ProcessCrashed):
    """A group flush lost its condition to a duplicate execution that
    logged different values. To everything but the runtime's instance
    wrapper — which rolls the execution back and replays the winner's
    log — this *is* a crash: not an ``Exception``, so neither handler
    code nor a transaction block can mistake it for an outcome."""


def _run_values(record: dict) -> list:
    return [record["Value"], *record.get("Run", ())]


def _put_run(ctx, first: int, values: list) -> Optional[list]:
    """The serialization point: log ``values`` as steps ``first``... with
    one conditional put. ``None`` when the row landed; when the condition
    is lost, the concurrent winner's run for those steps."""
    store = ctx.store
    row = {"InstanceId": ctx.instance_id, "Step": first, "Value": values[0]}
    if len(values) > 1:
        row["Run"] = values[1:]
    try:
        store.put(ctx.env.read_log, row,
                  condition=AttrNotExists("InstanceId"))
        return None
    except ConditionFailed:
        record = store.get(ctx.env.read_log, (ctx.instance_id, first))
        if record is None:
            raise BeldiError(
                "read log entry vanished mid-operation") from None
        return _run_values(record)


def logged_reads(env, instance_id: str) -> dict:
    """Every logged ``step -> value`` of one instance: one ``query``.

    What a replay (IC restart, duplicate delivery, an execution rolled
    back by :class:`ReadLogLost`) starts from, so logged steps replay
    from memory instead of a data read plus a lost put plus a get each.
    """
    logged: dict = {}
    for record in env.store.query(env.read_log, instance_id).items:
        for offset, value in enumerate(_run_values(record)):
            logged[record["Step"] + offset] = value
    return logged


def log_read(ctx, step: int, observe, tag: Optional[str] = None) -> Any:
    """The logged value of read step ``step``; ``observe()`` runs only if
    the step was never logged.

    With a prefetched log (``ctx.read_log``, the ``async_io`` feature)
    a logged step answers from memory and a new one joins the pending
    run, durable at the next :func:`flush_read_log`. Without one the
    frontier is right here: a run of one, put before the value is handed
    out (between the ``<tag>:before-log``/``after-log`` crash points),
    so a lost condition simply adopts the winner's value.

    Either way the handler is handed the frozen value the log holds, on
    a first execution as on a replay: what works once works under
    recovery, and nothing the handler does to it reaches the log.
    """
    logged = ctx.read_log
    if logged is None:
        value = freeze_value(observe())[0]
        if tag:
            ctx.crash_point(f"{tag}:before-log")
        winner = _put_run(ctx, step, [value])
        if tag:
            ctx.crash_point(f"{tag}:after-log")
        return value if winner is None else winner[0]
    if step in logged:
        return logged[step]
    return _join_pending_run(ctx, step, observe())


def _join_pending_run(ctx, step: int, value: Any) -> Any:
    """Buffer the value just observed for ``step`` until the frontier;
    returns the frozen snapshot it buffered."""
    # A snapshot, taken now: the log records what was *observed*.
    # Frozen, so the flush stores it by reference instead of walking it
    # again (a value read from the store is frozen already).
    snapshot, size = freeze_value(value)
    if ctx.pending_reads and (
            ctx.pending_first + len(ctx.pending_reads) != step
            or ctx.pending_bytes + size > _MAX_RUN_BYTES):
        # A frontier that came sooner: a run is consecutive steps (by
        # construction) that fit one row.
        flush_read_log(ctx)
    if not ctx.pending_reads:
        ctx.pending_first = step
        ctx.pending_bytes = 0
    ctx.pending_reads.append(snapshot)
    ctx.pending_bytes += size
    return snapshot


def flush_read_log(ctx) -> None:
    """The effect frontier: make the pending run of reads durable.

    Called immediately before anything another party can observe or a
    replay can depend on. The values were already handed to the handler,
    so losing the condition to a duplicate that logged *different*
    values cannot be repaired in place: nothing since the run began has
    had an effect, and the execution is rolled back (:class:`ReadLogLost`)
    to replay the winner's log.

    A speculative open's intent put is joined here first
    (:func:`join_intent`), with or without a run pending: no log row
    of an instance may land before its intent.
    """
    if ctx.opening is not None:
        join_intent(ctx)
    values = ctx.pending_reads
    if not values:
        return
    first = ctx.pending_first
    with ctx.trace("op.read_flush", first=first, steps=len(values)):
        ctx.crash_point(f"readlog:{first}:before-flush")
        winner = _put_run(ctx, first, values)
        # Only now: a store error above leaves the run pending, so the
        # next frontier cannot pass without it.
        ctx.pending_reads = []
        if winner is not None and winner != values:
            if ctx.obs is not None:
                # Which execution must now roll back, named as its
                # lifecycle events name it (the early-reply rule's fact).
                platform = ctx.platform_ctx
                ctx.obs.tracer.annotate(lost=[
                    platform.function, platform.invocation_index,
                    platform.request_id])
            raise ReadLogLost()
        ctx.lifecycle("flush")
        ctx.crash_point(f"readlog:{first}:after-flush")


def join_intent(ctx) -> None:
    """Wait for this execution's speculative intent put
    (:func:`~repro.core.intents.put_beside`), which ran beside its first
    reads: at its first effect frontier, or when its handler raises
    before one.

    Until now the execution was a first execution with an empty read
    log; only a put that created the intent lets it stay one. One that
    found an earlier execution's intent raises
    :class:`~repro.core.intents.IntentFound`: nothing the run read has
    been shown to anyone, so the runtime starts over from that record.
    """
    stored, created = ctx.runtime.kernel.join(ctx.opening)
    # Only now: a put error above leaves the open unjoined, so the next
    # frontier cannot pass without it.
    ctx.opening = None
    ctx.lifecycle("intent")
    if not created:
        raise intents.IntentFound(stored)
    ctx.crash_point("intent:ensured")


def _note(ctx, **facts) -> None:
    """Say on the open ``op.*`` span what its body just learned — the
    ``[RowId, Version]`` a read fetched or an update landed — and, in a
    transaction's Execute mode, whose op it is. The client-visible
    history of a traced run is read off these (``docs/testing.md``,
    "Checked histories")."""
    obs = ctx.obs
    if obs is not None:
        if ctx.in_txn_execute():
            facts["txn"] = ctx.txn.txn_id
        obs.tracer.annotate(**facts)


# ---------------------------------------------------------------------------
# read (Fig. 5)
# ---------------------------------------------------------------------------

def read_op(ctx, table: str, key: Any, attribute: str = "Value") -> Any:
    """Read the item's current ``attribute`` with exactly-once logging.

    Returns :data:`daal.MISSING` when the item (or attribute) does not
    exist. ``attribute`` is ``"Value"`` for data reads and ``"LockOwner"``
    for the wait-die owner probe (Fig. 11 reads the lock column through
    the same logged path).

    Fast path (§4.4): with a tail cache the read goes straight to the
    cached tail with one ``get`` — sound regardless of replays, because
    a read's exactly-once outcome lives in the read log, not the chain,
    and the tail row itself is always re-read fresh.

    In a transaction's Execute mode the read holds the item's lock, so
    it asks for ``"strong"`` explicitly: a stale follower must never
    stand in for a dark leader (``ResilientStore``), or the transaction
    acts on a value from before the previous commit's flush.
    """
    step = ctx.next_step()
    consistency = "strong" if ctx.in_txn_execute() else None

    def observe() -> Any:
        ctx.crash_point(f"read:{step}:start")
        row = daal.tail_row(ctx.store, table, key, ctx.tail_cache,
                            consistency=consistency)
        if attribute == "Value":
            _note(ctx, read=row and [row["RowId"], row.get("Version", 0)])
        return row.get(attribute, daal.MISSING) if row else daal.MISSING

    with ctx.trace("op.read", span_id=f"{ctx.instance_id}#{step}",
                   step=step, table=table, key=key):
        return log_read(ctx, step, observe, tag=f"read:{step}")


def read_only_op(ctx, table: str, key: Any,
                 consistency: Optional[str] = None) -> Any:
    """Logged read *without* exactly-once registration (§2.2's knob).

    For reads that are observations only — no lock probe, no write-log
    entry to land — the full exactly-once read is overkill: the result
    just needs to be deterministic under replay, which the read log
    alone provides. The tail lookup can therefore run at the requested
    ``consistency``: ``"eventual"`` routes to a follower at half a read
    unit (DynamoDB's 1x eventual vs 2x strong pricing), possibly stale
    within the replication-lag bound. The read-log record itself is a
    leader write, as all writes are.

    Replays return the logged value exactly like :func:`read_op`.
    """
    step = ctx.next_step()

    def observe() -> Any:
        ctx.crash_point(f"roread:{step}:start")
        return daal.tail_value(ctx.store, table, key,
                               cache=ctx.tail_cache,
                               consistency=consistency)

    with ctx.trace("op.roread", span_id=f"{ctx.instance_id}#{step}",
                   step=step, table=table):
        return log_read(ctx, step, observe, tag=f"roread:{step}")


def read_many_op(ctx, table: str, keys: list,
                 consistency: Optional[str] = None) -> list:
    """:func:`read_only_op` over independent keys, fetched together
    (the ``async_io`` feature; needs the prefetched ``ctx.read_log``).

    One step per key, allocated up front, so a replay finds the same
    step numbers whatever was logged. Steps the loaded log holds answer
    from memory; the rest resolve through :func:`daal.tail_values` — one
    ``batch_get`` of the tails (cached, or learned from overlapped
    skeleton queries), overlapped repairs for stale ones — and join the pending run in key order: one
    round trip in, still one group row out at the next frontier. The
    fetch sits between the ``readmany:<first step>:start`` and
    ``:fetched`` crash points; nothing is logged at either, so a crash
    there replays exactly like one between two buffered reads.
    """
    logged = ctx.read_log
    steps = [ctx.next_step() for _ in keys]
    fetch = [index for index, step in enumerate(steps)
             if step not in logged]
    values = [logged.get(step) for step in steps]
    if fetch:
        first = steps[0]
        with ctx.trace("op.read_many", span_id=f"{ctx.instance_id}#{first}",
                       step=first, table=table, keys=len(fetch)):
            ctx.crash_point(f"readmany:{first}:start")
            fetched = daal.tail_values(
                ctx.store, table, [keys[index] for index in fetch],
                ctx.tail_cache, consistency=consistency, overlapped=True)
            ctx.crash_point(f"readmany:{first}:fetched")
            for index, value in zip(fetch, fetched):
                values[index] = _join_pending_run(ctx, steps[index], value)
    return values


def record_op(ctx, compute) -> Any:
    """Log the result of a non-deterministic computation (§3.1).

    First execution evaluates ``compute()`` and logs the result; replays
    return the logged value, making things like fresh UUIDs and timestamps
    deterministic under re-execution. Without a prefetched log the step
    is probed first, so a replay never evaluates ``compute()`` at all.
    """
    step = ctx.next_step()
    with ctx.trace("op.record", span_id=f"{ctx.instance_id}#{step}",
                   step=step):
        if ctx.read_log is None:
            existing = ctx.store.get(ctx.env.read_log,
                                     (ctx.instance_id, step))
            if existing is not None:
                return existing["Value"]
        return log_read(ctx, step, compute)


# ---------------------------------------------------------------------------
# write (Fig. 6) — with the §4.4 fast path
# ---------------------------------------------------------------------------
#
# The fast path skips the initial whole-chain replay probe and starts the
# case loop straight at the cached tail. Soundness rests on the position
# cache: every logged outcome (case B landing or case A discovery) pins
# its row in the same scheduling step as the store mutation, so
#
#  - a position hit resolves a replay with one ``get`` (case A), and
#  - a *trusted* position miss means the operation was never logged
#    through this runtime — and since every operation against the store
#    flows through this runtime (single-account simulation; see
#    tailcache.py), never logged at all. Starting at the tail then risks
#    nothing: the entry the loop must not double-write does not exist.
#    Misses stop being trusted for an instance once the bounded cache
#    evicts any of its positions (taint) — those ops take the full probe.
#
# A stale cached tail fails safely: the case-B condition requires the
# target row to exist (``SizeLt(RecentWrites)``) and be chainless, so a
# deleted or chained row raises ConditionFailed, and the loop repairs the
# cache via one full probe before continuing.
#
# The same inference lets a writer skip a full row whose successor is
# being appended (``_await_extension``): it waits for the append, then —
# position miss still trusted, nothing recorded for it meanwhile —
# restarts at the tail the filler remembered, without the doomed update
# and the ``get`` that would only have told it to follow ``NextRow``.


def _position_replay(store, table: str, key: Any, log_key: str,
                     cache) -> tuple[bool, Any]:
    """Resolve a replayed op through the position cache: one ``get``."""
    if cache is None:
        return False, None
    row_id = cache.position_of(table, key, log_key)
    if row_id is None:
        return False, None
    row = daal.read_row(store, table, key, row_id)
    writes = (row.get("RecentWrites") or {}) if row else {}
    if log_key in writes:
        cache.stats.position_hits += 1
        return True, writes[log_key]
    # The row (or the entry) is gone — GC pruned a long-dead instance's
    # log. Evict and fall back to the sound full probe.
    cache.forget_position(table, key, log_key)
    return False, None


def _fast_start(ctx, table: str, key: Any, log_key: str,
                head_extra: Optional[dict]) -> tuple[str, Any, bool]:
    """Shared write/condWrite preamble: where does the case loop start?

    Returns ``("done", outcome, False)`` when the op already executed
    (position-cache hit, or case-A found by the full probe); otherwise
    ``("row", row_id, from_cache)`` naming the first row to try. The
    cached-tail start is taken only when a position miss is trustworthy
    (:meth:`TailCache.trusts_miss` — eviction taints instances).
    """
    cache = ctx.tail_cache
    if cache is not None:
        hit, outcome = _position_replay(ctx.store, table, key, log_key,
                                        cache)
        if hit:
            return "done", outcome, False
        if cache.trusts_miss(log_key):
            entry = cache.tail_of(table, key)
            if entry is not None:
                return "row", entry.row_id, True
    status, payload = _probe_chain(ctx, table, key, log_key, head_extra)
    return status, payload, False


def _reprobe_after_vanish(ctx, table: str, key: Any, log_key: str,
                          head_extra: Optional[dict]) -> tuple[str, Any]:
    """A cache-supplied start row vanished (GC reclaimed it): evict the
    stale tail and restart from the full probe — the sound slow path.
    Same ``("done", outcome) | ("row", row_id)`` contract as
    :func:`_probe_chain`."""
    ctx.tail_cache.forget(table, key)
    return _probe_chain(ctx, table, key, log_key, head_extra)


def _probe_chain(ctx, table: str, key: Any, log_key: str,
                 head_extra: Optional[dict]) -> tuple[str, Any]:
    """Seed path: full-skeleton probe. ``('done', outcome)`` on a case-A
    hit anywhere in the chain, else ``('row', tail row id)``."""
    store = ctx.store
    cache = ctx.tail_cache
    skeleton = daal.load_skeleton(store, table, key, probe_log_key=log_key,
                                  cache=cache)
    if not skeleton.log_hits and not skeleton.exists:
        daal.ensure_head(store, table, key, extra_attrs=head_extra)
        skeleton = daal.load_skeleton(store, table, key,
                                      probe_log_key=log_key, cache=cache)
    if skeleton.log_hits:
        if cache is not None:
            hit_row = next(iter(skeleton.log_hits))
            cache.remember_position(table, key, log_key, hit_row)
        return "done", _only_hit(skeleton)
    return "row", skeleton.tail


def _extend_filled_row(ctx, tag: str, table: str, key: Any,
                       row: dict) -> None:
    """Fill-and-extend: this writer's case-B update returned ``row`` and
    that entry filled it, so append the successor now (case D, eagerly).

    The writer that fills a row is the one party that knows, without
    another read, that the next write needs a new row — and it holds
    the row's current contents and ``Version``. So it runs the one
    :func:`daal.append_row` (candidate put + version-validated CAS, no
    ``get``) before its op returns, and announces it in the tail cache
    so that the runtime's other writers of this key wait for this one
    append (:func:`_await_extension`) instead of each paying a doomed
    update, a ``get``, a candidate put and a CAS most of them lose.

    Best effort: the op has landed either way, so a store that is dark
    or throttling here (or a predecessor that vanished under the CAS —
    the one ``ConditionFailed`` :func:`daal.append_row` lets out) is not
    the op's to report; any other store error is a bug and propagates. A
    crash leaves exactly what a crashed lazy
    appender leaves, for the next writer's lazy case D: at the op's
    ``:done`` point (after the filling update, announced) a full tail
    without a successor, at ``:extend:put`` an orphan candidate too, and
    past the CAS — any later point of the handler — an empty successor
    carrying ``Value`` / ``LockOwner`` forward. One new tag, not three:
    every crash point is a draw for a probabilistic crash policy, and
    the doomed attempts this saves pay for exactly one.
    """
    cache = ctx.tail_cache
    with cache.extending(table, key, row["RowId"],
                         ctx.runtime.kernel.event("extend")) as ours:
        ctx.crash_point(f"{tag}:done")
        if not ours:
            return
        try:
            daal.append_row(
                ctx.store, table, key, row, ctx.fresh_row_id(), cache=cache,
                after_put=lambda: ctx.crash_point(f"{tag}:extend:put"))
        except (ThrottledError, UnavailableError, ConditionFailed):
            pass


def _await_extension(ctx, table: str, key: Any, row_id: str,
                     log_key: str) -> Optional[str]:
    """About to try (or just bounced off) ``row_id``: if another writer
    of this runtime is appending its successor, wait for that append.

    Returns the row to restart the case loop from — the tail the filler
    remembered — or ``None`` to carry on as if nobody had waited: no
    extension in flight, a filler that crashed or failed (the cached
    tail did not move: lazy case D), or an op whose position miss does
    not prove "never logged" (then ``row_id`` may hold its entry, and
    the loop's own read of it must decide case A). Skipping ``row_id``
    is the same inference :func:`_fast_start` makes when it starts at
    the cached tail.
    """
    cache = ctx.tail_cache
    done = (cache.extension_of(table, key, row_id)
            if cache is not None else None)
    if done is None:
        return None
    cache.stats.extension_waits += 1
    ctx.runtime.kernel.wait(done)
    entry = cache.peek_tail(table, key)
    if (entry is None or entry.row_id == row_id
            or not cache.trusts_miss(log_key)
            or cache.position_of(table, key, log_key) is not None):
        return None
    return entry.row_id


def _landed(ctx, tag: str, table: str, key: Any, row: dict,
            log_key: str) -> None:
    """A case-B update just returned ``row``: in that same scheduling
    step pin the entry's position and, if it filled the row (only the
    fast path looks), announce the extension — no writer can meet the
    full row unannounced. ``:done`` is the op's crash point either way."""
    cache = ctx.tail_cache
    if cache is not None:
        cache.note_logged_write(table, key, row["RowId"], log_key)
        if len(row["RecentWrites"]) >= ctx.config.row_log_capacity:
            _extend_filled_row(ctx, tag, table, key, row)
            return
    ctx.crash_point(f"{tag}:done")


def _lazy_append(ctx, table: str, key: Any, row: dict) -> str:
    """Case D in its lazy form: ``row`` is a full tail nobody extended
    (its filler crashed, or wrote without the fast path)."""
    cache = ctx.tail_cache
    if cache is not None:
        cache.stats.lazy_appends += 1
    return daal.append_row(ctx.store, table, key, row, ctx.fresh_row_id(),
                           cache=cache)


def _logged_write(ctx, tag: str, table: str, key: Any, log_key: str,
                  attempts: Sequence[tuple],
                  head_extra: Optional[dict]) -> Any:
    """The one case loop (Figs. 6/7 and 17/18): land ``log_key`` in the
    item's chain exactly once and return its logged outcome.

    ``attempts`` is the ordered ``(outcome, updates, condition)`` list
    tried on each candidate tail — case B. A write has one entry; a
    conditional write has two, B1 (user condition holds) then B2 (record
    ``False``). The serialization point is the first attempt: recording
    ``False`` after it is valid even if the user condition has become
    true since (Appendix A). ``tag`` (``write:<step>`` /
    ``condwrite:<step>``) prefixes the crash points.
    """
    store = ctx.store
    cache = ctx.tail_cache
    ctx.crash_point(f"{tag}:start")
    status, payload, from_cache = _fast_start(ctx, table, key, log_key,
                                              head_extra)
    if status == "done":
        return payload  # case A
    row_id = payload
    for _ in range(_MAX_CHAIN_STEPS):
        ctx.crash_point(f"{tag}:try:{row_id}")
        moved = _await_extension(ctx, table, key, row_id, log_key)
        if moved is None:
            for outcome, updates, condition in attempts:
                try:
                    row = store.update(table, (key, row_id), updates,
                                       condition=condition, return_new=True)
                except ConditionFailed:
                    continue
                _note(ctx, landed=[row["RowId"], row["Version"]])
                _landed(ctx, tag, table, key, row, log_key)
                return outcome  # case B (B1 / B2)
            moved = _await_extension(ctx, table, key, row_id, log_key)
        if moved is not None:
            row_id, from_cache = moved, True
            continue
        row = daal.read_row(store, table, key, row_id)
        if row is None:
            if not from_cache:
                raise BeldiError(f"row {row_id} vanished during {tag}")
            from_cache = False
            status, payload = _reprobe_after_vanish(
                ctx, table, key, log_key, head_extra)
            if status == "done":
                return payload
            row_id = payload
            continue
        from_cache = False
        writes = row.get("RecentWrites") or {}
        if log_key in writes:
            if cache is not None:
                cache.remember_position(table, key, log_key, row_id)
            return writes[log_key]  # case A
        if "NextRow" not in row:
            row_id = _lazy_append(ctx, table, key, row)  # case D
        else:
            row_id = row["NextRow"]  # case C
    raise BeldiError(f"{tag} did not terminate; chain unreasonably long")


def write_op(ctx, table: str, key: Any, value: Any,
             head_extra: Optional[dict] = None) -> None:
    """Unconditional exactly-once write of ``Value``."""
    flush_read_log(ctx)
    step = ctx.next_step()
    with ctx.trace("op.write", span_id=f"{ctx.instance_id}#{step}",
                   step=step, table=table, key=key):
        log_key = encode(ctx.instance_id, step)
        case_b = daal.case_b_condition(log_key, ctx.config.row_log_capacity)
        _logged_write(
            ctx, f"write:{step}", table, key, log_key,
            [(True, [Set("Value", value),
                     *_log_write_updates(log_key, True)], case_b)],
            head_extra)


# ---------------------------------------------------------------------------
# conditional write (Fig. 17)
# ---------------------------------------------------------------------------

def cond_write_op(ctx, table: str, key: Any,
                  condition: Condition,
                  value: Any = None,
                  set_value: bool = True,
                  extra_updates: Sequence[UpdateAction] = (),
                  head_extra: Optional[dict] = None) -> bool:
    """Exactly-once conditional write; returns the condition's outcome.

    With ``set_value`` the success path sets ``Value``; lock acquisition
    and release instead pass ``extra_updates`` mutating ``LockOwner``
    (§6.1 stores lock ownership in the same rows, logged the same way).
    The logged outcome (True/False) is what replays return — including the
    B2 path that merely records a false condition.
    """
    flush_read_log(ctx)
    step = ctx.next_step()
    with ctx.trace("op.cond_write", span_id=f"{ctx.instance_id}#{step}",
                   step=step, table=table, key=key):
        log_key = encode(ctx.instance_id, step)
        case_b = daal.case_b_condition(log_key, ctx.config.row_log_capacity)
        success_updates: list[UpdateAction] = []
        if set_value:
            success_updates.append(Set("Value", value))
        success_updates.extend(extra_updates)
        success_updates.extend(_log_write_updates(log_key, True))
        return bool(_logged_write(
            ctx, f"condwrite:{step}", table, key, log_key,
            [(True, success_updates, And(condition, case_b)),
             (False, _log_write_updates(log_key, False), case_b)],
            head_extra))


def _only_hit(skeleton: daal.Skeleton) -> bool:
    outcome = next(iter(skeleton.log_hits.values()))
    return bool(outcome)
