"""The Beldi runtime: SSF registration and the instance lifecycle.

``BeldiRuntime`` wires the substrates together (kernel, store, platform)
and wraps every registered SSF handler with the protocol from §3.3/§4.5:

1. resolve the instance id (caller-assigned, or the platform request id
   for workflow roots) and ensure the intent record — with the
   ``async_io`` feature a sync callee outside a transaction puts it
   beside its first reads and joins the put at its first effect
   frontier (``docs/async_io.md``, "Speculative callee open"),
2. short-circuit if the intent is already done (step 4 with the stored
   result: the caller is answered, then called back again),
3. run the user handler with a :class:`BeldiContext` — every operation
   inside replays from logs on re-execution — and flush its read log:
   from here any replay is bound to return the same value,
4. deliver that value to a synchronous caller: **reply** to the waiting
   invocation (``InvocationContext.respond``), *then* record it in the
   caller's invoke log through the callback, and only then
5. mark the intent done.

§4.5 orders 4's callback before 5 — a ``Done`` callee may be garbage
collected, and a caller that never saw the result would run it twice —
and calls the direct reply "merely an optimization". Nothing orders the
callback before the *reply*, so with the ``async_io`` feature the reply
goes first and callback + ``Done`` run as a tail off the caller's
critical path; the worker keeps its slot, its timeout and its crash
points (``reply:sent``, ``callback:done``, ``done:marked``) until it
exits. A caller that consumed a reply whose callback never landed
replays into :func:`repro.core.invoke.complete_invoke`'s existing path:
same callee id, same answer. Without the feature (``paper``,
``without="async_io"``) the reply is the worker's exit, after 5.

The same wrapper dispatches the auxiliary message kinds: synchronous and
asynchronous callbacks, async registrations (Fig. 20), and transaction
Commit/Abort signals (§6.2).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.core import intents, invoke, ops
from repro.core.config import BeldiConfig
from repro.core.context import BeldiContext, trace
from repro.core.env import BeldiEnv
from repro.core.errors import TxnAborted
from repro.core.tailcache import TailCache
from repro.core.txn import (
    ABORT,
    COMMIT,
    TxnContext,
    resolve_and_propagate,
)
from repro.kvstore import (
    KVStore,
    KernelTimeSource,
    ReplicaGroup,
    ReplicatedStore,
    ShardedStore,
)
from repro.kvstore.faults import FaultTimeline
from repro.kvstore.item import freeze_value
from repro.kvstore.surface import layers
from repro.platform import PlatformConfig, ServerlessPlatform
from repro.platform.context import InvocationContext
from repro.sim.kernel import Process, SimKernel
from repro.sim.latency import LatencyModel
from repro.sim.randsrc import RandomSource

UserHandler = Callable[[BeldiContext, Any], Any]

#: In-worker replays of one execution after lost read-log flushes
#: (``ops.ReadLogLost``) before it dies like the crash it stands for.
_MAX_READ_LOG_ROLLBACKS = 3


@dataclass
class SSFDefinition:
    name: str
    handler: UserHandler
    env: BeldiEnv


class BeldiRuntime:
    """Wires kernel + store + platform and hosts SSFs."""

    def __init__(self, kernel: Optional[SimKernel] = None,
                 seed: int = 0,
                 latency_scale: float = 0.0,
                 config: Optional[BeldiConfig] = None,
                 platform_config: Optional[PlatformConfig] = None,
                 store: Optional[KVStore] = None,
                 platform: Optional[ServerlessPlatform] = None,
                 shards: int = 1,
                 shard_capacity: Optional[int] = None,
                 replicas: int = 1,
                 replication_lag_scale: float = 1.0,
                 fault_timeline: Optional[FaultTimeline] = None,
                 observability: bool = False,
                 env_prefix: str = "") -> None:
        """``shards > 1`` partitions storage across that many simulated
        store nodes behind a :class:`~repro.kvstore.ShardedStore` — each
        node with its own latency stream, fault domain, metering, and
        (with ``shard_capacity``) bounded service parallelism. With the
        ``elastic`` feature (:class:`BeldiConfig`) the runtime also
        watches per-shard load on the store it built and live-migrates
        hot DAAL chains (``docs/sharding.md``). The default is the
        seed's single store; an explicit ``store`` overrides the knobs,
        and a runtime handed its store builds no elasticity controller
        — the store's builder owns the one controller.

        ``replicas > 1`` wraps every shard in a
        :class:`~repro.kvstore.ReplicaGroup` of one leader plus
        ``replicas - 1`` followers behind a
        :class:`~repro.kvstore.ReplicatedStore`: writes log-ship to
        followers with bounded lag (``replication_lag_scale`` scales the
        sampled ``repl.ship`` delay; ``0.0`` makes followers current),
        and eventually consistent reads route to followers at DynamoDB's
        half-price read rate. ``replicas=1`` (default) builds exactly
        the unreplicated store — bit-for-bit the prior behavior.

        Every runtime installs one
        :class:`~repro.kvstore.faults.FaultTimeline` on every store node
        and replica group and keeps it as :attr:`fault_timeline`:
        ``fault_timeline`` when given, else the handed-in ``store``'s
        own, else an empty one — bit-for-bit invisible until a window is
        appended to it (always-on throttling, spikes and leader crashes;
        scripted outages, partitions, gray nodes and error bursts).

        ``observability`` (default *off*) is virtual-time tracing: nested
        spans (request → step → op → store round trip, plus txn and GC
        passes) and instant events (lifecycle, lock, 2PC, read-log
        rollback, GC pass, failover, migration, crash/interleave)
        stamped with kernel time, and one snapshot of the stack's native
        stats — every count in one home (``repro.obs``,
        ``docs/observability.md``). Pure recording: no virtual time, no
        store traffic, no randomness — behavior is identical either way,
        the off-state never constructs the observability objects at all,
        and the same seed + schedule exports a byte-identical trace.
        """
        self.kernel = kernel or SimKernel(seed=seed)
        self.rand = RandomSource(seed, "beldi")
        self.config = config or BeldiConfig()
        async_io = self.config.has_async_io
        latency = LatencyModel(self.rand.child("latency"),
                               scale=latency_scale)
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if replicas < 1:
            raise ValueError(f"need at least one replica, got {replicas}")

        def build_node(i: int, suffix: str = "") -> KVStore:
            return KVStore(
                time_source=KernelTimeSource(self.kernel),
                latency=LatencyModel(
                    self.rand.child(f"latency-shard{i}{suffix}"),
                    scale=latency_scale),
                rand=self.rand.child(f"store-shard{i}{suffix}"),
                shard_id=i, capacity=shard_capacity)

        if store is not None:
            self.store = store
        elif replicas > 1:
            groups = []
            for i in range(shards):
                leader = build_node(i)
                followers = [build_node(i, suffix=f"r{j}")
                             for j in range(1, replicas)]
                # The group's own latency model (repl.ship lag,
                # repl.failover cost) runs at scale 1 regardless of the
                # global latency_scale: replication lag is a property of
                # the subsystem, toggled by replication_lag_scale alone,
                # so zero-latency test runtimes still exhibit real
                # staleness and failover windows.
                groups.append(ReplicaGroup(
                    leader, followers,
                    rand=self.rand.child(f"repl-shard{i}"),
                    latency=LatencyModel(
                        self.rand.child(f"repl-latency-shard{i}")),
                    lag_scale=replication_lag_scale,
                    async_io=async_io))
            self.store = ReplicatedStore(groups, async_io=async_io)
        elif shards > 1:
            self.store = ShardedStore(
                [build_node(i) for i in range(shards)], async_io=async_io)
        else:
            self.store = KVStore(
                time_source=KernelTimeSource(self.kernel),
                latency=latency, rand=self.rand.child("store"),
                capacity=shard_capacity)
        if fault_timeline is None:
            fault_timeline = getattr(self.store, "timeline", None)
        if fault_timeline is None:
            fault_timeline = FaultTimeline()
        # Every layer that consults it: leaf nodes (outages, bursts,
        # gray) and replica groups (leader crashes, partitions).
        for layer in layers(self.store):
            layer.timeline = fault_timeline
        self.fault_timeline = fault_timeline
        #: §4.4 fast path: chain-position memory shared by every SSF this
        #: runtime hosts. Always constructed; only with the ``fastpath``
        #: feature is it handed to the envs, whose ``tail_cache`` is
        #: what every layer consults.
        self.tail_cache = TailCache()
        #: Hot-shard elasticity (docs/sharding.md): a detector+migrator
        #: pair on the multi-shard store this runtime built. ``None``
        #: without the feature, with nothing to balance, or on a store
        #: handed in (its builder's controller is the only one) — every
        #: elastic hook then costs one attribute check.
        self.elasticity = None
        if (self.config.has_elastic and store is None
                and isinstance(self.store, ShardedStore)
                and self.store.n_shards > 1):
            from repro.kvstore.rebalance import (ChainMigrator,
                                                 ElasticityController)
            # A moved chain starts cold on purpose: the cached row ids
            # stay valid (the copy is verbatim and routing follows the
            # forward), but the next operation re-validates placement
            # through a full probe rather than trusting memory across a
            # reshard.
            migrator = ChainMigrator(self.store, async_io=async_io,
                                     on_moved=self.tail_cache.note_migrated)
            self.elasticity = ElasticityController(
                self.store, migrator,
                check_every=self.config.elastic_check_every,
                min_window=self.config.elastic_min_window,
                load_ratio=self.config.elastic_load_ratio,
                max_moves=self.config.elastic_max_moves,
                tolerance=self.config.elastic_tolerance)
        #: Virtual-time tracing + metrics (``repro.obs``). ``None`` when
        #: the flag is off — every hook then costs one attribute check.
        #: Runtimes sharing one store (the concurrent DST harness) share
        #: one :class:`~repro.obs.Observability`, so the trace
        #: interleaves all of them on the one kernel clock.
        self.obs = None
        if observability:
            from repro.obs import Observability
            self.obs = self.store.obs or Observability(self.kernel)
            self.obs.attach_store(self.store)
            if self.kernel.tracer is None:
                self.kernel.tracer = self.obs.tracer
        #: Retry/backoff/deadline/breaker layer (``repro.resilience``).
        #: ``None`` without the feature; otherwise one shared
        #: :class:`~repro.resilience.ResilienceState` plus one shared
        #: :class:`~repro.resilience.ResilientStore` facade handed to
        #: every env this runtime creates. ``runtime.store`` stays the
        #: *raw* store — benches, elasticity, and observability attach
        #: beneath the wrapper.
        self.resilience = None
        self._resilient_store = None
        if self.config.has_resilience:
            from repro.resilience import (ResilienceState, ResilientStore,
                                          RetryPolicy)
            self.resilience = ResilienceState(
                self.kernel, self.rand.child("resilience"),
                RetryPolicy(self.config.retry_max_attempts,
                            self.config.retry_base_backoff),
                breaker_threshold=self.config.breaker_threshold,
                breaker_cooldown=self.config.breaker_cooldown,
                obs=self.obs)
            self._resilient_store = ResilientStore(self.store,
                                                   self.resilience)
        self.platform = platform or ServerlessPlatform(
            self.kernel, rand=self.rand.child("platform"),
            latency=latency, config=platform_config)
        self._ids = self.rand.child("ids")
        #: Prepended to every env's *storage* name (never to SSF names).
        #: Lets several runtimes share one store without their
        #: same-named envs adopting each other's intent/log tables —
        #: the concurrent DST harness hosts travel + movie this way.
        self.env_prefix = env_prefix
        self.envs: dict[str, BeldiEnv] = {}
        self.ssfs: dict[str, SSFDefinition] = {}
        self.collector_handles: list[dict] = []
        #: Locally resolved intents: instance id -> ``(ret, caller)``.
        #: Lets re-delivered/duplicate invocations skip the intent-table
        #: read entirely. Only ever populated *after* mark_done succeeds,
        #: so a cache hit implies the store agrees the work is complete.
        self._intent_cache: dict[str, tuple] = {}
        self._intent_cache_limit = 4096

    # -- identities ----------------------------------------------------------
    def fresh_uuid(self) -> str:
        return self._ids.uuid()

    # -- registration ----------------------------------------------------------
    def create_env(self, name: str, tables: Iterable[str] = (),
                   storage_mode: str = "daal") -> BeldiEnv:
        """Create a sovereignty domain (one intent/log/table set, §2.2)."""
        if name in self.envs:
            raise ValueError(f"env {name!r} already exists")
        # Envs see the resilient facade (when there is one); the raw
        # store stays at ``runtime.store`` for benches and substrates.
        env_store = self._resilient_store or self.store
        env = BeldiEnv(env_store, self.config, self.env_prefix + name,
                       tables, storage_mode=storage_mode,
                       tail_cache=(self.tail_cache
                                   if self.config.has_fastpath else None))
        self.envs[name] = env
        return env

    def register_ssf(self, name: str, handler: UserHandler,
                     env: Optional[BeldiEnv] = None,
                     tables: Iterable[str] = (),
                     storage_mode: str = "daal") -> SSFDefinition:
        """Register an SSF; creates a private env unless one is shared."""
        if env is None:
            env = self.create_env(name, tables, storage_mode=storage_mode)
        ssf = SSFDefinition(name, handler, env)
        self.ssfs[name] = ssf
        self.platform.register(name, self._make_platform_handler(ssf))
        return ssf

    # -- collectors -----------------------------------------------------------------
    def start_collectors(self, ic_period: float = 60_000.0,
                         gc_period: float = 60_000.0,
                         envs: Optional[Iterable[BeldiEnv]] = None) -> None:
        """Register and schedule the IC/GC pair for each env (§3.3, §5)."""
        from repro.core.collector import make_intent_collector
        from repro.core.gc import make_garbage_collector
        for env in (envs if envs is not None else self.envs.values()):
            ic_name = f"{env.name}.ic"
            gc_name = f"{env.name}.gc"
            if not self.platform.is_registered(ic_name):
                self.platform.register(
                    ic_name, make_intent_collector(self, env))
                self.platform.register(
                    gc_name, make_garbage_collector(self, env))
            self.collector_handles.append(
                self.platform.add_timer(ic_name, ic_period))
            self.collector_handles.append(
                self.platform.add_timer(gc_name, gc_period))

    def stop_collectors(self) -> None:
        self.platform.stop_timers()

    # -- client entry ------------------------------------------------------------------
    def client_call(self, ssf_name: str, payload: Any = None) -> Any:
        """Issue a workflow request through the gateway (from a process)."""
        return self.platform.client_request(
            ssf_name, {"kind": "call", "input": payload})

    def run_workflow(self, ssf_name: str, payload: Any = None,
                     until: Optional[float] = None) -> Any:
        """Drive the kernel through one client request (test/demo sugar)."""
        box: dict[str, Any] = {}

        def client() -> None:
            box["result"] = self.client_call(ssf_name, payload)

        proc = self.kernel.spawn(client, name="client")
        self.kernel.run(until=until)
        if proc.error is not None:
            raise proc.error
        return box.get("result")

    # -- the instance lifecycle -----------------------------------------------------------
    def _make_platform_handler(self, ssf: SSFDefinition):
        def handler(platform_ctx: InvocationContext, payload: Any) -> Any:
            payload = payload or {}
            kind = payload.get("kind", "call")
            if kind == "call":
                return self._handle_call(ssf, platform_ctx, payload)
            if kind == "sync_callback":
                return self._handle_callback(ssf, platform_ctx, payload,
                                             payload.get("result"))
            if kind == "async_callback":
                return self._handle_callback(ssf, platform_ctx, payload,
                                             invoke.ASYNC_ACK)
            if kind == "async_register":
                return self._handle_async_register(ssf, platform_ctx,
                                                   payload)
            if kind == "txn_signal":
                return self._handle_txn_signal(ssf, platform_ctx, payload)
            raise ValueError(f"unknown payload kind {kind!r}")

        return handler

    def _remember_done(self, instance_id: str, ret: Any,
                       caller: Optional[dict]) -> None:
        """Record a locally resolved intent (bounded FIFO eviction)."""
        if not self.config.has_fastpath:
            return
        if len(self._intent_cache) >= self._intent_cache_limit:
            for stale in list(self._intent_cache)[
                    :self._intent_cache_limit // 2]:
                del self._intent_cache[stale]
        self._intent_cache[instance_id] = (ret, caller)

    def _handle_call(self, ssf: SSFDefinition,
                     platform_ctx: InvocationContext, payload: dict) -> Any:
        if self.obs is None:
            return self._run_call(ssf, platform_ctx, payload,
                                  platform_ctx.respond)
        instance_id = payload.get("instance_id") or platform_ctx.request_id
        caller = payload.get("caller")
        tracer = self.obs.tracer
        # A sync callee's execution up to its reply sits inside the
        # caller's invoke-step span; the two run on different worker
        # threads, so the edge is an explicit parent reference, not
        # stack nesting. It is also what joins the platform's ``start``
        # and ``consumed`` events for this invocation to that step.
        parent = (f"{caller['instance_id']}#{caller['step']}"
                  if caller and not payload.get("async") else None)
        with contextlib.ExitStack() as spans:
            spans.enter_context(tracer.span(
                f"request:{ssf.name}", cat="request", span_id=instance_id,
                parent_id=parent, function=ssf.name,
                invocation=platform_ctx.invocation_index,
                request=platform_ctx.request_id,
                txn=bool(payload.get("txn"))))

            def reply(result: Any) -> None:
                # The caller's step span ends at the reply, so the
                # request span does too; what follows is off the
                # critical path and gets a row (and a root) of its own.
                platform_ctx.respond(result)
                platform_ctx.lifecycle("reply", instance=instance_id)
                spans.close()
                spans.enter_context(tracer.span(
                    f"tail:{ssf.name}", cat="request",
                    span_id=f"{instance_id}#tail", function=ssf.name,
                    invocation=platform_ctx.invocation_index))

            return self._run_call(ssf, platform_ctx, payload, reply)

    def _run_call(self, ssf: SSFDefinition,
                  platform_ctx: InvocationContext, payload: dict,
                  reply: Callable[[Any], None]) -> Any:
        if (self.resilience is None
                or self.config.request_deadline is None):
            return self._run_call_body(ssf, platform_ctx, payload, reply)
        # Per-request budget, measured from *this* invocation's start —
        # an IC re-run gets a fresh budget, so recovery always finishes
        # and exactly-once is never sacrificed to the deadline.
        token = self.resilience.push_deadline(
            self.kernel.now + self.config.request_deadline)
        try:
            return self._run_call_body(ssf, platform_ctx, payload, reply)
        finally:
            self.resilience.pop_deadline(token)

    def _run_call_body(self, ssf: SSFDefinition,
                       platform_ctx: InvocationContext,
                       payload: dict,
                       reply: Callable[[Any], None]) -> Any:
        env = ssf.env
        instance_id = payload.get("instance_id") or platform_ctx.request_id
        is_async = bool(payload.get("async"))
        caller = payload.get("caller")
        txn_payload = payload.get("txn")
        # Intent-status fast path (the cache only fills with the
        # ``fastpath`` feature): this runtime already saw the instance
        # complete, so the duplicate delivery can be answered (and the
        # caller re-notified) without touching the store.
        cached = self._intent_cache.get(instance_id)
        if cached is not None:
            self.tail_cache.stats.intent_hits += 1
            if is_async:
                return None
            platform_ctx.lifecycle("intent", instance=instance_id)
            ret, done_caller = cached
            self._deliver(platform_ctx, reply, done_caller, instance_id,
                          ret)
            return ret
        opening = None
        if is_async:
            # Fig. 20 stub: run only if registered and unfinished.
            intent = intents.get_intent(env, instance_id)
            if intent is None or intent.get("Done"):
                return None
            platform_ctx.lifecycle("intent", instance=instance_id)
            # The intent was written at registration, so "created" says
            # nothing here; an IC relaunch is what marks a replay. A
            # duplicate that slips through this guess (the caller's own
            # replay re-fires the stub) is still caught at its first
            # flush, which loses to the logged row and rolls back.
            replay = intents.relaunched(intent)
            created = False
        else:
            intent = intents.draft_intent(
                instance_id, ssf.name, payload.get("input"),
                self.kernel.now, is_async, caller, txn_payload)
            if (caller is not None and txn_payload is None
                    and self.config.has_async_io):
                # Speculative open: the put runs beside the handler's
                # first reads and is joined at its first effect frontier.
                opening = intents.put_beside(self, env, intent)
                created = True
            else:
                intent, created = intents.put_intent(env, intent)
                platform_ctx.lifecycle("intent", instance=instance_id)
                if intent.get("Done"):
                    return self._answer_done(platform_ctx, reply,
                                             instance_id, intent)
            replay = not created
        if opening is None:
            platform_ctx.crash_point("intent:ensured")
        rollbacks = 0
        while True:
            try:
                ret, aborted = self._run_handler(
                    ssf, platform_ctx, instance_id, intent,
                    replay or rollbacks > 0, created and not rollbacks,
                    opening)
                break
            except intents.IntentFound as found:
                # The speculative open lost to an earlier execution's
                # intent. Only a first run speculates, so this happens
                # once at most and does not count toward the bound.
                intent, opening = found.record, None
                replay, created = True, False
                if intent.get("Done"):
                    return self._answer_done(platform_ctx, reply,
                                             instance_id, intent)
                self._note_rollback(instance_id)
            except ops.ReadLogLost:
                # A duplicate logged other values for a run this
                # execution had not shown anyone yet. Roll back: start
                # over as the replay a crash would have caused, minus the
                # wait. Past the bound it *is* that crash, and the
                # caller's retry loop or the IC re-runs the instance.
                rollbacks += 1
                if rollbacks > _MAX_READ_LOG_ROLLBACKS:
                    raise
                self._note_rollback(instance_id)
                # The stored record, not the one the handler was handed
                # (and may have mutated in place).
                intent = intents.get_intent(env, instance_id) or intent
        # The read log is flushed: any replay is now bound to this value.
        # Frozen once: the same object becomes the reply, the caller's
        # invoke-log ``Result`` and this intent's ``Ret``, so a callee's
        # result is read-only to its caller.
        result = freeze_value(invoke.wrap_result(ret, aborted))[0]
        effective_caller = intent.get("Caller") or caller
        if effective_caller and not is_async:
            self._deliver(platform_ctx, reply, effective_caller,
                          instance_id, result)
            platform_ctx.crash_point("callback:done")
        intents.mark_done(env, instance_id, result)
        platform_ctx.lifecycle("done", instance=instance_id)
        self._remember_done(instance_id, result, effective_caller)
        platform_ctx.crash_point("done:marked")
        return result

    def _answer_done(self, platform_ctx: InvocationContext,
                     reply: Callable[[Any], None], instance_id: str,
                     intent: dict) -> Any:
        """Late duplicate: the work is complete; make sure the caller
        has the result."""
        ret = intent.get("Ret")
        self._remember_done(instance_id, ret, intent.get("Caller"))
        self._deliver(platform_ctx, reply, intent.get("Caller"),
                      instance_id, ret)
        return ret

    def _note_rollback(self, instance_id: str) -> None:
        if self.obs is not None:
            self.obs.tracer.event("readlog:rollback", cat="readlog",
                                  instance=instance_id)

    def _run_handler(self, ssf: SSFDefinition,
                     platform_ctx: InvocationContext, instance_id: str,
                     intent: dict, replay: bool, first_execution: bool,
                     opening: Optional[Process] = None) -> tuple[Any, bool]:
        """One execution of the handler, up to the point where its
        result is about to be observable: ``(return value, aborted)``.
        ``first_execution``: it created the intent and was not rolled
        back, so no earlier execution logged anything (stricter than
        ``not replay``, which for an async stub is only a guess).
        ``opening``: the intent put still in flight, presumed to create
        the intent until the first frontier joins it."""
        stored_txn = intent.get("Txn")
        txn_ctx = (TxnContext.from_payload(stored_txn)
                   if stored_txn else None)
        ctx = BeldiContext(self, ssf.name, ssf.env, platform_ctx,
                           instance_id, intent, txn=txn_ctx,
                           read_log={} if self.config.has_async_io else None,
                           first_execution=first_execution)
        ctx.opening = opening
        if ctx.read_log is not None and replay:
            # Replay loads the log: an earlier execution may have logged
            # reads already, and those steps answer from memory.
            with ctx.trace("op.read_load"):
                ctx.read_log = ops.logged_reads(ssf.env, instance_id)
        aborted = False
        try:
            ret = ssf.handler(ctx, intent.get("Args"))
        except TxnAborted:
            # A non-owner dying under wait-die: report the abort
            # outcome to the caller; the owning SSF coordinates the
            # rollback.
            aborted = True
            ret = None
        except Exception:
            # An error ahead of the first frontier may rest on reads the
            # intent-first order never made: the open is joined first,
            # and one that lost starts over from the intent found.
            if ctx.opening is not None:
                ops.join_intent(ctx)
            raise
        platform_ctx.crash_point("body:done")
        # The result is about to be observable (callback, Done): the
        # reads it rests on become durable first, abort outcome included.
        ops.flush_read_log(ctx)
        return ret, aborted

    def _deliver(self, platform_ctx: InvocationContext,
                 reply: Callable[[Any], None], caller: Optional[dict],
                 callee_id: str, result: Any) -> None:
        """Get a sync callee's fixed result to its caller: the direct
        reply first, then the callback into the caller's invoke log
        (at-least-once) — which is what must land before ``Done``.

        §4.5 orders callback before ``Done``; nothing orders it before
        the reply, so with ``async_io`` the waiting caller resumes now
        and the callback round trip runs beside it. Without the feature
        the reply is the worker's exit, as in the paper.
        """
        if not caller:
            return
        if self.config.has_async_io:
            reply(result)
            platform_ctx.crash_point("reply:sent")
        payload = {
            "kind": "sync_callback",
            "log_instance": caller["instance_id"],
            "log_step": caller["step"],
            "callee_id": callee_id,
            "result": result,
        }
        self._retry_invoke(platform_ctx, caller["ssf"], payload)

    def _retry_invoke(self, platform_ctx: InvocationContext, target: str,
                      payload: dict) -> Any:
        return invoke.at_least_once(
            platform_ctx, self.config,
            lambda: platform_ctx.sync_invoke(target, payload))

    def _handle_callback(self, ssf: SSFDefinition,
                         platform_ctx: InvocationContext, payload: dict,
                         result: Any) -> str:
        # The second half of the caller's invoke step. A sync callee
        # sends it from its ``tail:`` span (after its reply, so after the
        # caller's step span closed) or, replying at exit, from its
        # ``request:`` span; an async callee's registration sends its
        # ack inside the caller's ``step.async_invoke`` span.
        callee = payload["callee_id"]
        if payload["kind"] == "async_callback":
            parent = f"{payload['log_instance']}#{payload['log_step']}"
        elif self.config.has_async_io:
            parent = f"{callee}#tail"
        else:
            parent = callee
        with trace(self.obs, f"step.callback:{ssf.name}", "step",
                   parent_id=parent, step=payload["log_step"], callee=callee):
            recorded = invoke.record_callback(
                ssf.env, ssf.env.store, payload["log_instance"],
                payload["log_step"], callee, result)
            # Recorded or ignored: either way the callee may finish (§4.5).
            platform_ctx.lifecycle("callback", callee=callee)
        return "recorded" if recorded else "ignored"

    def _handle_async_register(self, ssf: SSFDefinition,
                               platform_ctx: InvocationContext,
                               payload: dict) -> str:
        """Fig. 20 registration: log the intent, ack into the caller."""
        env = ssf.env
        instance_id = payload["instance_id"]
        caller = payload.get("caller")
        step = f"{caller['instance_id']}#{caller['step']}" if caller else None
        with trace(self.obs, f"step.register:{ssf.name}", "step",
                   parent_id=step, instance=instance_id):
            intents.put_intent(env, intents.draft_intent(
                instance_id, ssf.name, payload.get("input"),
                self.kernel.now, True, caller, None))
            platform_ctx.crash_point("async-register:intent")
            if caller:
                ack = {
                    "kind": "async_callback",
                    "log_instance": caller["instance_id"],
                    "log_step": caller["step"],
                    "callee_id": instance_id,
                }
                self._retry_invoke(platform_ctx, caller["ssf"], ack)
        return "registered"

    def _handle_txn_signal(self, ssf: SSFDefinition,
                           platform_ctx: InvocationContext,
                           payload: dict) -> str:
        """Commit/Abort arriving along a workflow edge (§6.2).

        Idempotent: resolve this SSF's local state for the transaction,
        then recurse to the callees recorded in the instance's invoke log.
        """
        env = ssf.env
        instance_id = payload["instance_id"]
        txn_payload = payload["txn"]
        mode = txn_payload.get("mode")
        if mode not in (COMMIT, ABORT):
            raise ValueError(f"bad txn_signal mode {mode!r}")
        # A minimal context (no intent bookkeeping needed: signals are
        # at-least-once and idempotent). Nothing below reads the stored
        # intent; it is fetched where the paper's handler fetches it,
        # between the two parts, so that path's store traffic is the
        # paper's.
        ctx = BeldiContext(self, ssf.name, env, platform_ctx, instance_id,
                           {"InstanceId": instance_id, "StartTime": 0.0})

        def load_intent() -> None:
            ctx.intent = intents.get_intent(env, instance_id) or ctx.intent

        # Its sender's span has no id a handler can name: a root.
        with trace(self.obs, f"txn.signal:{mode}", "txn",
                   txn=txn_payload["id"], instance=instance_id):
            resolve_and_propagate(ctx, instance_id, txn_payload,
                                  after_local=load_intent)
        return "resolved"
