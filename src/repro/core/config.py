"""Beldi configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass

PROFILES = ("current", "paper")
#: What ``without`` may ablate from the ``current`` profile.
FEATURES = ("fastpath", "async_io", "elastic", "resilience")


@dataclass
class BeldiConfig:
    """Tuning parameters for the Beldi runtime.

    profile / without:
        *Which system runs.* ``profile="current"`` (the default) is
        everything this repository has built on top of the paper's
        protocols; ``profile="paper"`` is the seed-faithful Beldi the
        paper figures (fig13/14/15/16/25/26, costs) measure. ``without``
        names at most one feature to ablate from ``current`` — the
        "full system minus one optimisation" comparison the remaining
        gates consume — and is rejected with ``paper``. That is the whole
        reachable set: ``paper``, ``current`` and four single-feature
        ablations (``docs/architecture.md`` lists what each turns on and
        which gate consumes it). The features, and the read-only
        predicate protocol code consults for each:

        ``"fastpath"`` (:attr:`has_fastpath`)
            §4.4 fast path. The tail cache remembers each item's tail
            row (and each logged operation's position) so
            reads/writes/locks go straight to the tail with one
            conditional get/update, falling back to the full skeleton
            traversal only when the cached row proves stale; the
            runtime's intent-status cache lets re-delivered instances
            skip the intent-table read once locally resolved; and N-row
            read fans (transaction commit/abort shadow-tail fetches, GC
            liveness point-checks) coalesce into single
            :meth:`~repro.kvstore.KVStore.batch_get` round trips.
            Without it: the seed's query-per-operation,
            one-get-per-row behavior exactly.
        ``"async_io"`` (:attr:`has_async_io`)
            Overlapped and batched store I/O (``docs/async_io.md``).
            Independent round trips overlap instead of serializing
            their virtual latency: the transaction commit's shadow
            flushes and lock releases fan out concurrently (pay ``max``
            instead of the sum), sharded ``batch_get``/``batch_write``
            fan-outs and the cross-shard transaction's per-shard rounds
            overlap, and replica groups ship multi-row commits as one
            batched boat per follower. Idempotent log writes coalesce
            into :meth:`~repro.kvstore.KVStore.batch_write` round trips:
            the parallel-invoke prepare phase claims its N invoke-log
            entries in one batch (callee ids derive deterministically
            from ``(instance id, step)`` so unconditional batched claims
            commute; see ``repro/core/invoke.py``), and the GC's
            log-entry, row, and lock-set deletions batch DynamoDB-style
            (25-item requests, ``UnprocessedItems`` retries).
            The read log group-commits at the **effect frontier**
            (``repro/core/ops.py``): a run of logged reads
            (``read``/``read_eventual``/``record``) buffers on the
            context and becomes durable as *one* conditional put of
            *one* row, immediately before the next write, lock, invoke
            claim, transaction begin/end, callback or ``mark_done``; a
            replay loads its log with one ``query`` and answers logged
            steps from memory, and a flush lost to a duplicate that
            logged other values rolls the execution back to replay the
            winner's. Conditional writes are still never *batched* —
            ``BatchWriteItem`` has no conditions, and the read-log row
            and the single invoke claim keep theirs, which is what
            replay determinism rests on. Overlap and claim batching are
            purely a *when*, never a *what*; the group commit writes
            fewer read-log rows (and bills fewer write units) and
            leaves every data table and every return value as they
            were. A sync callee **replies before its callback**
            (``repro/core/runtime.py``): once its read log is flushed
            its result is fixed, so the waiting caller resumes then, and
            the callback + ``mark_done`` (in §4.5's order) run beside
            it, off its critical path. ``ctx.read_many`` fetches
            independent keys with **one** ``batch_get`` of their cached
            tails and logs them as one run. Callee instance ids derive
            from ``(caller instance, step)`` on every path, which lets
            a first execution outside a transaction **open an invoke
            pipelined** (``repro/core/invoke.py``): start the callee,
            write the unchanged conditional claim while the dispatch is
            in flight, consume the reply once the claim is durable.
            A transaction's **commit/abort signals fan out**
            (``repro/core/txn.py``): an SSF starts every callee's
            signal, resolves its own shadows and locks beside them (two
            overlapped rounds — discover, then flush/release) and then
            awaits them, so phase 2 costs its slowest participant.
            Without it: the sequential, one-write-per-row model with a
            read-log put after every read, ``read_many`` as the per-key
            loop, a fresh callee id claimed before every invoke, the
            reply at worker exit and a commit that resolves locally,
            then signals one callee after the other — the paper's.
        ``"elastic"`` (:attr:`has_elastic`)
            Hot-shard elasticity (``docs/sharding.md``): a runtime that
            builds its own multi-shard store tracks per-key heat and
            per-shard routed-op counts, and when one shard's share of
            the observation window exceeds ``elastic_load_ratio`` times
            the mean, live-migrates the hottest DAAL chains (with their
            shadow twins) to underloaded shards via
            :class:`~repro.kvstore.rebalance.ChainMigrator`, installing
            forwarding entries over the hash placement. Below the trigger the
            detector is pure counter arithmetic — no randomness,
            latency, or store traffic — so a balanced (or single-shard,
            or sub-``elastic_min_window``) workload reproduces the
            static placement bit-for-bit (pinned by
            ``tests/core/test_profiles.py``). Without it: static
            rendezvous-hash placement.
        ``"resilience"`` (:attr:`has_resilience`)
            Client-side fault recovery (``repro.resilience``,
            ``docs/resilience.md``): every env's store facade gains
            bounded retries with capped exponential backoff +
            deterministic jitter for the injected-environment errors
            (``ThrottledError``, ``UnavailableError`` — both raised
            before any table effect, so retries are idempotent-safe), a
            per-endpoint circuit breaker (trip → fast-fail → half-open
            probe), per-request deadlines, and degraded reads: a strong
            ``get`` of a *data* table whose endpoint is dark (leader
            outage) is served at eventual consistency from a live
            follower instead of failing. Protocol tables (intent,
            read/invoke logs, lock sets, shadows) never degrade — the
            DAAL's correctness reads stay strong, always. The retry
            path only activates when a fault actually fires — jitter
            draws come from a dedicated ``child("resilience")`` stream —
            so a fault-free run is bit-for-bit identical either way.
            Without it: raw propagation — a single escaped throttle
            kills the request.
    row_log_capacity:
        ``N`` — max write-log entries per linked-DAAL row. In DynamoDB this
        is derived from the 400 KB row cap and the value size; it is the
        knob that turns one row into a linked list (§4.1).
    gc_t:
        ``T`` — assumed maximum lifetime of an SSF instance, in virtual ms.
        The GC only recycles logs/rows that have been done/dangling for at
        least ``T`` (§5). Derived from the platform execution timeout.
    ic_restart_delay:
        The intent collector only restarts an unfinished instance if at
        least this long has passed since it was last launched (§3.3's
        first IC optimization).
    invoke_retry_backoff / invoke_retry_limit:
        Caller-side retry schedule when a synchronous invocation fails and
        the result has not yet appeared in the invoke log.
    lock_retry_backoff / lock_retry_limit:
        Spin schedule for lock acquisition (wait-die retries in txns;
        plain waiting otherwise).
    gc_page_limit:
        Max intent-table records processed per GC run (Appendix A's
        bounded-collection refinement); ``None`` disables paging.
    read_consistency:
        Default consistency for reads that *declare* they tolerate
        bounded staleness — :meth:`BeldiContext.read_eventual` and the
        GC's first-pass intent scan. ``"strong"`` (default) keeps every
        read on the leader at full price, reproducing seed behavior
        exactly; ``"eventual"`` routes those reads to a follower (when
        the store is replicated) at DynamoDB's half-price eventual rate.
        Correctness-critical reads — the DAAL protocol, transaction
        commit, lock probes, liveness point-checks — ignore this knob
        and stay strong, always.
    elastic_check_every / elastic_min_window / elastic_load_ratio /
    elastic_max_moves / elastic_tolerance:
        Detector tuning: evaluate every N logged operations; only act
        on windows of at least ``elastic_min_window`` routed store ops
        (small workloads never trigger); trigger when the hottest
        shard exceeds ``elastic_load_ratio`` x the mean shard load;
        move at most ``elastic_max_moves`` chains per rebalance;
        ``elastic_tolerance`` is the residual per-shard overload
        :meth:`~repro.kvstore.HashRing.plan_rebalance` accepts rather
        than keep moving chains.
    observability:
        Virtual-time tracing (``repro.obs``): nested spans (request →
        step → op → store round trip, plus txn and GC passes) and
        instant events (lifecycle, lock, 2PC, read-log rollback, GC
        pass, failover, migration, crash/interleave) stamped with
        kernel time, and one
        snapshot of the stack's native stats (metering, capacity, tail
        cache, replication, resilience, elasticity) — every count in
        one home. Pure recording: no virtual time, no store traffic, no
        randomness — the simulation's behavior is identical either
        way, and with the flag **off** (the default) no observability
        object is even constructed, reproducing the pre-observability
        code paths bit-for-bit. Same seed + schedule ⇒ byte-identical
        exported trace (``docs/observability.md``).
    retry_max_attempts / retry_base_backoff:
        The retry schedule: at most ``retry_max_attempts`` tries per
        store call; attempt ``n`` backs off
        ``retry_base_backoff * 2**(n-1)`` virtual ms, capped and
        jittered by :class:`~repro.resilience.RetryPolicy`'s constants.
    breaker_threshold / breaker_cooldown:
        ``breaker_threshold`` consecutive ``UnavailableError``\\ s on one
        endpoint open its breaker; while open, calls fast-fail without
        paying a store round trip until a half-open probe succeeds
        after ``breaker_cooldown`` virtual ms.
    request_deadline:
        Per-request budget in virtual ms (``None`` = unlimited).
        Measured from each invocation's start — an IC re-run gets a
        fresh budget — and enforced at retry sleeps: a retry that would
        overshoot raises ``DeadlineExceeded`` to the client while the
        pending intent stays for the collector, so the abort is clean
        and exactly-once survives.
    """

    profile: str = "current"
    without: str | None = None
    row_log_capacity: int = 8
    gc_t: float = 60_000.0
    ic_restart_delay: float = 30_000.0
    invoke_retry_backoff: float = 20.0
    invoke_retry_limit: int = 50
    lock_retry_backoff: float = 10.0
    lock_retry_limit: int = 500
    gc_page_limit: int | None = None
    read_consistency: str = "strong"
    elastic_check_every: int = 64
    elastic_min_window: int = 2500
    elastic_load_ratio: float = 1.5
    elastic_max_moves: int = 8
    elastic_tolerance: float = 0.2
    observability: bool = False
    retry_max_attempts: int = 6
    retry_base_backoff: float = 10.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 500.0
    request_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(
                f"profile must be one of {PROFILES}, got {self.profile!r}")
        if self.without is not None and self.without not in FEATURES:
            raise ValueError(
                f"without must be None or one of {FEATURES}, "
                f"got {self.without!r}")
        if self.without is not None and self.profile != "current":
            raise ValueError(
                f"without={self.without!r} ablates one feature from "
                f"'current'; profile {self.profile!r} has none to remove")

    def _has(self, feature: str) -> bool:
        return self.profile == "current" and self.without != feature

    @property
    def has_fastpath(self) -> bool:
        return self._has("fastpath")

    @property
    def has_async_io(self) -> bool:
        return self._has("async_io")

    @property
    def has_elastic(self) -> bool:
        return self._has("elastic")

    @property
    def has_resilience(self) -> bool:
        return self._has("resilience")
