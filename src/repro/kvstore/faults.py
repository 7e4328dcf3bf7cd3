"""Store-level fault injection: throttling, latency spikes, and timelines.

These model the *environment* faults a DynamoDB client sees (throughput
throttling, tail latency), as opposed to the SSF crash faults injected by
``repro.platform.crashes``. The store itself is always durable and strongly
consistent — exactly the paper's assumption (§2.2).

Two fault models live here:

- :class:`FaultPolicy` — *probabilistic*, per-operation: each matching op
  independently draws throttles / latency spikes / leader crashes.
- :class:`FaultTimeline` — *scheduled*, virtual-time: correlated fault
  windows (a node dark for ``[start, end)``, a leader↔follower partition,
  a persistently-slow gray node, an error burst) placed at exact virtual
  times, so a nemesis test can sweep *when* a fault lands relative to the
  protocol instead of hoping a coin flip hits the window.

Both are deterministic: the policy draws from the store's seeded
:class:`~repro.sim.randsrc.RandomSource`, the timeline is a pure function
of virtual time (plus seeded draws for burst error rates < 1).
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.sim.randsrc import RandomSource


@dataclass
class FaultPolicy:
    """Probabilistic fault model applied per store operation.

    throttle_probability:
        Chance an operation raises :class:`ThrottledError` before running.
    spike_probability / spike_multiplier:
        Chance an operation's latency is multiplied (tail injection).
    only_ops:
        When set, the policy only applies to these facade operation names
        (``"db.read"``, ``"db.batch_read"``, ``"db.query"``, ...). Lets
        tests target one operation kind — e.g. throttle batched reads as
        whole batches while leaving point reads untouched. ``None``
        applies to everything.
    only_shards:
        When set, the policy only applies to store nodes with these
        ``shard_id`` values — a *per-shard fault domain*: one sick shard
        of a :class:`~repro.kvstore.sharding.ShardedStore` throttles or
        spikes while its siblings serve normally. A node with no shard id
        (an unsharded store) is unaffected by a shard-scoped policy.
    leader_crash_probability:
        Chance that a *leader-routed* operation (any write, and any
        strongly consistent read) arriving at a
        :class:`~repro.kvstore.replication.ReplicaGroup` finds its leader
        crashed. The group then fails over — promoting the most
        caught-up follower and replaying the unacked replication-log
        suffix — before serving the operation on the new leader.
        Meaningless (ignored) on an unreplicated node: the store
        substrate itself stays durable, per §2.2. Scope with ``only_ops``
        / ``only_shards`` like every other fault.

    A batched operation (``batch_get``, ``batch_write``) consults the
    policy **once per batch**, not once per row: one draw throttles or
    spikes the whole round trip, which is exactly how a provider-side
    throttle behaves. A throttled batch is *partially* served,
    DynamoDB-style: the store processes a prefix and reports the rest
    as unprocessed (see :meth:`~repro.kvstore.KVStore.batch_get` /
    :meth:`~repro.kvstore.KVStore.batch_write`).
    """

    throttle_probability: float = 0.0
    spike_probability: float = 0.0
    spike_multiplier: float = 10.0
    only_ops: Optional[frozenset] = None
    only_shards: Optional[frozenset] = None
    leader_crash_probability: float = 0.0

    @classmethod
    def for_ops(cls, ops: Iterable[str], **kwargs) -> "FaultPolicy":
        return cls(only_ops=frozenset(ops), **kwargs)

    @classmethod
    def for_shards(cls, shards: Iterable[int], **kwargs) -> "FaultPolicy":
        return cls(only_shards=frozenset(shards), **kwargs)

    def applies_to(self, op: str, shard: Optional[int] = None) -> bool:
        if self.only_ops is not None and op not in self.only_ops:
            return False
        if self.only_shards is not None and shard not in self.only_shards:
            return False
        return True

    def should_throttle(self, rand: RandomSource, op: str = "",
                        shard: Optional[int] = None) -> bool:
        if not self.applies_to(op, shard):
            return False
        return (self.throttle_probability > 0
                and rand.random() < self.throttle_probability)

    def should_crash_leader(self, rand: RandomSource, op: str = "",
                            shard: Optional[int] = None) -> bool:
        if not self.applies_to(op, shard):
            return False
        return (self.leader_crash_probability > 0
                and rand.random() < self.leader_crash_probability)

    def latency_multiplier(self, rand: RandomSource, op: str = "",
                           shard: Optional[int] = None) -> float:
        if not self.applies_to(op, shard):
            return 1.0
        if self.spike_probability > 0 and rand.random() < (
                self.spike_probability):
            return self.spike_multiplier
        return 1.0


NO_FAULTS: Optional[FaultPolicy] = None


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault: ``kind`` active for virtual ``[start, end)``.

    kind:
        ``"outage"`` — matching ops raise ``UnavailableError``.
        ``"partition"`` — replication shipping from the leader stalls;
        records become visible on followers only after the window heals
        (lag grows without bound during the window, then converges).
        ``"gray"`` — matching ops pay ``multiplier`` × latency,
        persistently, not probabilistically (the classic slow-but-alive
        node no probe marks dead).
        ``"error_burst"`` — matching ops are throttled with probability
        ``error_rate`` for the duration of the window.
    only_ops / only_shards:
        Same scoping as :class:`FaultPolicy` — facade op names and node
        ``shard_id`` values. ``None`` matches everything.
    role:
        ``"leader"`` / ``"follower"`` restricts the window to replica
        nodes serving that role (roles are endpoint-static: failover
        swaps table *contents*, not nodes). A window with a role still
        applies to nodes with no role (an unsharded or unreplicated
        store is its own leader); a node's role only excludes windows
        scoped to the *other* role.
    """

    kind: str
    start: float
    end: float
    only_ops: Optional[frozenset] = None
    only_shards: Optional[frozenset] = None
    role: Optional[str] = None
    multiplier: float = 1.0
    error_rate: float = 1.0

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def applies_to(self, op: str, shard: Optional[int] = None,
                   role: Optional[str] = None) -> bool:
        if self.only_ops is not None and op not in self.only_ops:
            return False
        if self.only_shards is not None and shard not in self.only_shards:
            return False
        if self.role is not None and role is not None and role != self.role:
            return False
        return True


def _scope(shards, ops) -> dict:
    """Normalize scope arguments: a scalar means a singleton scope."""
    if shards is not None and isinstance(shards, (int, str)):
        shards = (shards,)
    if ops is not None and isinstance(ops, str):
        ops = (ops,)
    return {
        "only_shards": None if shards is None else frozenset(shards),
        "only_ops": None if ops is None else frozenset(ops),
    }


class FaultTimeline:
    """A deterministic schedule of correlated fault windows.

    Build one fluently and hand it to ``BeldiRuntime(fault_timeline=...)``
    (or set ``node.timeline`` / ``group.timeline`` directly in store-level
    tests)::

        FaultTimeline().outage(500, 2_500, shards=[0]) \\
                       .partition(1_000, 3_000, shards=[1]) \\
                       .gray(0, None, multiplier=25.0, shards=[2])

    The timeline is consulted on the store hot path only when non-empty,
    and is a pure function of virtual time, so an **empty timeline is
    bit-for-bit invisible** (golden-pinned). Every window edge fires a
    ``kernel.interleave_point("fault:<kind>:<start|end>:<i>")`` the first
    time any node observes virtual time past it, so DST schedules can
    race protocol steps against fault onset/heal, plus an observability
    instant event when tracing is on.
    """

    def __init__(self, windows: Iterable[FaultWindow] = ()):
        self.windows: List[FaultWindow] = list(windows)
        self._edges: Optional[List[Tuple[float, str]]] = None
        self._edge_index = 0

    # -- construction ---------------------------------------------------

    def _add(self, window: FaultWindow) -> "FaultTimeline":
        self.windows.append(window)
        self._edges = None
        self._edge_index = 0
        return self

    def outage(self, start: float, end: float, *, shards=None, ops=None,
               role: Optional[str] = None) -> "FaultTimeline":
        """Matching ops raise ``UnavailableError`` for t ∈ [start, end)."""
        return self._add(FaultWindow("outage", start, end, role=role,
                                     **_scope(shards, ops)))

    def partition(self, start: float, end: float, *,
                  shards=None) -> "FaultTimeline":
        """Leader→follower shipping stalls for t ∈ [start, end)."""
        return self._add(FaultWindow("partition", start, end,
                                     **_scope(shards, None)))

    def gray(self, start: float, end: Optional[float] = None, *,
             multiplier: float = 10.0, shards=None, ops=None,
             role: Optional[str] = None) -> "FaultTimeline":
        """Matching ops pay ``multiplier``× latency; ``end=None`` = forever."""
        return self._add(FaultWindow(
            "gray", start, math.inf if end is None else end, role=role,
            multiplier=multiplier, **_scope(shards, ops)))

    def error_burst(self, start: float, end: float, *, rate: float = 1.0,
                    shards=None, ops=None) -> "FaultTimeline":
        """Matching ops throttle with probability ``rate`` in the window."""
        return self._add(FaultWindow("error_burst", start, end,
                                     error_rate=rate, **_scope(shards, ops)))

    # -- queries (store hot path) ---------------------------------------

    def outage_active(self, now: float, op: str,
                      shard: Optional[int] = None,
                      role: Optional[str] = None) -> bool:
        for w in self.windows:
            if (w.kind == "outage" and w.active(now)
                    and w.applies_to(op, shard, role)):
                return True
        return False

    def burst_rate(self, now: float, op: str,
                   shard: Optional[int] = None,
                   role: Optional[str] = None) -> float:
        rate = 0.0
        for w in self.windows:
            if (w.kind == "error_burst" and w.active(now)
                    and w.applies_to(op, shard, role)):
                rate = max(rate, w.error_rate)
        return rate

    def latency_multiplier(self, now: float, op: str,
                           shard: Optional[int] = None,
                           role: Optional[str] = None) -> float:
        multiplier = 1.0
        for w in self.windows:
            if (w.kind == "gray" and w.active(now)
                    and w.applies_to(op, shard, role)):
                multiplier *= w.multiplier
        return multiplier

    def partition_heal_time(self, now: float,
                            shard: Optional[int] = None) -> Optional[float]:
        """Latest heal time of an active partition covering ``shard``."""
        heal = None
        for w in self.windows:
            if (w.kind == "partition" and w.active(now)
                    and (w.only_shards is None or shard in w.only_shards)):
                heal = w.end if heal is None else max(heal, w.end)
        return heal

    # -- edge observation ------------------------------------------------

    def _edge_list(self) -> List[Tuple[float, str]]:
        if self._edges is None:
            edges = []
            for i, w in enumerate(self.windows):
                edges.append((w.start, f"fault:{w.kind}:start:{i}"))
                if w.end != math.inf:
                    edges.append((w.end, f"fault:{w.kind}:end:{i}"))
            edges.sort()
            self._edges = edges
        return self._edges

    def observe(self, node, now: float) -> None:
        """Fire interleave points + obs events for edges now in the past.

        Called from the store hot path; the common case (no pending edge)
        is one comparison. Each edge fires exactly once, from whichever
        node first observes virtual time past it.
        """
        edges = self._edge_list()
        i = self._edge_index
        if i >= len(edges) or edges[i][0] > now:
            return
        while i < len(edges) and edges[i][0] <= now:
            _, tag = edges[i]
            i += 1
            self._edge_index = i
            self._fire(node, tag, now)

    def _fire(self, node, tag: str, now: float) -> None:
        obs = node.obs
        if obs is not None:
            obs.tracer.event(tag, cat="fault", at=now)
        time_source = getattr(node, "time", None)
        kernel = getattr(time_source, "kernel", None)
        in_scope = (time_source is not None
                    and getattr(time_source, "_ov_scope", None) is not None)
        if kernel is not None and not in_scope:
            kernel.interleave_point(tag)

    # -- reporting -------------------------------------------------------

    def describe(self) -> List[dict]:
        """JSON-ready description (embedded in DST failure artifacts)."""
        out = []
        for w in self.windows:
            out.append({
                "kind": w.kind,
                "start": w.start,
                "end": None if w.end == math.inf else w.end,
                "only_ops": sorted(w.only_ops) if w.only_ops else None,
                "only_shards": (sorted(w.only_shards)
                                if w.only_shards else None),
                "role": w.role,
                "multiplier": w.multiplier,
                "error_rate": w.error_rate,
            })
        return out

    def __bool__(self) -> bool:
        return bool(self.windows)
