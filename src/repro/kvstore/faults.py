"""Store-level fault injection: one timeline of fault windows.

These model the *environment* faults a DynamoDB client sees (throughput
throttling, tail latency, leader failover), as opposed to the SSF crash
faults injected by ``repro.platform.crashes``. The store itself is always
durable and strongly consistent — exactly the paper's assumption (§2.2).

There is one fault model: a :class:`FaultTimeline` of
:class:`FaultWindow`\\ s, each one fault kind active for virtual
``[start, end)`` on the operations and nodes its scope names. Either
bound may be left open, so an always-on fault (background throttling,
latency spikes, leader crashes) is a window without edges, and a
scripted incident (a node dark for two seconds, a partition that heals)
is a window with both — placed at exact virtual times, so a nemesis test
can sweep *when* a fault lands relative to the protocol instead of
hoping a coin flip hits the window.

Everything is deterministic: a window is a pure function of virtual
time, and a window's ``rate`` draws from the seeded
:class:`~repro.sim.randsrc.RandomSource` of the node (or replica group)
consulting it.
"""

from __future__ import annotations

import bisect
import math

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class FaultWindow:
    """One fault: ``kind`` active for virtual ``[start, end)``.

    kind:
        ``"outage"`` — matching ops raise ``UnavailableError``.
        ``"error_burst"`` — matching ops throttle (``ThrottledError``)
        with probability ``rate``, one draw per op. A throttled batch
        (``batch_get``, ``batch_write``) is partially served,
        DynamoDB-style: the node processes a prefix and reports the rest
        as unprocessed (only a prefix of nothing raises).
        ``"gray"`` — matching ops pay ``multiplier`` × latency: every op
        at ``rate=1`` (the slow-but-alive node no probe marks dead, no
        draw), each op with probability ``rate`` below that (a latency
        spike, one draw per op).
        ``"partition"`` — replication shipping from the leader stalls;
        records become visible on followers only after the window heals
        (lag grows without bound during the window, then converges).
        ``"leader_crash"`` — a leader-routed op (any write, any strong
        read) arriving at a :class:`~repro.kvstore.replication.ReplicaGroup`
        finds its leader crashed with probability ``rate``, one draw per
        op from the group's stream; the group fails over before serving
        it. Unreplicated nodes ignore it: the substrate stays durable.
    start / end:
        ``-inf`` / ``inf`` for an open bound. Only a finite bound is an
        edge (an interleave point and a trace event).
    ops / shards:
        Facade op names (``"db.read"``, ``"db.batch_read"``,
        ``"db.query"``, ...) and node ``shard_id`` values the window
        applies to; ``None`` matches everything. A node with no shard id
        (an unsharded store) is outside every shard-scoped window.
    role:
        ``"leader"`` / ``"follower"`` restricts the window to replica
        nodes serving that role (roles are endpoint-static: failover
        swaps table *contents*, not nodes). A window with a role still
        applies to nodes with no role (an unsharded or unreplicated
        store is its own leader); a node's role only excludes windows
        scoped to the *other* role.
    """

    kind: str
    start: float = -math.inf
    end: float = math.inf
    ops: Optional[frozenset] = None
    shards: Optional[frozenset] = None
    role: Optional[str] = None
    multiplier: float = 1.0
    rate: float = 1.0

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def applies_to(self, op: str, shard: Optional[int] = None,
                   role: Optional[str] = None) -> bool:
        if self.ops is not None and op not in self.ops:
            return False
        if self.shards is not None and shard not in self.shards:
            return False
        if self.role is not None and role is not None and role != self.role:
            return False
        return True


class FaultTimeline:
    """A deterministic schedule of fault windows.

    Build one fluently and hand it to ``BeldiRuntime(fault_timeline=...)``
    — or append to the ``runtime.fault_timeline`` every runtime installs
    — or set ``node.timeline`` / ``group.timeline`` directly in
    store-level tests::

        FaultTimeline().error_burst(rate=0.01) \\
                       .outage(500, 2_500, shards=[0]) \\
                       .partition(1_000, 3_000, shards=[1]) \\
                       .gray(0, None, multiplier=25.0, shards=[2])

    Every builder takes ``start`` / ``end`` in virtual ms; ``None`` (the
    default) leaves that bound open. Scopes take a scalar or a
    collection.

    The timeline is consulted on the store hot path only when non-empty,
    so an **empty timeline is bit-for-bit invisible** (golden-pinned).
    Every finite window edge fires a
    ``kernel.interleave_point("fault:<kind>:<start|end>:<i>")`` the first
    time any node observes virtual time past it, so DST schedules can
    race protocol steps against fault onset/heal, plus an observability
    instant event when tracing is on. An open bound fires nothing.
    """

    def __init__(self) -> None:
        self.windows: List[FaultWindow] = []
        #: Finite edges not yet fired, sorted: ``(time, tag)``.
        self._pending: List[Tuple[float, str]] = []

    # -- construction ---------------------------------------------------

    def add(self, *windows: FaultWindow) -> "FaultTimeline":
        """Append windows — e.g. another timeline's, to strike later."""
        for window in windows:
            index = len(self.windows)
            self.windows.append(window)
            for edge, at in (("start", window.start), ("end", window.end)):
                if math.isfinite(at):
                    bisect.insort(self._pending, (
                        at, f"fault:{window.kind}:{edge}:{index}"))
        return self

    def _add(self, kind: str, start: Optional[float], end: Optional[float],
             shards=None, ops=None, **fields) -> "FaultTimeline":
        if isinstance(shards, (int, str)):
            shards = (shards,)
        if isinstance(ops, str):
            ops = (ops,)
        return self.add(FaultWindow(
            kind, -math.inf if start is None else start,
            math.inf if end is None else end,
            ops=None if ops is None else frozenset(ops),
            shards=None if shards is None else frozenset(shards), **fields))

    def outage(self, start: Optional[float] = None,
               end: Optional[float] = None, *, shards=None, ops=None,
               role: Optional[str] = None) -> "FaultTimeline":
        """Matching ops raise ``UnavailableError``."""
        return self._add("outage", start, end, shards, ops, role=role)

    def partition(self, start: Optional[float] = None,
                  end: Optional[float] = None, *,
                  shards=None) -> "FaultTimeline":
        """Leader→follower shipping stalls until the window heals."""
        return self._add("partition", start, end, shards)

    def gray(self, start: Optional[float] = None,
             end: Optional[float] = None, *, multiplier: float = 10.0,
             rate: float = 1.0, shards=None, ops=None,
             role: Optional[str] = None) -> "FaultTimeline":
        """Matching ops pay ``multiplier``× latency (with probability
        ``rate``)."""
        return self._add("gray", start, end, shards, ops, role=role,
                         multiplier=multiplier, rate=rate)

    def error_burst(self, start: Optional[float] = None,
                    end: Optional[float] = None, *, rate: float = 1.0,
                    shards=None, ops=None) -> "FaultTimeline":
        """Matching ops throttle with probability ``rate``."""
        return self._add("error_burst", start, end, shards, ops, rate=rate)

    def leader_crash(self, start: Optional[float] = None,
                     end: Optional[float] = None, *, rate: float = 1.0,
                     shards=None, ops=None) -> "FaultTimeline":
        """Leader-routed ops find their group's leader crashed with
        probability ``rate``."""
        return self._add("leader_crash", start, end, shards, ops,
                         rate=rate)

    # -- queries (store hot path) ---------------------------------------

    def _matching(self, kind: str, now: float, op: str,
                  shard: Optional[int], role: Optional[str]):
        for w in self.windows:
            if (w.kind == kind and w.active(now)
                    and w.applies_to(op, shard, role)):
                yield w

    def outage_active(self, now: float, op: str,
                      shard: Optional[int] = None,
                      role: Optional[str] = None) -> bool:
        return any(self._matching("outage", now, op, shard, role))

    def rate(self, kind: str, now: float, op: str,
             shard: Optional[int] = None,
             role: Optional[str] = None) -> float:
        """The highest ``rate`` of the active ``kind`` windows matching
        the op (``0.0`` when none does): one draw decides the op."""
        return max((w.rate for w in self._matching(kind, now, op, shard,
                                                   role)), default=0.0)

    def latency_multiplier(self, now: float, op: str,
                           shard: Optional[int] = None,
                           role: Optional[str] = None,
                           rand=None) -> float:
        """Product of the active gray windows' multipliers; a window
        with ``rate < 1`` draws from ``rand`` to decide whether it
        applies."""
        multiplier = 1.0
        for w in self._matching("gray", now, op, shard, role):
            if w.rate >= 1.0 or rand.random() < w.rate:
                multiplier *= w.multiplier
        return multiplier

    def partition_heal_time(self, now: float,
                            shard: Optional[int] = None) -> Optional[float]:
        """Latest heal time of an active partition covering ``shard``."""
        heal = None
        for w in self.windows:
            if (w.kind == "partition" and w.active(now)
                    and (w.shards is None or shard in w.shards)):
                heal = w.end if heal is None else max(heal, w.end)
        return heal

    # -- edge observation ------------------------------------------------

    def observe(self, node, now: float) -> None:
        """Fire interleave points + obs events for edges now in the past.

        Called from the store hot path; the common case (no pending edge)
        is one comparison. Each edge fires exactly once, from whichever
        node first observes virtual time past it.
        """
        pending = self._pending
        while pending and pending[0][0] <= now:
            _, tag = pending.pop(0)
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
        """JSON-ready description (embedded in DST failure artifacts);
        an open bound is ``None``."""
        return [{
            "kind": w.kind,
            "start": w.start if math.isfinite(w.start) else None,
            "end": w.end if math.isfinite(w.end) else None,
            "ops": sorted(w.ops) if w.ops else None,
            "shards": sorted(w.shards) if w.shards else None,
            "role": w.role,
            "multiplier": w.multiplier,
            "rate": w.rate,
        } for w in self.windows]

    def __bool__(self) -> bool:
        return bool(self.windows)
