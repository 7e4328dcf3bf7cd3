"""Async storage I/O: overlapping independent store round trips.

The simulated stores are synchronous: every operation sleeps its sampled
latency through the caller's time source before returning, so N
independent round trips cost the *sum* of their latencies even though a
real client would issue them concurrently and pay roughly the *max*.
This module supplies the overlap primitive the hot paths use to close
that gap (ISSUE: "Async storage backends" / Netherite-style pipelining):

``overlap(store, enabled=...)``
    A context manager that, while active, intercepts every latency sleep
    the participating store(s) would pay and defers it. On exit, the
    caller sleeps once for the **completion frontier** — the latest
    finish time across everything issued inside — so independent work
    costs ``max(latencies)`` instead of the sum.

``scope.branch()``
    Marks one logically *sequential* strand inside the scope. Operations
    inside the same branch serialize (a dependent read-then-write still
    costs read + write); separate branches all start at the scope's
    origin and overlap with each other. Code not wrapped in a branch
    serializes with itself, which is the conservative default.

The model composes with the rest of the simulation:

- **Per-node capacity still binds.** A store node with a
  :class:`~repro.sim.latency.ServiceCapacity` queue sees every
  overlapped operation arrive at its true issue offset, so a saturated
  node still serializes: overlap buys ``max(latencies)`` *plus* whatever
  queueing the node imposes, never infinite parallelism.
- **Nesting folds.** An inner ``overlap`` opened while an outer one is
  active (e.g. a sharded ``batch_get`` fan-out inside a commit flush
  branch) does not sleep on exit; its frontier is folded back into the
  enclosing branch as one composite operation.
- **Scopes are atomic in virtual time.** Nothing inside a scope may
  yield to the kernel (all store sleeps are deferred, and scope bodies
  must only perform store operations), so no other simulated process can
  observe the half-issued state, and the scope's single exit sleep is
  the only scheduling point. This is exactly the crash model's
  granularity: a crash lands before the batch or after it, with explicit
  ``crash_point``\\ s in the callers covering partial completions of the
  *protocol* (retries re-issue idempotent work), never of one scope.

Correctness does not depend on overlap: latency is additive, never
causal (see ``repro/sim/latency.py``), so collapsing sleeps changes when
virtual time passes, not what the store contains. The exhaustive
crash-point sweep runs with overlap on to pin that down.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence


class OverlapScope:
    """Deferred-sleep accumulator shared by a set of time sources.

    Offsets are virtual milliseconds relative to the moment the
    *outermost* scope opened (no time passes inside a scope, so that
    moment is "now" throughout). ``cursor`` is where the next operation
    of the current strand starts; ``frontier`` is the latest completion
    seen anywhere in the scope.
    """

    def __init__(self, parent: Optional["OverlapScope"] = None) -> None:
        self.parent = parent
        self.start = parent.cursor if parent is not None else 0.0
        self.cursor = self.start
        self.frontier = self.start

    def add(self, duration: float) -> None:
        """Record one operation's sojourn time at the current cursor."""
        if duration > 0:
            self.cursor += duration
            if self.cursor > self.frontier:
                self.frontier = self.cursor

    @contextmanager
    def branch(self) -> Iterator[None]:
        """One sequential strand, concurrent with sibling branches."""
        saved = self.cursor
        self.cursor = self.start
        try:
            yield
        finally:
            self.cursor = saved

    def join_child(self, child: "OverlapScope") -> None:
        """Fold a nested scope back in as one composite operation."""
        self.cursor = child.frontier
        if self.frontier < child.frontier:
            self.frontier = child.frontier


class _NullScope:
    """Disabled scope: branches are no-ops, sleeps stay synchronous."""

    @contextmanager
    def branch(self) -> Iterator[None]:
        yield


NULL_SCOPE = _NullScope()


def in_scope(time_source) -> bool:
    """Is an overlap scope attached to ``time_source`` right now?

    Scheduling is cooperative: a scope can only be active on a store's
    clocks while its *owning* process runs its (never yielding) scope
    body — so "a scope is attached" means "the current caller is inside
    one": it may not sleep, and its mutations are atomic in virtual time.
    """
    return getattr(time_source, "_ov_scope", None) is not None


def _time_sources(store) -> list:
    """The distinct time sources behind a store facade (duck-typed)."""
    collect = getattr(store, "time_sources", None)
    if collect is None:
        return []
    seen: dict[int, object] = {}
    for source in collect():
        seen.setdefault(id(source), source)
    return list(seen.values())


@contextmanager
def overlap(store, enabled: bool = True) -> Iterator:
    """Open an overlap scope over every node behind ``store``.

    With ``enabled=False`` (no ``async_io`` feature) this yields a
    no-op scope and every store operation sleeps synchronously, exactly
    as without this module. With an outer scope already active on the
    store's time sources, the new scope nests (folds on exit) instead of
    sleeping.
    """
    if not enabled:
        yield NULL_SCOPE
        return
    sources = _time_sources(store)
    if not sources:
        yield NULL_SCOPE
        return
    parent = next((source._ov_scope for source in sources
                   if getattr(source, "_ov_scope", None) is not None), None)
    scope = OverlapScope(parent)
    previous = [(source, getattr(source, "_ov_scope", None))
                for source in sources]
    for source in sources:
        source._ov_scope = scope
    # Scope bodies are atomic in virtual time, so schedule-exploration
    # interleave points must not yield while one is open.
    kernels = {id(k): k for k in
               (getattr(source, "kernel", None) for source in sources)
               if k is not None and hasattr(k, "_no_yield")}
    for k in kernels.values():
        k._no_yield += 1
    try:
        yield scope
    finally:
        for k in kernels.values():
            k._no_yield -= 1
        for source, prior in previous:
            source._ov_scope = prior
        if parent is not None:
            parent.join_child(scope)
        else:
            _settle(sources, scope)


def _settle(sources: Sequence, scope: OverlapScope) -> None:
    """Sleep the frontier once per distinct *clock* behind the sources.

    Several :class:`~repro.kvstore.store.KernelTimeSource` instances may
    wrap one kernel; sleeping each would multiply the elapsed time, so
    sources are deduplicated by ``clock_id()``. Independent clocks
    (per-node ``NullTimeSource``\\ s in unit tests) each advance by the
    same frontier — the scope's wall time.
    """
    seen = set()
    for source in sources:
        key = source.clock_id()
        if key in seen:
            continue
        seen.add(key)
        source.sleep(scope.frontier)


__all__ = ["NULL_SCOPE", "OverlapScope", "in_scope", "overlap"]
