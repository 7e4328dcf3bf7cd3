"""The DAAL fast path: remembering chain positions (§4.4).

The seed implementation rebuilds every item's chain skeleton with a fresh
projected ``query`` on every single read, write, and lock attempt. That
is sound but expensive: the query pays request units proportional to the
partition size (orphans included), and at scale the chain walk dominates
the hot path. §4.4 of the paper observes that Beldi can *remember chain
positions* and start from them instead of from ``HEAD``.

:class:`TailCache` is that memory, generalized to a per-runtime cache
with two maps:

``tails``
    ``(table, key) -> TailEntry(row_id, log_size)`` — the most recently
    observed reachable tail of the item's chain. Reads, writes, lock
    operations, and transaction flushes go straight to this row with one
    conditional ``get``/``update`` and fall back to the full skeleton
    traversal only when the cached row turns out stale (it chained, was
    disconnected by the GC, or was deleted).

``positions``
    ``(table, key, log_key) -> row_id`` — where each logged operation's
    write-log entry lives. Replayed operations jump straight to their
    entry with one ``get`` instead of probing the whole chain.

Soundness
---------

The cache never stores *values* — every fast-path operation re-reads its
target row from the (linearizable) store, so a hit can never surface a
stale value; staleness only costs an extra fallback traversal. Position
entries are recorded in the same scheduling step as the store mutation
they describe (no yield point in between), so a recorded position is
always real, and a missing position falls back to the sound slow path.

Skipping the initial whole-chain replay probe on a position miss relies
on one assumption: every operation against the store flows through this
runtime, so an entry that was never recorded here was never written.
That holds in this single-account simulation (the runtime hosts every
SSF, the IC, and the GC). A multi-host deployment would scope the
position memory per execution, exactly as §4.4's per-Lambda memory does.

The position map is bounded. Evicting an entry would silently break the
"miss means never logged" premise, so eviction *taints* the evicted
entries' instances instead: a tainted instance's position misses are no
longer trusted, and its operations take the full-probe slow path (seed
behavior) forever after. Correctness never depends on the bound.

Extensions in flight
--------------------

The writer whose case-B update fills a row appends the successor itself
(``ops._extend_filled_row``: candidate put + version-validated CAS, the
same :func:`~repro.core.daal.append_row` lazy case D uses). While it
does, ``extending`` holds ``(table, key, row_id) -> SimEvent`` for the
full row; a writer of this runtime about to try that row waits on the
event instead of paying a doomed update, a ``get`` and a racing append
of its own, and restarts from the tail the filler remembered. The entry
is pure scheduling advice: it is removed and the event set in a
``finally``, so a crashed, killed or failed filler releases its waiters
into lazy case D, and nothing here ever links a row — the CAS does.

Invariants maintained by callers:

- only rows observed *reachable* (a skeleton tail, a case-B target, an
  ``append_row`` winner) are ever remembered as tails — never orphan
  candidates;
- a detected-stale entry is evicted (or overwritten) before re-probing,
  so fallback loops terminate.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Iterator, Optional

from repro.core.logkeys import instance_of as _instance_of


@dataclass(slots=True)
class TailEntry:
    """One remembered tail: the row id and the last-seen log size.

    ``log_size`` is advisory bookkeeping (``None`` when unknown) — kept
    for observability and cheap freshness heuristics, never consulted to
    skip a staleness check or a conditional write (the store's ``LogSize``
    is a GC-preserved high-water mark, so a cached "full" can be stale
    the other way: pruned tails accept writes again). The eager
    extension does not read it either: "this write filled the row" is
    ``len(RecentWrites)`` of the row the filling update itself returned.
    """

    row_id: str
    log_size: Optional[int] = None


@dataclass(slots=True)
class TailCacheStats:
    """Observability counters (ablation benchmarks report these)."""

    tail_hits: int = 0
    tail_misses: int = 0
    tail_fallbacks: int = 0   # cached row was stale; traversal repaired it
    position_hits: int = 0
    position_fallbacks: int = 0
    intent_hits: int = 0
    extensions: int = 0         # appends started by the writer that filled
    extension_waits: int = 0    # writers that waited one out
    lazy_appends: int = 0       # case D by a writer that met a full tail
    append_races_lost: int = 0  # candidates orphaned by a lost CAS

    def snapshot(self) -> dict:
        return asdict(self)


class TailCache:
    """Per-runtime memory of chain tails and log-entry positions."""

    # No lock: the simulation kernel schedules cooperatively (one
    # process runs at a time), so cache accesses never interleave —
    # same as the runtime's _intent_cache. A preemptive deployment
    # would need the whole check-then-act fast path synchronized, not
    # just these maps.
    def __init__(self, max_positions: int = 65_536) -> None:
        self._tails: dict[tuple, TailEntry] = {}
        self._positions: dict[tuple, str] = {}
        self._tainted: set = set()   # instances with evicted positions
        self._extending: dict[tuple, Any] = {}   # full row -> done event
        self._max_positions = max_positions
        self.stats = TailCacheStats()

    # -- tails -----------------------------------------------------------------
    def tail_of(self, table: str, key: Any) -> Optional[TailEntry]:
        entry = self.peek_tail(table, key)
        if entry is None:
            self.stats.tail_misses += 1
        else:
            self.stats.tail_hits += 1
        return entry

    def peek_tail(self, table: str, key: Any) -> Optional[TailEntry]:
        """:meth:`tail_of` without the hit/miss bookkeeping: a writer
        released from an extension wait already counted its lookup."""
        entry = self._tails.get((table, _hashable(key)))
        if entry is None:
            return None
        return TailEntry(entry.row_id, entry.log_size)

    def remember_tail(self, table: str, key: Any, row_id: str,
                      log_size: Optional[int] = None) -> None:
        """Record ``row_id`` as the item's reachable tail.

        Callers must only pass rows they observed reachable; orphan
        candidates must never land here.
        """
        self._tails[(table, _hashable(key))] = TailEntry(row_id, log_size)

    def note_logged_write(self, table: str, key: Any, row_id: str,
                          log_key: str) -> None:
        """A case-B write landed in ``row_id``: bump the remembered log
        size and pin the entry's position in one step."""
        cache_key = (table, _hashable(key))
        entry = self._tails.get(cache_key)
        if entry is not None and entry.row_id == row_id and (
                entry.log_size is not None):
            entry.log_size += 1
        else:
            self._tails[cache_key] = TailEntry(row_id, None)
        self._remember_position(table, key, log_key, row_id)

    def forget(self, table: str, key: Any) -> None:
        """Evict a stale tail (the row chained, dangled, or vanished)."""
        if self._tails.pop((table, _hashable(key)), None) is not None:
            self.stats.tail_fallbacks += 1

    def drop_row(self, table: str, key: Any, row_id: str) -> None:
        """GC deleted ``row_id``: evict it if it is the cached tail."""
        cache_key = (table, _hashable(key))
        entry = self._tails.get(cache_key)
        if entry is not None and entry.row_id == row_id:
            del self._tails[cache_key]

    def note_migrated(self, table: str, key: Any) -> None:
        """The item's chain moved to another shard: start cold.

        Row ids survive a migration verbatim (and routing follows the
        ring's forwarding entry), so the entry is not *wrong* — but a
        reshard is exactly when placement memory should be re-proven,
        so the tail is dropped without counting a fallback. Position
        entries stay: they name rows, not placements, and a position
        miss would otherwise falsely read as "never executed".
        """
        self._tails.pop((table, _hashable(key)), None)

    # -- extensions in flight --------------------------------------------------
    @contextmanager
    def extending(self, table: str, key: Any, row_id: str,
                  done) -> Iterator[bool]:
        """Announce that the caller is appending the successor of the
        full row ``row_id``; ``done`` (a kernel event) is set on the way
        out, however the append ended. Yields False — and announces
        nothing — when that row's extension is already in flight (the
        GC pruned it and it filled again): one filler is enough."""
        cache_key = (table, _hashable(key), row_id)
        if cache_key in self._extending:
            yield False
            return
        self._extending[cache_key] = done
        self.stats.extensions += 1
        try:
            yield True
        finally:
            del self._extending[cache_key]
            done.set()

    def extension_of(self, table: str, key: Any, row_id: str):
        """The event to wait on while ``row_id`` is being extended by
        another writer of this runtime, else ``None``."""
        return self._extending.get((table, _hashable(key), row_id))

    # -- positions -------------------------------------------------------------
    def position_of(self, table: str, key: Any,
                    log_key: str) -> Optional[str]:
        return self._positions.get((table, _hashable(key), log_key))

    def remember_position(self, table: str, key: Any, log_key: str,
                          row_id: str) -> None:
        self._remember_position(table, key, log_key, row_id)

    def _remember_position(self, table: str, key: Any,
                           log_key: str, row_id: str) -> None:
        cache_key = (table, _hashable(key), log_key)
        if (cache_key not in self._positions
                and len(self._positions) >= self._max_positions):
            # A silently dropped position would turn a later miss into a
            # false "never executed" — so eviction taints the affected
            # instances, pushing their future ops onto the full-probe
            # slow path instead of trusting misses. Evict at least one
            # entry so the bound holds even at max_positions == 1, and
            # taint EVERY instance whose position is dropped.
            evict = max(1, self._max_positions // 2)
            for stale in list(self._positions)[:evict]:
                self._tainted.add(_instance_of(stale[2]))
                del self._positions[stale]
        self._positions[cache_key] = row_id

    def forget_position(self, table: str, key: Any, log_key: str) -> None:
        if self._positions.pop(
                (table, _hashable(key), log_key), None) is not None:
            self.stats.position_fallbacks += 1

    def trusts_miss(self, log_key: str) -> bool:
        """Whether a position miss for this op proves it never executed
        (False once the op's instance had positions evicted)."""
        return _instance_of(log_key) not in self._tainted

    # -- maintenance -----------------------------------------------------------
    def clear(self) -> None:
        """Drop the maps — but keep the soundness contract: dropping a
        recorded position turns a future miss into a false "never
        executed", so every instance with recorded positions is tainted,
        exactly as bulk eviction does."""
        for position_key in self._positions:
            self._tainted.add(_instance_of(position_key[2]))
        self._tails.clear()
        self._positions.clear()

    def __len__(self) -> int:
        return len(self._tails) + len(self._positions)


# Tag sentinels for _hashable's canonical forms. Private object()s (not
# strings) so no genuine key value can ever equal a tag — the encoding
# stays injective even against adversarial tuple keys like
# ("__list__", ...).
_LIST_TAG = object()
_DICT_TAG = object()


def _hashable(key: Any) -> Any:
    """Collision-free hashable stand-in for an item key.

    Unhashable keys (lists/dicts) are converted to a *tagged* canonical
    form rather than a bare ``repr`` string — a bare repr would let the
    distinct keys ``{"a": 1}`` and ``"{'a': 1}"`` collide into one cache
    slot, silently cross-wiring two items' tails and positions. Tuples
    convert element-wise (a tuple key may carry an unhashable part);
    dict items are sorted so two equal dicts built in different
    insertion orders share a slot.
    """
    if isinstance(key, tuple):
        return tuple(_hashable(part) for part in key)
    if isinstance(key, list):
        return (_LIST_TAG, tuple(_hashable(part) for part in key))
    if isinstance(key, dict):
        return (_DICT_TAG, tuple(
            sorted(((k, _hashable(v)) for k, v in key.items()),
                   key=repr)))
    return key
