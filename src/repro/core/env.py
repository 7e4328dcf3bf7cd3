"""Sovereignty domains: tables, logs and collectors for a group of SSFs.

A :class:`BeldiEnv` is the unit of data sovereignty (§2.2): one intent
table, one read log, one invoke log, a set of data tables (each a linked
DAAL with a shadow twin), and one IC/GC pair. Independent SSFs get their
own env; SSFs from one engineering team may share one (§3.3). An SSF can
only address tables declared in its env — touching anything else raises
:class:`TableNotDeclared`, which is how the library enforces that state is
"only exposed by choice through an SSF's outputs".
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.core import daal
from repro.core.config import BeldiConfig
from repro.core.errors import TableNotDeclared
from repro.kvstore import KVStore
from repro.kvstore.surface import leaves

PENDING_INDEX = "pending"
SHADOW_TXN_INDEX = "by_txn"

#: Name suffixes of the tables an env keeps for the protocol: its logs
#: (:meth:`BeldiEnv.log_table_names`) and its data tables' shadow twins.
#: Protocol state must read strong — a degraded read never serves these
#: (``repro.resilience``). Only data and shadow chains migrate:
#: ``repro.kvstore.rebalance`` keeps its own list of the log suffixes,
#: since the store may not import the protocol.
PROTOCOL_SUFFIXES = (".intent", ".readlog", ".invokelog", ".writelog",
                     ".locksets", ".shadow")


class BeldiEnv:
    """One sovereignty domain's storage layout."""

    def __init__(self, store: KVStore, config: BeldiConfig, name: str,
                 tables: Iterable[str] = (),
                 storage_mode: str = "daal",
                 tail_cache=None) -> None:
        if storage_mode not in ("daal", "crosstable"):
            raise ValueError(f"unknown storage mode {storage_mode!r}")
        self.store = store
        self.config = config
        self.name = name
        self.storage_mode = storage_mode
        #: The owning runtime's §4.4 tail cache (None = seed behavior).
        #: Out-of-band accessors (peek) resolve tails through it too, so
        #: tests observe the same fast path the SSFs use.
        self.tail_cache = tail_cache
        self.intent_table = f"{name}.intent"
        self.read_log = f"{name}.readlog"
        self.invoke_log = f"{name}.invokelog"
        self.write_log = f"{name}.writelog"  # cross-table mode only
        self.lockset_table = f"{name}.locksets"
        self._tables: dict[str, str] = {}

        store.ensure_table(self.intent_table, hash_key="InstanceId")
        # Indexes are per physical table: declare them on every leaf,
        # leaders and followers alike.
        for leaf in leaves(store):
            leaf.table(self.intent_table).add_index(PENDING_INDEX,
                                                    "Pending")
        store.ensure_table(self.read_log, hash_key="InstanceId",
                           range_key="Step")
        store.ensure_table(self.invoke_log, hash_key="InstanceId",
                           range_key="Step")
        store.ensure_table(self.lockset_table, hash_key="TxnId",
                           range_key="LockRef")
        if storage_mode == "crosstable":
            store.ensure_table(self.write_log, hash_key="InstanceId",
                               range_key="Step")
        for short in tables:
            self.declare_table(short)

    # -- data tables ------------------------------------------------------------
    def declare_table(self, short: str) -> str:
        """Create (or adopt) a data table (and its shadow twin, in DAAL
        mode; cross-table mode uses plain one-row-per-item tables)."""
        full = f"{self.name}.{short}"
        if self.storage_mode == "crosstable":
            self.store.ensure_table(full, hash_key="Key")
            self._tables[short] = full
            return full
        self.store.ensure_table(full, hash_key="Key", range_key="RowId")
        shadow = f"{full}.shadow"
        self.store.ensure_table(shadow, hash_key="Key", range_key="RowId")
        for leaf in leaves(self.store):
            shadow_table = leaf.table(shadow)
            if SHADOW_TXN_INDEX not in shadow_table._indexes:
                shadow_table.add_index(SHADOW_TXN_INDEX, "TxnId")
        self._tables[short] = full
        return full

    def data_table(self, short: str) -> str:
        full = self._tables.get(short)
        if full is None:
            raise TableNotDeclared(
                f"table {short!r} is not declared in env {self.name!r} "
                f"(declared: {sorted(self._tables)})")
        return full

    def shadow_table(self, short: str) -> str:
        return f"{self.data_table(short)}.shadow"

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- seeding -----------------------------------------------------------------
    def seed(self, short: str, key: Any, value: Any) -> None:
        """Install an initial value for an item (head-row creation)."""
        full = self.data_table(short)
        if self.storage_mode == "crosstable":
            self.store.put(full, {"Key": key, "Value": value})
        else:
            daal.ensure_head(self.store, full, key, value=value)

    def peek(self, short: str, key: Any) -> Any:
        """Read an item's current value outside any SSF (tests, benches)."""
        full = self.data_table(short)
        if self.storage_mode == "crosstable":
            row = self.store.get(full, key)
            value = row.get("Value", daal.MISSING) if row else daal.MISSING
        else:
            value = daal.tail_value(self.store, full, key,
                                    cache=self.tail_cache)
        return None if value == daal.MISSING else value

    # -- storage accounting --------------------------------------------------------
    def log_table_names(self) -> list[str]:
        names = [self.intent_table, self.read_log, self.invoke_log,
                 self.lockset_table]
        if self.storage_mode == "crosstable":
            names.append(self.write_log)
        return names

    def storage_bytes(self) -> int:
        total = 0
        for name in self.log_table_names():
            total += self.store.storage_bytes(name)
        for full in self._tables.values():
            total += self.store.storage_bytes(full)
            if self.storage_mode == "daal":
                total += self.store.storage_bytes(f"{full}.shadow")
        return total
