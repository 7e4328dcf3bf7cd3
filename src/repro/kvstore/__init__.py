"""A DynamoDB-like NoSQL key-value store (substrate).

Beldi assumes only a handful of storage properties (§2.2 of the paper):
strong consistency, fault tolerance, atomic conditional updates at a row
atomicity scope, and scans with filters and projections. This package
implements exactly that feature set, in-memory, with:

- tables keyed by a hash key and an optional range (sort) key,
- a condition/update expression language cut to what Beldi writes
  (attribute_[not_]exists, =, >, size <, AND, OR; SET with + and
  if_not_exists, REMOVE; over nested map member paths),
- partition queries with projection and limit, and table scans with
  filter, projection and limit (the limit bounds the rows walked),
- sparse global secondary indexes,
- per-item size limits (DynamoDB's 400 KB row cap is what motivates the
  linked DAAL in the first place),
- optional cross-table transactional writes (used only by the paper's
  "cross-table txn" baseline variant),
- request metering (read/write units, bytes moved, storage) so the paper's
  §7.3 cost analysis can be regenerated, and
- a pluggable time source so operations consume calibrated virtual latency
  when run under the simulation kernel.

The store API itself — ten operations — is declared once, in
:mod:`repro.kvstore.surface`; the node (``KVStore``), the router
(``ShardedStore``) and the replica group (``ReplicaGroup``) all carry it.
"""

from repro.kvstore.errors import (
    ConditionFailed,
    ItemTooLarge,
    KVStoreError,
    TableExists,
    TableNotFound,
    ThrottledError,
    TransactionCanceled,
    UnavailableError,
)
from repro.kvstore.faults import FaultTimeline, FaultWindow
from repro.kvstore.expressions import (
    And,
    AttrExists,
    AttrNotExists,
    Eq,
    Gt,
    IfNotExists,
    Or,
    Path,
    Plus,
    Remove,
    Set,
    SizeLt,
    Value,
    path,
)
from repro.kvstore.asyncio import OverlapScope, overlap
from repro.kvstore.item import item_size
from repro.kvstore.metering import Metering
from repro.kvstore.rebalance import (
    ChainMigrator,
    ElasticityController,
    MigrationStats,
    placement_residue,
    recover_stale_migrations,
)
from repro.kvstore.replication import (
    ReplicaGroup,
    ReplicatedStore,
    ReplicationStats,
)
from repro.kvstore.sharding import HashRing, ShardedStore
from repro.kvstore.store import (
    KernelTimeSource,
    KVStore,
    NullTimeSource,
    batch_get_all,
    batch_write_all,
)
from repro.kvstore.surface import (
    BatchGetResult,
    BatchWriteResult,
    MAX_BATCH_WRITE_ITEMS,
    TransactPut,
    TransactUpdate,
)
from repro.kvstore.table import KeySchema, QueryResult, ScanResult, Table

__all__ = [
    "And", "AttrExists", "AttrNotExists", "BatchGetResult",
    "BatchWriteResult", "ChainMigrator", "ConditionFailed",
    "ElasticityController", "Eq", "FaultTimeline", "FaultWindow", "Gt",
    "HashRing", "IfNotExists", "ItemTooLarge", "KVStore", "KVStoreError",
    "KernelTimeSource", "KeySchema", "MAX_BATCH_WRITE_ITEMS", "Metering",
    "MigrationStats", "NullTimeSource", "Or", "OverlapScope", "Path",
    "Plus", "QueryResult", "Remove", "ReplicaGroup", "ReplicatedStore",
    "ReplicationStats", "ScanResult", "Set", "ShardedStore", "SizeLt",
    "Table", "TableExists", "TableNotFound", "ThrottledError",
    "TransactPut", "TransactUpdate", "TransactionCanceled",
    "UnavailableError", "Value", "batch_get_all", "batch_write_all",
    "item_size", "overlap", "path", "placement_residue",
    "recover_stale_migrations",
]
