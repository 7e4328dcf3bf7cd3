"""Request metering: read/write units, bytes moved, dollar estimates.

The paper's §7.3 reports Beldi's overheads in storage bytes, network bytes
fetched by scans, and marginal dollar cost per operation in DynamoDB's
on-demand mode ($2.5e-7 per read, $1.25e-6 per write). This module meters
every store operation so those numbers can be regenerated from a run.

Reads carry a *consistency mode*, mirroring DynamoDB's pricing knob: a
strongly consistent read costs one read unit per 4 KB, an eventually
consistent one half that (strong reads cost 2x — the trade §2.2 pays for
by assuming strong consistency everywhere). Eventual reads are counted
separately (``OpRecord.eventual_count``, :attr:`Metering.per_table_eventual`)
so a run can *prove* which reads were allowed off the leader.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

READ_UNIT_BYTES = 4 * 1024
WRITE_UNIT_BYTES = 1024
# On-demand pricing used in the paper (us-east-1, 2020).
DOLLARS_PER_READ_UNIT = 2.5e-7
DOLLARS_PER_WRITE_UNIT = 1.25e-6
# DynamoDB charges eventually consistent reads half a unit per 4 KB.
EVENTUAL_READ_UNIT_FACTOR = 0.5

EVENTUAL = "eventual"
STRONG = "strong"


def normalize_consistency(consistency) -> Optional[str]:
    """Canonicalize a consistency argument to ``"eventual"`` or ``None``.

    Accepts ``None`` or the strings ``"strong"``/``"eventual"``. ``None``
    means strong — the default everywhere.
    """
    if consistency is None or consistency == STRONG:
        return None
    if consistency == EVENTUAL:
        return EVENTUAL
    raise ValueError(f"unknown read consistency {consistency!r}")


@dataclass
class OpRecord:
    """Counters for one operation kind.

    ``count`` is the number of *round trips* (requests billed against the
    provider's request-rate limits); ``items`` is the number of rows those
    requests touched. For point operations the two match; for batched and
    ranged operations (``batch_get``, ``query``, ``scan``) ``items`` grows
    while ``count`` does not — which is precisely the fast path's win.
    """

    count: int = 0
    items: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_units: float = 0.0
    write_units: float = 0.0
    #: How many of ``count`` were eventually consistent reads (priced at
    #: half a unit; see module docstring). Always 0 for writes.
    eventual_count: int = 0


@dataclass
class Metering:
    """Accumulates per-operation counters for a store."""

    ops: dict = field(default_factory=dict)
    per_table: Counter = field(default_factory=Counter)
    #: Requests per table that were served at eventual consistency — the
    #: counter the replication gates use to verify every DAAL/txn/GC
    #: correctness read stayed leader-routed (no log/intent table may
    #: ever appear here).
    per_table_eventual: Counter = field(default_factory=Counter)
    enabled: bool = True

    def record_read(self, op: str, table: str, nbytes: int,
                    items: int = 1,
                    consistency: Optional[str] = None) -> float:
        """Book one read round trip; returns the dollars it booked."""
        if not self.enabled:
            return 0.0
        rec = self.ops.setdefault(op, OpRecord())
        rec.count += 1
        rec.items += max(items, 1)
        rec.bytes_read += nbytes
        units = max(items, 1) * max(1.0, nbytes / READ_UNIT_BYTES / max(
            items, 1))
        if normalize_consistency(consistency) == EVENTUAL:
            units *= EVENTUAL_READ_UNIT_FACTOR
            rec.eventual_count += 1
            self.per_table_eventual[table] += 1
        rec.read_units += units
        self.per_table[table] += 1
        return units * DOLLARS_PER_READ_UNIT

    def record_write(self, op: str, table: str, nbytes: int) -> float:
        """Book one write round trip; returns the dollars it booked."""
        if not self.enabled:
            return 0.0
        rec = self.ops.setdefault(op, OpRecord())
        rec.count += 1
        rec.items += 1
        rec.bytes_written += nbytes
        units = max(1.0, nbytes / WRITE_UNIT_BYTES)
        rec.write_units += units
        self.per_table[table] += 1
        return units * DOLLARS_PER_WRITE_UNIT

    def record_batch_write(self, op: str, table: str,
                           sizes: Sequence[int]) -> float:
        """One batched round trip covering ``len(sizes)`` written rows.

        Write units are billed per item exactly as the sequential path
        would (``max(1, bytes/1KB)`` each — DynamoDB prices
        ``BatchWriteItem`` identically to the individual writes); only
        the request ``count`` drops to one, which is precisely the
        batching win the fast-path gates measure. Returns the dollars it
        booked.
        """
        if not self.enabled:
            return 0.0
        rec = self.ops.setdefault(op, OpRecord())
        rec.count += 1
        rec.items += max(len(sizes), 1)
        rec.bytes_written += sum(sizes)
        units = sum(max(1.0, nbytes / WRITE_UNIT_BYTES) for nbytes in sizes)
        rec.write_units += units
        self.per_table[table] += 1
        return units * DOLLARS_PER_WRITE_UNIT

    # -- rollups --------------------------------------------------------------
    def total(self, field_name: str) -> float:
        return sum(getattr(rec, field_name) for rec in self.ops.values())

    @property
    def op_count(self) -> int:
        return int(self.total("count"))

    @property
    def bytes_read(self) -> int:
        return int(self.total("bytes_read"))

    @property
    def bytes_written(self) -> int:
        return int(self.total("bytes_written"))

    def dollar_cost(self) -> float:
        """Marginal request cost in on-demand mode."""
        return (self.total("read_units") * DOLLARS_PER_READ_UNIT
                + self.total("write_units") * DOLLARS_PER_WRITE_UNIT)

    def read_dollars(self) -> float:
        """The read side of the bill alone — what the consistency knob
        moves (writes always go through the leader at full price)."""
        return self.total("read_units") * DOLLARS_PER_READ_UNIT

    def totals(self) -> dict:
        """Cross-op rollup (requests, units, dollars) — the shape the
        observability snapshot and bench JSON reports embed."""
        return {
            "dollars": round(self.dollar_cost(), 9),
            "eventual_reads": int(self.total("eventual_count")),
            "items": int(self.total("items")),
            "read_units": round(self.total("read_units"), 3),
            "requests": self.op_count,
            "write_units": round(self.total("write_units"), 3),
        }

    def snapshot(self) -> dict:
        """A plain-dict view, convenient for bench reporting."""
        return {
            op: {
                "count": rec.count,
                "items": rec.items,
                "bytes_read": rec.bytes_read,
                "bytes_written": rec.bytes_written,
                "read_units": round(rec.read_units, 3),
                "write_units": round(rec.write_units, 3),
                "eventual_count": rec.eventual_count,
            }
            for op, rec in sorted(self.ops.items())
        }

    def diff(self, baseline: "Metering") -> dict:
        """Counters accumulated since ``baseline`` was snapshotted."""
        out: dict = {}
        for op, rec in self.ops.items():
            base = baseline.ops.get(op, OpRecord())
            delta = OpRecord(
                count=rec.count - base.count,
                items=rec.items - base.items,
                bytes_read=rec.bytes_read - base.bytes_read,
                bytes_written=rec.bytes_written - base.bytes_written,
                read_units=rec.read_units - base.read_units,
                write_units=rec.write_units - base.write_units,
                eventual_count=rec.eventual_count - base.eventual_count)
            if delta.count:
                out[op] = delta
        return out

    def merge_from(self, other: "Metering") -> None:
        """Accumulate another book into this one (fleet/group rollups)."""
        for op, rec in other.ops.items():
            out = self.ops.setdefault(op, OpRecord())
            out.count += rec.count
            out.items += rec.items
            out.bytes_read += rec.bytes_read
            out.bytes_written += rec.bytes_written
            out.read_units += rec.read_units
            out.write_units += rec.write_units
            out.eventual_count += rec.eventual_count
        self.per_table.update(other.per_table)
        self.per_table_eventual.update(other.per_table_eventual)

    def copy(self) -> "Metering":
        clone = Metering(enabled=self.enabled)
        for op, rec in self.ops.items():
            clone.ops[op] = OpRecord(rec.count, rec.items,
                                     rec.bytes_read, rec.bytes_written,
                                     rec.read_units, rec.write_units,
                                     rec.eventual_count)
        clone.per_table = Counter(self.per_table)
        clone.per_table_eventual = Counter(self.per_table_eventual)
        return clone
