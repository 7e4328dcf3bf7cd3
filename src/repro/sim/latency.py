"""Latency distributions for simulated primitives.

Beldi's evaluation runs over DynamoDB and AWS Lambda; all absolute numbers
in the paper come from those services. We model each primitive (database
read, conditional write, scan, Lambda dispatch, cold start, ...) as a
lognormal distribution calibrated so that the *baseline* medians land near
the paper's Figure 13 baseline bars. Everything Beldi adds on top (extra
scans, log writes, callbacks) is *not* calibrated — it emerges from the
protocol's operation counts.

Times are virtual milliseconds throughout the repository.

Invariants this layer must uphold (see ``docs/architecture.md``):

- **Determinism.** Every sample is drawn from a named
  :class:`~repro.sim.randsrc.RandomSource` stream; for a given seed and
  call order the sequence of draws — and therefore every virtual
  timestamp in a run — is reproducible. Nothing here reads wall-clock
  time or process-global randomness.
- **Latency is additive, never causal.** A sample is how long an
  operation *takes*, not whether it happens: the store applies its table
  mutation regardless of the drawn duration, so correctness (exactly-once,
  atomicity) can never depend on a latency value. This is what makes the
  async overlap machinery (:mod:`repro.kvstore.asyncio`) safe — deferring
  or collapsing sleeps changes *when* virtual time passes, not *what* the
  store contains.
- **Queueing is arrival-ordered.** :class:`ServiceCapacity` reserves a
  server at arrival and never reorders: a given arrival sequence yields
  one deterministic schedule, even when overlapped I/O presents many
  arrivals at the same instant (they are served in issue order).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.randsrc import RandomSource

_exp, _log = math.exp, math.log
#: ``random.NV_MAGICCONST``, the normal sampler's constant.
_NV_MAGICCONST = 4 * _exp(-0.5) / math.sqrt(2.0)


def lognormal_from_median(median: float, p99: float) -> tuple[float, float]:
    """Return ``(mu, sigma)`` of a lognormal with the given median and p99.

    For a lognormal, ``median = exp(mu)`` and
    ``p99 = exp(mu + 2.326 * sigma)``.
    """
    if median <= 0 or p99 < median:
        raise ValueError(f"need 0 < median <= p99, got {median}, {p99}")
    mu = math.log(median)
    z99 = 2.3263478740408408  # Phi^-1(0.99)
    sigma = (math.log(p99) - mu) / z99 if p99 > median else 0.0
    return mu, sigma


@dataclass(frozen=True)
class LatencySpec:
    """One primitive's latency distribution.

    ``median``/``p99`` parameterize a lognormal body; ``per_unit`` adds a
    deterministic cost per unit of work (e.g. per row returned by a scan,
    per KB transferred) so that structurally bigger operations cost more.
    """

    median: float
    p99: float
    per_unit: float = 0.0

    def params(self) -> tuple[float, float]:
        return lognormal_from_median(self.median, self.p99)


# Calibration targets (virtual ms). Baseline bars in Figure 13 sit around
# 4-8 ms median / 10-25 ms p99 for single-row DynamoDB operations, and the
# baseline invoke (a warm Lambda round trip) around 12-15 ms.
DEFAULT_SPECS: Dict[str, LatencySpec] = {
    "db.read": LatencySpec(median=4.0, p99=12.0),
    "db.write": LatencySpec(median=5.0, p99=16.0),
    "db.cond_write": LatencySpec(median=5.5, p99=17.0),
    "db.delete": LatencySpec(median=5.0, p99=16.0),
    "db.scan": LatencySpec(median=4.5, p99=14.0, per_unit=0.08),
    "db.query": LatencySpec(median=4.2, p99=13.0, per_unit=0.08),
    # BatchGetItem: one round trip amortized over many rows — the base
    # cost of a read plus a small per-row marginal (server-side fan-out).
    "db.batch_read": LatencySpec(median=4.5, p99=14.0, per_unit=0.05),
    # BatchWriteItem: the write-side twin — one round trip whose base
    # cost matches a plain write, plus a per-item marginal slightly above
    # the read batch's (writes are heavier server-side).
    "db.batch_write": LatencySpec(median=5.0, p99=16.0, per_unit=0.06),
    # TransactWriteItems: two-phase accept/commit under the hood — roughly
    # the cost of two sequential conditional writes per item plus
    # coordination (observed well above 2x a plain write in practice).
    "db.txn": LatencySpec(median=20.0, p99=70.0, per_unit=3.0),
    # Replication log shipping: how long one committed write takes to
    # land on an eventually consistent replica (the visible staleness of
    # a follower read). DynamoDB documents eventual reads as "usually"
    # current within a second; cross-AZ shipping sits in the tens of ms.
    "repl.ship": LatencySpec(median=15.0, p99=120.0),
    # Leader failover: detect + promote + replay the unacked log suffix.
    "repl.failover": LatencySpec(median=150.0, p99=600.0, per_unit=0.02),
    "lambda.dispatch": LatencySpec(median=12.0, p99=35.0),
    "lambda.cold_start": LatencySpec(median=120.0, p99=400.0),
    "lambda.compute": LatencySpec(median=5.0, p99=14.0),
    "lambda.async_ack": LatencySpec(median=6.0, p99=18.0),
}


class LatencyModel:
    """Samples virtual-time costs for named primitives.

    A ``scale`` of 0 makes every operation instantaneous, which unit tests
    use to exercise logic without paying simulated time.
    """

    def __init__(self, rand: RandomSource,
                 specs: Optional[Dict[str, LatencySpec]] = None,
                 scale: float = 1.0) -> None:
        specs = {**DEFAULT_SPECS, **(specs or {})}
        self.scale = scale
        # Compiled draw table: one dict hit resolves everything sample()
        # needs — (mu, sigma, per_unit, median) — instead of two lookups
        # plus attribute chases per draw (the hottest non-kernel path).
        self._compiled = {
            name: (*spec.params(), spec.per_unit, spec.median)
            for name, spec in specs.items()}
        self._random = rand.stream.random

    def sample(self, name: str, units: float = 0.0) -> float:
        """Draw a latency for primitive ``name`` plus ``units`` of work."""
        entry = self._compiled.get(name)
        if entry is None:
            raise KeyError(f"unknown latency primitive: {name}")
        scale = self.scale
        if scale == 0.0:
            return 0.0
        mu, sigma, per_unit, median = entry
        if sigma == 0.0:
            body = median
        else:
            # ``random.lognormvariate`` in one frame: CPython's (3.11-3.13)
            # Kinderman-Monahan loop, the same draws and arithmetic
            # (tests/sim/test_latency_and_rand.py::TestInlineDraw).
            random = self._random
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    break
            body = _exp(mu + z * sigma)
        # ``body + per_unit * 0.0 == body`` exactly (body > 0), so the
        # no-units fast path is bit-identical to the full expression.
        if units:
            return (body + per_unit * units) * scale
        return body * scale

    @classmethod
    def zero(cls) -> "LatencyModel":
        """A model where everything takes no virtual time."""
        return cls(RandomSource(0), scale=0.0)


class ServiceCapacity:
    """A ``c``-server FIFO queue in virtual time.

    Models the bounded parallelism of one store node: at most ``servers``
    operations are in service at once, and excess arrivals wait for the
    earliest server to free up. Latency distributions stay the node's
    *service* times; this class turns them into *sojourn* times (queueing
    delay + service), which is what makes a saturated node visible and
    sharding worthwhile — N nodes bring N x ``servers`` aggregate
    capacity.

    The reservation is made at arrival and never released early, so a
    given arrival order yields a deterministic schedule regardless of how
    the simulated processes interleave afterwards.
    """

    def __init__(self, servers: int) -> None:
        if servers <= 0:
            raise ValueError(f"need at least one server, got {servers}")
        self.servers = servers
        self._free_at = [0.0] * servers
        heapq.heapify(self._free_at)
        self.stats_waited = 0.0
        self.stats_served = 0

    def delay(self, now: float, service_time: float) -> float:
        """Reserve a server at ``now``; return wait + service time."""
        free = self._free_at
        if len(free) == 1:
            # Single-server fast path: no heap churn for the default
            # per-node capacity (identical arithmetic, same result).
            earliest = free[0]
            start = max(now, earliest)
            free[0] = start + service_time
        else:
            earliest = heapq.heappop(free)
            start = max(now, earliest)
            heapq.heappush(free, start + service_time)
        self.stats_waited += start - now
        self.stats_served += 1
        return (start - now) + service_time

    def busy_until(self) -> float:
        """When the most-loaded server frees up (observability)."""
        return max(self._free_at)
