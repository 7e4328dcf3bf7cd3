"""Latency recording: percentiles and time-bucketed series."""

from __future__ import annotations

import math
from typing import Optional


class LatencyRecorder:
    """Collects completion latencies (virtual ms) with outcome labels."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.outcomes: dict[str, int] = {}
        #: Timestamped event log: ``(start, outcome, latency-or-None)``.
        #: Completions always land here; failures only when the caller
        #: passes their arrival time — phase-sliced analyses (goodput
        #: during/after a fault window) need to attribute every request
        #: to the phase it *arrived* in.
        self.events: list[tuple[float, str, Optional[float]]] = []

    def record(self, start: float, end: float, outcome: str = "ok") -> None:
        latency = end - start
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.events.append((start, outcome, latency))
        if outcome == "ok":
            self.samples.append(latency)

    def record_failure(self, outcome: str,
                       at: Optional[float] = None) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if at is not None:
            self.events.append((at, outcome, None))

    def window(self, start: float, end: float) -> "LatencyRecorder":
        """A sub-recorder of the events whose *arrival* fell in
        ``[start, end)`` — phase-sliced percentiles and outcome counts.
        Only timestamped events contribute (see :attr:`events`)."""
        out = LatencyRecorder()
        for at, outcome, latency in self.events:
            if start <= at < end:
                if latency is None:
                    out.record_failure(outcome, at=at)
                else:
                    out.record(at, at + latency, outcome)
        return out

    # -- aggregate statistics ------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.samples)

    def total(self, outcome: str) -> int:
        return self.outcomes.get(outcome, 0)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile; q in [0, 100]."""
        if not self.samples:
            return float("nan")
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        if not self.samples:
            return float("nan")
        return sum(self.samples) / len(self.samples)

    # -- time series (Fig. 16 uses median-per-interval) ------------------------
    def series(self, width: float,
               q: float = 50.0) -> list[tuple[float, float]]:
        """``(bucket start time, percentile)`` pairs, in time order: the
        completions bucketed by start time into ``width``-ms buckets."""
        buckets: dict[int, list[float]] = {}
        for start, outcome, latency in self.events:
            if outcome == "ok":
                buckets.setdefault(int(start // width), []).append(latency)
        points = []
        for index in sorted(buckets):
            samples = sorted(buckets[index])
            rank = max(1, math.ceil(q / 100.0 * len(samples)))
            points.append((index * width, samples[rank - 1]))
        return points

    def summary(self) -> dict:
        return {
            "count": self.count,
            "p50": round(self.p50, 3) if self.samples else None,
            "p99": round(self.p99, 3) if self.samples else None,
            "mean": round(self.mean, 3) if self.samples else None,
            "outcomes": dict(self.outcomes),
        }
