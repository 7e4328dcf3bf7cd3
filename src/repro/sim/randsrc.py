"""Seeded randomness with deterministic child streams.

Every stochastic component (latency sampling, workload arrival jitter,
crash injection, request content) draws from its own named child stream so
that adding a consumer never perturbs the draws seen by the others.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


class RandomSource:
    """A ``random.Random`` wrapper with named, reproducible children."""

    def __init__(self, seed: int = 0, path: str = "root") -> None:
        self.seed = seed
        self.path = path
        self._rng = random.Random((seed, path).__repr__())
        self._uuid_counter = 0

    def child(self, name: str) -> "RandomSource":
        """Derive an independent stream; same (seed, path) => same draws."""
        return RandomSource(self.seed, f"{self.path}/{name}")

    @property
    def stream(self) -> random.Random:
        """The ``random.Random`` behind every draw, for a hot loop that
        binds one of its methods (``LatencyModel.sample``)."""
        return self._rng

    # -- draws ---------------------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def choices(self, seq: Sequence[T], weights: Sequence[float],
                k: int = 1) -> list[T]:
        return self._rng.choices(seq, weights=weights, k=k)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def normal_index(self, n: int, spread: float = 0.25) -> int:
        """Pick an index in ``[0, n)`` from a truncated normal around n/2.

        Used by the travel workload: "randomly pick a hotel and a flight out
        of 100 choices each following a normal distribution" (paper §7.4).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        while True:
            draw = self._rng.gauss(n / 2.0, n * spread)
            idx = int(draw)
            if 0 <= idx < n:
                return idx

    def uuid(self) -> str:
        """A deterministic UUID-shaped unique string."""
        self._uuid_counter += 1
        body = self._rng.getrandbits(64)
        return f"{body:016x}-{self._uuid_counter:08x}"
