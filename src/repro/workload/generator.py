"""Key-popularity distributions: uniform and Zipf hot-key skew."""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Sequence

from repro.sim.randsrc import RandomSource


def zipf_weights(n_keys: int, s: float) -> list[float]:
    """Normalized Zipf(s) popularity over ranks ``1..n_keys``.

    ``weight[r] ∝ (r+1)^-s``; ``s=0`` degenerates to uniform. The head
    of the returned list is the hottest rank — callers decide which
    actual key each rank names.
    """
    if n_keys <= 0:
        raise ValueError(f"need at least one key, got {n_keys}")
    if s < 0:
        raise ValueError(f"Zipf exponent must be >= 0, got {s}")
    raw = [(rank + 1) ** -s for rank in range(n_keys)]
    total = sum(raw)
    return [w / total for w in raw]


class ZipfSampler:
    """Deterministic Zipf(s) rank sampler over ``n_keys`` ranks.

    Draws through a named :class:`~repro.sim.randsrc.RandomSource`
    stream via inverse-CDF lookup, so for a given seed the rank
    sequence is identical in every run — the property the elasticity
    benchmark (and its determinism test) relies on. ``sample`` returns
    a rank in ``[0, n_keys)``; rank 0 is the hottest.
    """

    def __init__(self, n_keys: int, s: float, rand: RandomSource) -> None:
        self.n_keys = n_keys
        self.s = s
        self.rand = rand
        self.weights = zipf_weights(n_keys, s)
        self._cdf = []
        acc = 0.0
        for weight in self.weights:
            acc += weight
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard the floating-point tail

    def sample(self) -> int:
        return min(bisect_right(self._cdf, self.rand.random()),
                   self.n_keys - 1)

    def sequence(self, count: int) -> list[int]:
        """The next ``count`` ranks (drains the stream deterministically)."""
        return [self.sample() for _ in range(count)]


def skewed_keys(keys: Sequence[Any], count: int, s: float,
                rand: RandomSource) -> list[Any]:
    """``count`` draws from ``keys`` with Zipf(s) popularity by position.

    ``keys[0]`` is the hottest key. ``s=0`` is uniform — the knob a
    workload flips between the balanced and hot-key regimes.
    """
    sampler = ZipfSampler(len(keys), s, rand)
    return [keys[rank] for rank in sampler.sequence(count)]
