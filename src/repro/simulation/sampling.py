"""A weighted sampler for the simulation hot loop.

``random.Random.choices`` rebuilds its cumulative-weight table on *every*
call — an O(n) scan that the engine used to pay once per like, once per
day-activity draw, and once per block at full population size.
:class:`CumulativeSampler` keeps that table warm: cached cumulative
weights maintained incrementally as items are appended.  Sampling is a
single uniform draw plus a binary search, and is **bit-compatible with**
``random.Random.choices(items, weights=w, k=...)``: the cumulative sums
are built with the same left-to-right float additions and the same
``bisect_right`` convention, so swapping one in does not perturb a
seeded RNG stream.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Generic, Iterable, Optional, TypeVar

T = TypeVar("T")


class SamplingError(ValueError):
    """Raised on invalid sampler construction or empty draws."""


class CumulativeSampler(Generic[T]):
    """Incrementally maintained weighted sampler.

    Appending is O(1); sampling is O(log n).  The item list is exposed as
    ``.items`` for callers that also need uniform access (it must not be
    mutated except through :meth:`append` / :meth:`extend`).
    """

    __slots__ = ("items", "_cum")

    def __init__(
        self,
        items: Iterable[T] = (),
        weights: Optional[Iterable[float]] = None,
    ):
        self.items: list[T] = list(items)
        if weights is None:
            cum: list[float] = []
            total = 0.0
            for _ in self.items:
                total += 1.0
                cum.append(total)
        else:
            cum = []
            total = 0.0
            for weight in weights:
                total += weight
                cum.append(total)
        if len(cum) != len(self.items):
            raise SamplingError("weights must match items")
        self._cum = cum

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def append(self, item: T, weight: float) -> None:
        if weight < 0:
            raise SamplingError("weights must be non-negative")
        self._cum.append((self._cum[-1] if self._cum else 0.0) + weight)
        self.items.append(item)

    def sample(self, rng: random.Random) -> T:
        """One weighted draw; mirrors ``rng.choices(items, weights, k=1)[0]``."""
        items = self.items
        if not items:
            raise SamplingError("cannot sample from an empty sampler")
        cum = self._cum
        total = cum[-1] + 0.0
        if total <= 0.0:
            raise SamplingError("total weight must be positive")
        return items[bisect_right(cum, rng.random() * total, 0, len(items) - 1)]

    def sample_k(self, rng: random.Random, k: int) -> list[T]:
        """``k`` independent weighted draws (with replacement), identical to
        ``rng.choices(items, weights=..., k=k)`` for the same RNG state."""
        items = self.items
        if not items:
            raise SamplingError("cannot sample from an empty sampler")
        cum = self._cum
        total = cum[-1] + 0.0
        if total <= 0.0:
            raise SamplingError("total weight must be positive")
        hi = len(items) - 1
        uniform = rng.random
        return [items[bisect_right(cum, uniform() * total, 0, hi)] for _ in range(k)]
