"""Crawl rate limiting.

The paper's ethics section: *"Prior to initiating our scans, we contacted
the Bluesky team to agree upon a scanning rate that would not disrupt the
normal functioning of their service."*  This module provides the token
bucket the collectors use to honour such an agreement, operating on
simulated time so a crawl's wall-clock footprint can be computed — the
paper's repository snapshot took 10 days at the negotiated rate.
"""

from __future__ import annotations

import math

US_PER_SECOND = 1_000_000


class TokenBucket:
    """A token bucket over microsecond timestamps.

    ``acquire(now_us)`` returns the time at which the request may proceed
    (equal to ``now_us`` when tokens are available, later otherwise), and
    accounts for the spend.  Deterministic and clock-agnostic: callers
    decide whether to sleep, fast-forward, or just record the schedule.
    """

    def __init__(self, rate_per_second: float, burst: float = 1.0):
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one request")
        self.rate = rate_per_second
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated_us = 0

    def _refill(self, now_us: int) -> None:
        if now_us > self._updated_us:
            elapsed_s = (now_us - self._updated_us) / US_PER_SECOND
            self._tokens = min(self.burst, self._tokens + elapsed_s * self.rate)
            self._updated_us = now_us

    def acquire(self, now_us: int) -> int:
        """Reserve one token; returns the scheduled execution time."""
        self._refill(max(now_us, self._updated_us))
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return max(now_us, self._updated_us)
        deficit = 1.0 - self._tokens
        # Round *up*: truncating schedules requests fractionally early, and
        # over a 10-day crawl the accumulated sub-microsecond credits drift
        # the effective rate above the negotiated one.
        wait_us = math.ceil(deficit / self.rate * US_PER_SECOND)
        self._tokens = 0.0
        self._updated_us = max(now_us, self._updated_us) + wait_us
        return self._updated_us
