"""Tests for the crawl rate limiter."""

import pytest

from repro.netsim.ratelimit import TokenBucket

US = 1_000_000


class TestTokenBucket:
    def test_burst_passes_immediately(self):
        bucket = TokenBucket(rate_per_second=1.0, burst=5)
        t = 1_000 * US
        for _ in range(5):
            assert bucket.acquire(t) == t

    def test_past_burst_requests_are_scheduled(self):
        bucket = TokenBucket(rate_per_second=2.0, burst=1)
        t = 1_000 * US
        first = bucket.acquire(t)
        second = bucket.acquire(t)
        assert first == t
        assert second == t + US // 2  # 2 rps -> 0.5s spacing

    def test_steady_state_rate(self):
        bucket = TokenBucket(rate_per_second=10.0, burst=1)
        t = 0
        for _ in range(100):
            t = bucket.acquire(t)
        # 100 requests at 10 rps: ~9.9 seconds after the free first token.
        assert 9.5 * US <= t <= 10.5 * US

    def test_refill_after_idle(self):
        bucket = TokenBucket(rate_per_second=1.0, burst=3)
        t = bucket.acquire(0)
        bucket.acquire(t)
        bucket.acquire(t)
        # Fully drained; 10 idle seconds refill to burst again.
        later = 10 * US
        assert bucket.acquire(later) == later

    def test_request_counter(self):
        # Every request draws a token: seven at once leave at 1/rate steps.
        bucket = TokenBucket(rate_per_second=5.0)
        times = [bucket.acquire(0) for _ in range(7)]
        assert times == [k * US // 5 for k in range(7)]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_second=0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_second=1.0, burst=0)

    def test_schedule_duration(self):
        bucket = TokenBucket(rate_per_second=10.0, burst=10)
        times = [bucket.acquire(0) for _ in range(110)]
        assert times[9] == 0
        assert times[-1] == 10 * US

    def test_long_run_rate_never_exceeds_negotiated(self):
        """Over a long crawl the realized rate must stay at or below the
        negotiated one.  Fractional waits must round *up*: truncation lets
        sub-microsecond credits accumulate and quietly push the effective
        rate above the agreement (the paper's 6.4 rps ethics commitment).
        """
        # 6.4 is the paper's getRepo rate; 3.0 and 7.3 have waits that do
        # not divide a microsecond evenly, where truncation bites hardest.
        for rate in (6.4, 3.0, 7.3):
            bucket = TokenBucket(rate_per_second=rate, burst=1)
            t = 0
            n = 20_000
            for _ in range(n):
                t = bucket.acquire(t)
            elapsed_s = t / US
            realized = (n - 1) / elapsed_s  # first token is free (burst)
            assert realized <= rate + 1e-9, "rate %.1f exceeded" % rate

    def test_ceil_rounding_each_wait(self):
        """Every scheduled wait covers the full deficit (no early grants)."""
        bucket = TokenBucket(rate_per_second=3.0, burst=1)
        t = bucket.acquire(0)
        previous = t
        for _ in range(100):
            t = bucket.acquire(t)
            # 1/3 s spacing must never be truncated down to 333_333 us.
            assert t - previous >= 333_334
            previous = t


class TestCrawlDuration:
    def test_paper_repo_crawl_rate(self):
        """5.52M repos over 10 days implies ~6.4 requests per second."""
        bucket = TokenBucket(rate_per_second=6.4)
        last_us = [bucket.acquire(0) for _ in range(641)][-1]  # 640 waits
        days = last_us / US / 640 * 5_523_919 / 86_400
        assert 9.5 < days < 10.5

    def test_dataset_records_virtual_duration(self, study_datasets):
        repos = study_datasets.repositories
        assert repos.crawl_duration_us > 0
        # At the agreed 6.4 rps the tiny crawl takes under an hour...
        assert repos.crawl_duration_us < 3600 * US
        # ...but scaled to the paper's population it is about 10 days.
        per_repo_us = repos.crawl_duration_us / len(repos.records_per_repo)
        assert 9 < per_repo_us * 5_523_919 / US / 86_400 < 11
