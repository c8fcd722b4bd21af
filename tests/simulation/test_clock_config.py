"""Tests for the simulation calendar helpers and configuration."""

from hypothesis import given, strategies as st

from repro.simulation.clock import (
    US_PER_DAY,
    date_us,
    day_key,
    day_range,
    iso_timestamp,
    month_key,
    us_to_datetime,
)
from repro.simulation.config import PAPER, SimulationConfig


class TestCalendar:
    def test_date_us_epoch(self):
        assert date_us("1970-01-01") == 0

    def test_date_us_known(self):
        assert date_us("1970-01-02") == US_PER_DAY

    def test_datetime_form(self):
        assert date_us("2024-03-06T12:00:00") == date_us("2024-03-06") + 12 * 3600 * 1_000_000

    def test_round_trip_date(self):
        t = date_us("2024-04-24")
        assert str(us_to_datetime(t).date()) == "2024-04-24"

    def test_month_key(self):
        assert month_key(date_us("2024-03-15")) == "2024-03"

    def test_day_key(self):
        assert day_key(date_us("2024-03-15") + 5000) == "2024-03-15"

    def test_iso_timestamp(self):
        assert iso_timestamp(0) == "1970-01-01T00:00:00.000Z"

    def test_day_range(self):
        start = date_us("2024-01-01")
        days = list(day_range(start, start + 3 * US_PER_DAY))
        assert days == [start, start + US_PER_DAY, start + 2 * US_PER_DAY]

    def test_day_range_aligns(self):
        start = date_us("2024-01-01") + 500
        days = list(day_range(start, start + US_PER_DAY))
        assert all(day % US_PER_DAY == 0 for day in days)


class TestConfig:
    def test_paper_constants_sanity(self):
        assert PAPER["users"] == 5_523_919
        assert PAPER["labelers_announced"] == 62
        assert PAPER["feed_generators_reachable"] == 40_398
        assert abs(PAPER["share_commit"] - 0.9978) < 1e-9

    def test_scaled_user_count(self):
        config = SimulationConfig(scale=1 / 1000)
        assert config.n_users == int(5_523_919 / 1000)

    def test_minimum_floors(self):
        config = SimulationConfig(scale=1e-9, feed_scale=1e-9)
        assert config.n_users >= 50
        assert config.n_feed_generators >= 20

    def test_labelers_never_scaled(self):
        assert SimulationConfig(scale=1e-9).n_labelers == 62
        assert SimulationConfig(scale=1.0).n_labelers == 62

    def test_presets_are_ordered_by_size(self):
        assert SimulationConfig.tiny().n_users < SimulationConfig.small().n_users
        assert SimulationConfig.small().n_users < SimulationConfig.bench().n_users


@given(st.integers(min_value=0, max_value=4 * 10**15))
def test_day_key_matches_month_key_prefix(t):
    assert day_key(t).startswith(month_key(t))
