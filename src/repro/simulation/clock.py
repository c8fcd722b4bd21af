"""Simulation time.

All timestamps are microseconds since the Unix epoch (matching TIDs).  The
simulation runs on real calendar dates — Bluesky launched in November 2022,
opened to the public in February 2024, and the paper measured through May
2024 — so analysis code can bucket by real months and days.

``iso_timestamp`` (the ``createdAt`` rendering) lives in
:mod:`repro.atproto.timestamps`, since the protocol layer renders the same
form for firehose frames and must not import the simulation; it is
re-exported here for the simulation's callers.
"""

from __future__ import annotations

import datetime

from repro.atproto.timestamps import iso_timestamp  # noqa: F401  (re-exported)

US_PER_SECOND = 1_000_000
US_PER_MINUTE = 60 * US_PER_SECOND
US_PER_HOUR = 60 * US_PER_MINUTE
US_PER_DAY = 24 * US_PER_HOUR

_EPOCH = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)


def date_us(text: str) -> int:
    """Microseconds for an ISO date ('2024-03-06') or datetime."""
    if "T" in text:
        moment = datetime.datetime.fromisoformat(text.replace("Z", "+00:00"))
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=datetime.timezone.utc)
    else:
        parts = [int(p) for p in text.split("-")]
        moment = datetime.datetime(*parts, tzinfo=datetime.timezone.utc)
    return int((moment - _EPOCH).total_seconds() * US_PER_SECOND)


def us_to_datetime(time_us: int) -> datetime.datetime:
    return _EPOCH + datetime.timedelta(microseconds=time_us)


def month_key(time_us: int) -> str:
    """'YYYY-MM' bucket for a timestamp."""
    moment = us_to_datetime(time_us)
    return "%04d-%02d" % (moment.year, moment.month)


def day_key(time_us: int) -> str:
    """'YYYY-MM-DD' bucket for a timestamp."""
    moment = us_to_datetime(time_us)
    return "%04d-%02d-%02d" % (moment.year, moment.month, moment.day)


def day_range(start_us: int, end_us: int):
    """Yield the start-of-day microsecond for every day in [start, end)."""
    day = (start_us // US_PER_DAY) * US_PER_DAY
    while day < end_us:
        if day >= start_us:
            yield day
        day += US_PER_DAY
