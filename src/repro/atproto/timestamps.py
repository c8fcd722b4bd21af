"""ISO-8601 timestamps, the form of every ``createdAt`` and wire ``time``.

Records and firehose frames carry datetimes as text with millisecond
precision and a ``Z`` suffix, e.g. ``2024-04-13T09:20:00.123Z``.  The
simulation and the frame encoder both render microseconds since the Unix
epoch this way, once per record or frame, so the rendering uses integer
arithmetic and :meth:`datetime.date.fromordinal` rather than building and
formatting a ``datetime`` object.
"""

from __future__ import annotations

from datetime import date

_US_PER_DAY = 86_400_000_000
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def iso_timestamp(time_us: int) -> str:
    """ISO-8601 rendering with millisecond precision and Z suffix."""
    days, day_us = divmod(time_us, _US_PER_DAY)
    day = date.fromordinal(_EPOCH_ORDINAL + days)
    seconds, millis = divmod(day_us // 1000, 1000)
    minutes, second = divmod(seconds, 60)
    hour, minute = divmod(minutes, 60)
    return "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" % (
        day.year,
        day.month,
        day.day,
        hour,
        minute,
        second,
        millis,
    )
