"""Timestamp identifiers (TIDs).

TIDs are 13-character, lexicographically sortable record keys derived from a
64-bit value: the top bit is zero, the next 53 bits are microseconds since
the Unix epoch, and the low 10 bits are a per-writer "clock identifier" that
keeps concurrently generated TIDs distinct.  They are rendered in the
``base32-sortable`` alphabet ``234567abcdefghijklmnopqrstuvwxyz``.
"""

from __future__ import annotations

SORTABLE_ALPHABET = "234567abcdefghijklmnopqrstuvwxyz"
_SORT_INDEX = {c: i for i, c in enumerate(SORTABLE_ALPHABET)}
# Every 10-bit value as its two characters: a TID is one character for the
# top 3 bits and six pairs for the remaining 60.
_PAIRS = tuple(a + b for a in SORTABLE_ALPHABET for b in SORTABLE_ALPHABET)

TID_LENGTH = 13
_MICROS_BITS = 53
_CLOCK_BITS = 10
MAX_MICROS = (1 << _MICROS_BITS) - 1
MAX_CLOCK_ID = (1 << _CLOCK_BITS) - 1


class TidError(ValueError):
    """Raised on malformed TIDs."""


class Tid:
    """A parsed TID; ordering follows the encoded string (and so time)."""

    __slots__ = ("micros", "clock_id")

    def __init__(self, micros: int, clock_id: int):
        if not 0 <= micros <= MAX_MICROS:
            raise TidError("timestamp out of range: %d" % micros)
        if not 0 <= clock_id <= MAX_CLOCK_ID:
            raise TidError("clock id out of range: %d" % clock_id)
        self.micros = micros
        self.clock_id = clock_id

    def to_int(self) -> int:
        return (self.micros << _CLOCK_BITS) | self.clock_id

    @classmethod
    def from_int(cls, value: int) -> "Tid":
        if not 0 <= value < (1 << 63):
            raise TidError("TID integer out of range")
        return cls(value >> _CLOCK_BITS, value & MAX_CLOCK_ID)

    def __str__(self) -> str:
        # The clock id is exactly the low pair; the micros fill the rest.
        micros = self.micros
        pairs = _PAIRS
        return "".join(
            (
                SORTABLE_ALPHABET[micros >> 50],
                pairs[(micros >> 40) & 0x3FF],
                pairs[(micros >> 30) & 0x3FF],
                pairs[(micros >> 20) & 0x3FF],
                pairs[(micros >> 10) & 0x3FF],
                pairs[micros & 0x3FF],
                pairs[self.clock_id],
            )
        )

    @classmethod
    def parse(cls, text: str) -> "Tid":
        if len(text) != TID_LENGTH:
            raise TidError("TID must be %d characters, got %d" % (TID_LENGTH, len(text)))
        value = 0
        for char in text:
            if char not in _SORT_INDEX:
                raise TidError("invalid TID character %r" % char)
            value = (value << 5) | _SORT_INDEX[char]
        if value >> 63:
            raise TidError("TID top bit must be zero")
        return cls.from_int(value)

    @classmethod
    def is_valid(cls, text: str) -> bool:
        try:
            cls.parse(text)
        except TidError:
            return False
        return True

    def __repr__(self) -> str:
        return "Tid(%s)" % str(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tid):
            return NotImplemented
        return self.to_int() == other.to_int()

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Tid):
            return NotImplemented
        return self.to_int() < other.to_int()

    def __hash__(self) -> int:
        return hash(self.to_int())


class TidClock:
    """Generates strictly increasing TIDs for one writer.

    Real implementations use the wall clock; the simulator drives this from
    its own clock so runs are reproducible.  If asked for a TID at a
    timestamp not later than the previous one, the clock nudges forward by
    one microsecond, preserving strict monotonicity.
    """

    def __init__(self, clock_id: int = 0):
        if not 0 <= clock_id <= MAX_CLOCK_ID:
            raise TidError("clock id out of range: %d" % clock_id)
        self.clock_id = clock_id
        self._last_micros = -1

    def next_tid(self, now_micros: int) -> Tid:
        if now_micros <= self._last_micros:
            now_micros = self._last_micros + 1
        self._last_micros = now_micros
        return Tid(now_micros, self.clock_id)
