"""Runtime values, and the order-preserving byte encoding that defines
their order.

Every value that can appear in a stored tuple has exactly one class here, a
``tuple`` subclass whose first item tags its kind, and one key encoding,
concatenated in domain order:

  int        ('i', n)              8 bytes, two's complement, sign bit
                                   flipped (big-endian)
  real       ('r', x)              8 bytes, IEEE-754 bits; positive values
                                   flip the sign bit, negative ones all
                                   bits (-0.0 is held as 0.0; NaN and
                                   infinities are refused)
  text       ('t', s)              UTF-8, NUL escaped as 0x01 0x01 and 0x01
                                   as 0x01 0x02, ended by 0x00 (so no text
                                   key is a prefix of another)
  timestamp  ('d', y, m, d)        three int encodings; an absent month or
                                   day is 0
  ref        ('#', rel, row)       8 bytes, the target's row id
  tuple      ('{', rel, values)    its members' encodings (inline value)

Each class checks its value when built, carries no ``__dict__``, copies and
pickles by its fields, and reads them through properties (an absent month
or day reads None). So a value's equality, hash and order are tuple
operations that run in C, and ``IntVal(1)`` and ``RealVal(1.0)`` differ by
their tags. Each encoding keeps its kind's order, and none is a prefix of
another of its kind, so tuples of one shape order as their keys do. That is
why the engine never encodes: every set and every index is keyed by the
tuples themselves, and a relation's storage and scan order is their order.
The encoding stays as the written contract of that order, which the tests
check the tuples against. ``encode_value`` and ``encode_tuple`` find each
value's encoder in one table keyed by its exact class (``_ENCODERS``); a
value of any other type has no key and raises ``TypeError``.
"""

from __future__ import annotations

import math
import re
import struct
from itertools import repeat
from operator import itemgetter
from typing import Optional, Tuple, Union

from .errors import BadCast, DomainTypeMismatch, echo

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_SIGN = 1 << 63
_MASK = (1 << 64) - 1


class _Value(tuple):
    __slots__ = ()

    def __getnewargs__(self):
        # copy and pickle rebuild a value from its fields, after the tag
        return self[1:]


class IntVal(_Value):
    __slots__ = ()

    def __new__(cls, value: int):
        if not INT64_MIN <= value <= INT64_MAX:
            raise DomainTypeMismatch(f"integer out of 64-bit range: {echo(str(value), quote=False)}")
        return tuple.__new__(cls, ("i", value))

    value = property(itemgetter(1))


class RealVal(_Value):
    __slots__ = ()

    def __new__(cls, value: float):
        if not math.isfinite(value):
            raise DomainTypeMismatch("non-finite real is not representable")
        if value == 0.0:
            value = 0.0  # collapse -0.0
        return tuple.__new__(cls, ("r", value))

    value = property(itemgetter(1))


class TextVal(_Value):
    __slots__ = ()

    def __new__(cls, value: str):
        # a lone surrogate has no UTF-8 encoding, so no key
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise DomainTypeMismatch("text holds a lone surrogate") from None
        return tuple.__new__(cls, ("t", value))

    value = property(itemgetter(1))


class TimestampVal(_Value):
    """A calendar instant ordered by (astronomical year, month, day)."""

    __slots__ = ()

    def __new__(cls, year: int, month: Optional[int] = None, day: Optional[int] = None):
        return tuple.__new__(cls, ("d", year, month or 0, day or 0))

    year = property(itemgetter(1))
    month = property(lambda self: self[2] or None)
    day = property(lambda self: self[3] or None)


class RefVal(_Value):
    """Reference to a row of a simple relation. Never visible in output."""

    __slots__ = ()

    def __new__(cls, relation: str, row: int):
        return tuple.__new__(cls, ("#", relation, row))

    relation = property(itemgetter(1))
    row = property(itemgetter(2))


class TupleVal(_Value):
    """Inline complex value: a tuple conforming to a domain-class relation."""

    __slots__ = ()

    def __new__(cls, relation: str, values: Tuple["Value", ...]):
        return tuple.__new__(cls, ("{", relation, tuple(values)))

    relation = property(itemgetter(1))
    values = property(itemgetter(2))


Value = Union[IntVal, RealVal, TextVal, TimestampVal, RefVal, TupleVal]


# --- columns -------------------------------------------------------------------
# Values of one class built a column at a time, in C: each is the very value
# its class builds, and a column is checked once where the class checks
# each value.


def text_column(texts) -> list:
    """``TextVal`` of each text; a lone surrogate in any raises as
    ``TextVal`` raises."""
    joined = "".join(texts)
    if not joined.isascii():
        TextVal(joined)
    return list(map(tuple.__new__, repeat(TextVal), zip(repeat("t"), texts)))


def ref_column(relation: str, rows) -> list:
    """``RefVal`` of each row of the relation."""
    return list(map(tuple.__new__, repeat(RefVal), zip(repeat("#"), repeat(relation), rows)))


def tuple_column(relation: str, members) -> list:
    """``TupleVal`` of each tuple of members, an inline value of the
    relation."""
    return list(map(tuple.__new__, repeat(TupleVal), zip(repeat("{"), repeat(relation), members)))


# --- timestamp literals -----------------------------------------------------

_BC = re.compile(r"(\d{1,9})\s+BC\Z")
_YMD = re.compile(r"([+-]?)(\d{1,9})(?:-(\d{2})(?:-(\d{2}))?)?\Z")


def parse_timestamp(text: str) -> TimestampVal:
    """Parse a timestamp literal: '±YYYY[-MM[-DD]]' or '<year> BC'.

    BC years normalize to astronomical numbering (1 BC is year 0, so
    '800 BC' becomes year -799).
    """
    s = text.strip()
    m = _BC.fullmatch(s)
    if m:
        return TimestampVal(year=1 - int(m.group(1)))
    m = _YMD.fullmatch(s)
    if m is None:
        raise BadCast(f"not a timestamp literal: {echo(text)}")
    sign, year_digits, month, day = m.groups()
    year = int(year_digits)
    if sign == "-":
        year = -year
    month_n = int(month) if month is not None else None
    day_n = int(day) if day is not None else None
    if month_n is not None and not 1 <= month_n <= 12:
        raise BadCast(f"month out of range in timestamp: {echo(text)}")
    if day_n is not None and not 1 <= day_n <= 31:
        raise BadCast(f"day out of range in timestamp: {echo(text)}")
    return TimestampVal(year, month_n, day_n)


def render_timestamp(ts: TimestampVal) -> str:
    """Canonical literal: signed, zero-padded to at least four year digits."""
    _tag, year, month, day = ts  # an absent part is 0
    out = f"{'-' if year < 0 else '+'}{abs(year):04d}"
    if month:
        out += f"-{month:02d}-{day:02d}" if day else f"-{month:02d}"
    return out


# --- canonical literals (quoting) -------------------------------------------

_TEXT_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_UNESCAPES = {'"': '"', "'": "'", "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


def quote_text(s: str) -> str:
    return '"' + s.translate(_TEXT_ESCAPES) + '"'


def unescape_char(ch: str) -> str:
    """Resolve the character following a backslash inside a text literal."""
    return _UNESCAPES.get(ch, "\\" + ch)


_ESCAPE = re.compile(r"\\(.)", re.S)


def unescape_text(body: str) -> str:
    """Resolve every backslash escape in the body of a text literal."""
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: unescape_char(m[1]), body)


def render_scalar(v: Value) -> str:
    """Canonical literal for a scalar value (refs and tuples not included)."""
    if isinstance(v, IntVal):
        return str(v.value)
    if isinstance(v, RealVal):
        return repr(v.value)
    if isinstance(v, TextVal):
        return quote_text(v.value)
    if isinstance(v, TimestampVal):
        return render_timestamp(v)
    raise TypeError(f"not a scalar: {v!r}")


# --- key encoding ------------------------------------------------------------


def encode_int(v: int) -> bytes:
    if not INT64_MIN <= v <= INT64_MAX:
        raise DomainTypeMismatch(f"integer out of 64-bit range: {echo(str(v), quote=False)}")
    return (((v & _MASK) ^ _SIGN)).to_bytes(8, "big")


def encode_real(v: float) -> bytes:
    if math.isnan(v):
        raise DomainTypeMismatch("NaN has no key encoding")
    bits = struct.unpack(">Q", struct.pack(">d", v))[0]
    if bits & _SIGN:
        bits ^= _MASK
    else:
        bits ^= _SIGN
    return bits.to_bytes(8, "big")


def encode_text(s: str) -> bytes:
    if "\x00" in s or "\x01" in s:
        return s.encode("utf-8").replace(b"\x01", b"\x01\x02").replace(b"\x00", b"\x01\x01") + b"\x00"
    return s.encode("utf-8") + b"\x00"


def encode_timestamp(ts: TimestampVal) -> bytes:
    _tag, year, month, day = ts
    if not (-_SIGN <= year < _SIGN and -_SIGN <= month < _SIGN and -_SIGN <= day < _SIGN):
        raise DomainTypeMismatch(f"timestamp part out of 64-bit range: {ts!r}")
    # three int encodings at once: v + 2**63 is v's flipped two's complement
    return ((year + _SIGN) << 128 | (month + _SIGN) << 64 | (day + _SIGN)).to_bytes(24, "big")


def _unencodable(v) -> bytes:
    raise TypeError(f"unencodable value: {v!r}")


# Key encoders by value class, reading each field by its place in the
# value's tuple. An IntVal's range was checked when it was built, so its
# encoder is ``encode_int`` without the check.
_ENCODERS = {
    IntVal: lambda v: (v[1] + _SIGN).to_bytes(8, "big"),
    RealVal: lambda v: encode_real(v[1]),
    TextVal: lambda v: encode_text(v[1]),
    TimestampVal: encode_timestamp,
    RefVal: lambda v: v[2].to_bytes(8, "big"),
    TupleVal: lambda v: encode_tuple(v[2]),
}


def encode_value(v: Value) -> bytes:
    return _ENCODERS.get(type(v), _unencodable)(v)


def encode_tuple(values) -> bytes:
    encoders = _ENCODERS
    return b"".join([encoders.get(type(v), _unencodable)(v) for v in values])
