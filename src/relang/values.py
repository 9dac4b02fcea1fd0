"""Runtime values and the order-preserving byte encoding used for index keys.

Every value that can appear in a stored tuple has exactly one class here.
The byte encoding is a bit-exact contract: keys define set identity, tuple
ordering, and scan order, so the encoding of each value kind must be stable
across runs and across machines.

Encoding per kind, concatenated in domain order:
  int        8 bytes, two's complement with the sign bit flipped (big-endian)
  real       8 bytes, IEEE-754 bits; positive values flip the sign bit,
             negative values flip all bits (total order, NaN unrepresentable)
  text       UTF-8 bytes, NUL escaped as 0x00 0xFF, terminated by bare 0x00
  timestamp  year, month, day as three int encodings (absent parts encode 0)
  ref        8 bytes, the target row id (big-endian)
  tuple      the concatenation of its member encodings (inline complex value)
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .errors import BadCast, DomainTypeMismatch

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_SIGN = 1 << 63
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class IntVal:
    value: int

    def __post_init__(self):
        if not INT64_MIN <= self.value <= INT64_MAX:
            raise DomainTypeMismatch(f"integer out of 64-bit range: {self.value}")


@dataclass(frozen=True)
class RealVal:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainTypeMismatch("non-finite real is not representable")
        if self.value == 0.0:
            object.__setattr__(self, "value", 0.0)  # collapse -0.0


@dataclass(frozen=True)
class TextVal:
    value: str

    def __post_init__(self):
        # a lone surrogate has no UTF-8 encoding, so no key
        if not self.value.isascii():
            try:
                self.value.encode("utf-8")
            except UnicodeEncodeError:
                raise DomainTypeMismatch("text holds a lone surrogate") from None


@dataclass(frozen=True)
class TimestampVal:
    """A calendar instant ordered by (astronomical year, month, day)."""

    year: int
    month: Optional[int] = None
    day: Optional[int] = None

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.year, self.month or 0, self.day or 0)


@dataclass(frozen=True)
class RefVal:
    """Reference to a row of a simple relation. Never visible in output."""

    relation: str
    row: int


@dataclass(frozen=True)
class TupleVal:
    """Inline complex value: a tuple conforming to a domain-class relation."""

    relation: str
    values: Tuple["Value", ...]


Value = Union[IntVal, RealVal, TextVal, TimestampVal, RefVal, TupleVal]


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
        raise BadCast(f"not a timestamp literal: {text!r}")
    sign, year_digits, month, day = m.groups()
    year = int(year_digits)
    if sign == "-":
        year = -year
    month_n = int(month) if month is not None else None
    day_n = int(day) if day is not None else None
    if month_n is not None and not 1 <= month_n <= 12:
        raise BadCast(f"month out of range in timestamp: {text!r}")
    if day_n is not None and not 1 <= day_n <= 31:
        raise BadCast(f"day out of range in timestamp: {text!r}")
    return TimestampVal(year, month_n, day_n)


def render_timestamp(ts: TimestampVal) -> str:
    """Canonical literal: signed, zero-padded to at least four year digits."""
    sign = "-" if ts.year < 0 else "+"
    out = f"{sign}{abs(ts.year):04d}"
    if ts.month is not None:
        out += f"-{ts.month:02d}"
        if ts.day is not None:
            out += f"-{ts.day:02d}"
    return out


# --- canonical literals (quoting) -------------------------------------------

_TEXT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESCAPES = {'"': '"', "'": "'", "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


def quote_text(s: str) -> str:
    return '"' + "".join(_TEXT_ESCAPES.get(ch, ch) for ch in s) + '"'


def unescape_char(ch: str) -> str:
    """Resolve the character following a backslash inside a text literal."""
    return _UNESCAPES.get(ch, "\\" + ch)


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
        raise DomainTypeMismatch(f"integer out of 64-bit range: {v}")
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
    return s.encode("utf-8").replace(b"\x00", b"\x00\xff") + b"\x00"


def encode_timestamp(ts: TimestampVal) -> bytes:
    return (
        encode_int(ts.year)
        + encode_int(ts.month or 0)
        + encode_int(ts.day or 0)
    )


def encode_value(v: Value) -> bytes:
    if isinstance(v, IntVal):
        return encode_int(v.value)
    if isinstance(v, RealVal):
        return encode_real(v.value)
    if isinstance(v, TextVal):
        return encode_text(v.value)
    if isinstance(v, TimestampVal):
        return encode_timestamp(v)
    if isinstance(v, RefVal):
        return v.row.to_bytes(8, "big")
    if isinstance(v, TupleVal):
        return b"".join(encode_value(x) for x in v.values)
    raise TypeError(f"unencodable value: {v!r}")


def encode_tuple(values) -> bytes:
    return b"".join(encode_value(v) for v in values)

