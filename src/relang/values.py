"""Runtime values and the order-preserving byte encoding used for index keys.

Every value that can appear in a stored tuple has exactly one class here.
The byte encoding is a bit-exact contract: keys define set identity, tuple
ordering, and scan order, so the encoding of each value kind must be stable
across runs and across machines.

Encoding per kind, concatenated in domain order:
  int        8 bytes, two's complement with the sign bit flipped (big-endian)
  real       8 bytes, IEEE-754 bits; positive values flip the sign bit,
             negative values flip all bits (total order, NaN unrepresentable)
  text       UTF-8 bytes, NUL escaped as 0x01 0x01 and 0x01 as 0x01 0x02,
             terminated by 0x00 (so no text key is a prefix of another)
  timestamp  year, month, day as three int encodings (absent parts encode 0)
  ref        8 bytes, the target row id (big-endian)
  tuple      the concatenation of its member encodings (inline complex value)

``encode_value`` and ``encode_tuple`` find each value's encoder in one
table keyed by its exact class (``_ENCODERS``); a value of any other type
has no key and raises ``TypeError``. The value classes are slotted frozen
dataclasses: an instance carries no ``__dict__``.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .errors import BadCast, DomainTypeMismatch, echo

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_SIGN = 1 << 63
_MASK = (1 << 64) - 1


@dataclass(frozen=True, slots=True)
class IntVal:
    value: int

    def __post_init__(self):
        if not INT64_MIN <= self.value <= INT64_MAX:
            raise DomainTypeMismatch(f"integer out of 64-bit range: {echo(str(self.value), quote=False)}")


@dataclass(frozen=True, slots=True)
class RealVal:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainTypeMismatch("non-finite real is not representable")
        if self.value == 0.0:
            object.__setattr__(self, "value", 0.0)  # collapse -0.0


@dataclass(frozen=True, slots=True)
class TextVal:
    value: str

    def __post_init__(self):
        # a lone surrogate has no UTF-8 encoding, so no key
        if not self.value.isascii():
            try:
                self.value.encode("utf-8")
            except UnicodeEncodeError:
                raise DomainTypeMismatch("text holds a lone surrogate") from None


@dataclass(frozen=True, slots=True)
class TimestampVal:
    """A calendar instant ordered by (astronomical year, month, day)."""

    year: int
    month: Optional[int] = None
    day: Optional[int] = None

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.year, self.month or 0, self.day or 0)


@dataclass(frozen=True, slots=True)
class RefVal:
    """Reference to a row of a simple relation. Never visible in output."""

    relation: str
    row: int


@dataclass(frozen=True, slots=True)
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
    sign = "-" if ts.year < 0 else "+"
    out = f"{sign}{abs(ts.year):04d}"
    if ts.month is not None:
        out += f"-{ts.month:02d}"
        if ts.day is not None:
            out += f"-{ts.day:02d}"
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
    year, month, day = ts.year, ts.month or 0, ts.day or 0
    if not (-_SIGN <= year < _SIGN and -_SIGN <= month < _SIGN and -_SIGN <= day < _SIGN):
        raise DomainTypeMismatch(f"timestamp part out of 64-bit range: {ts!r}")
    # three int encodings at once: v + 2**63 is v's flipped two's complement
    return ((year + _SIGN) << 128 | (month + _SIGN) << 64 | (day + _SIGN)).to_bytes(24, "big")


def _unencodable(v) -> bytes:
    raise TypeError(f"unencodable value: {v!r}")


# Key encoders by value class. An IntVal's range was checked when it was
# built, so its encoder is ``encode_int`` without the check.
_ENCODERS = {
    IntVal: lambda v: (v.value + _SIGN).to_bytes(8, "big"),
    RealVal: lambda v: encode_real(v.value),
    TextVal: lambda v: encode_text(v.value),
    TimestampVal: encode_timestamp,
    RefVal: lambda v: v.row.to_bytes(8, "big"),
    TupleVal: lambda v: encode_tuple(v.values),
}


def encode_value(v: Value) -> bytes:
    return _ENCODERS.get(type(v), _unencodable)(v)


def encode_tuple(values) -> bytes:
    encoders = _ENCODERS
    return b"".join([encoders.get(type(v), _unencodable)(v) for v in values])
