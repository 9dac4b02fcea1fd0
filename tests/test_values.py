import copy
import pickle
import typing

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relang.errors import BadCast, DomainTypeMismatch
from relang import values
from relang.values import (
    INT64_MAX,
    INT64_MIN,
    IntVal,
    RealVal,
    RefVal,
    TextVal,
    TimestampVal,
    TupleVal,
    Value,
    encode_int,
    encode_real,
    encode_text,
    encode_timestamp,
    encode_tuple,
    encode_value,
    parse_timestamp,
    quote_text,
    render_timestamp,
)


class TestTimestampLiterals:
    def test_full_date(self):
        assert parse_timestamp("1941-03-26") == TimestampVal(1941, 3, 26)

    def test_year_only(self):
        assert parse_timestamp("1941") == TimestampVal(1941)

    def test_bc_normalizes_to_astronomical_year(self):
        assert parse_timestamp("800 BC") == TimestampVal(-799)
        assert parse_timestamp("750 BC") == TimestampVal(-749)
        assert parse_timestamp("1 BC") == TimestampVal(0)

    def test_signed_forms(self):
        assert parse_timestamp("-0749") == TimestampVal(-749)
        assert parse_timestamp("+1941-03") == TimestampVal(1941, 3)

    @pytest.mark.parametrize("bad", ["", "notadate", "1941-13", "1941-03-42", "BC 44"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(BadCast):
            parse_timestamp(bad)

    def test_render_is_signed_and_padded(self):
        assert render_timestamp(TimestampVal(-749)) == "-0749"
        assert render_timestamp(TimestampVal(1941, 3, 26)) == "+1941-03-26"
        assert render_timestamp(TimestampVal(33)) == "+0033"

    @given(
        st.integers(min_value=-9999, max_value=9999),
        st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    def test_render_parse_round_trip(self, year, month):
        ts = TimestampVal(year, month)
        assert parse_timestamp(render_timestamp(ts)) == ts


class TestIntEncoding:
    def test_bit_exact_spots(self):
        assert encode_int(0) == b"\x80\x00\x00\x00\x00\x00\x00\x00"
        assert encode_int(-1) == b"\x7f\xff\xff\xff\xff\xff\xff\xff"
        assert encode_int(1) == b"\x80\x00\x00\x00\x00\x00\x00\x01"
        assert encode_int(INT64_MIN) == b"\x00" * 8
        assert encode_int(INT64_MAX) == b"\xff" * 8

    def test_out_of_range(self):
        with pytest.raises(DomainTypeMismatch):
            encode_int(1 << 63)

    @given(st.integers(INT64_MIN, INT64_MAX), st.integers(INT64_MIN, INT64_MAX))
    def test_order_preserving(self, a, b):
        assert (a < b) == (encode_int(a) < encode_int(b))


class TestRealEncoding:
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_order_preserving(self, a, b):
        if a < b:
            assert encode_real(a) < encode_real(b)
        elif a > b:
            assert encode_real(a) > encode_real(b)

    def test_nan_rejected_everywhere(self):
        with pytest.raises(DomainTypeMismatch):
            encode_real(float("nan"))
        with pytest.raises(DomainTypeMismatch):
            RealVal(float("nan"))

    def test_negative_zero_collapses(self):
        assert RealVal(-0.0) == RealVal(0.0)
        assert repr(RealVal(-0.0).value) == "0.0"  # under slots too
        assert encode_tuple((RealVal(-0.0),)) == encode_tuple((RealVal(0.0),))

    def test_non_finite_value_rejected(self):
        with pytest.raises(DomainTypeMismatch):
            RealVal(float("inf"))


text_pairs = st.tuples(st.text(max_size=10), st.text(max_size=10))


class TestTextEncoding:
    def test_terminator_and_escape(self):
        assert encode_text("a") == b"a\x00"
        assert encode_text("a\x00b") == b"a\x01\x01b\x00"
        assert encode_text("a\x01") == b"a\x01\x02\x00"

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_order_preserving(self, a, b):
        assert (a < b) == (encode_text(a) < encode_text(b))

    @given(text_pairs, text_pairs)
    @example(("a", "\0b"), ("a\0", "b"))
    @example(("a", ""), ("", "a"))
    def test_two_text_tuples_order_as_their_keys(self, a, b):
        # each text's encoding ends itself, so the first text never runs
        # into the second: ("a", "\0b") and ("a\0", "b") keep their order
        ka = encode_tuple(tuple(TextVal(s) for s in a))
        kb = encode_tuple(tuple(TextVal(s) for s in b))
        assert (a < b) == (ka < kb)
        assert (a == b) == (ka == kb)


    def test_a_lone_surrogate_is_rejected_when_built(self):
        # it has no UTF-8 encoding, so a stored text holding one has no key
        assert TextVal("caf\u00e9 \U0001f600").value == "caf\u00e9 \U0001f600"
        with pytest.raises(DomainTypeMismatch):
            TextVal("a\ud800")


class TestTimestampEncoding:
    @given(
        st.tuples(
            st.integers(-9999, 9999),
            st.one_of(st.none(), st.integers(1, 12)),
        ),
        st.tuples(
            st.integers(-9999, 9999),
            st.one_of(st.none(), st.integers(1, 12)),
        ),
    )
    def test_order_matches_sort_key(self, a, b):
        # a timestamp is its own sort key: (tag, year, month or 0, day or 0)
        ta, tb = TimestampVal(*a), TimestampVal(*b)
        assert (ta < tb) == (encode_timestamp(ta) < encode_timestamp(tb))

    def test_width(self):
        assert len(encode_timestamp(TimestampVal(1941, 3, 26))) == 24


def test_quote_text_escapes():
    assert quote_text('say "hi"\n') == '"say \\"hi\\"\\n"'


@given(st.lists(st.one_of(st.integers(-100, 100).map(IntVal), st.text(max_size=5).map(TextVal)), max_size=4))
def test_tuple_encoding_is_concatenation(values):
    from relang.values import encode_value

    assert encode_tuple(values) == b"".join(encode_value(v) for v in values)


def _timestamp_literal(year, month, day) -> str:
    text = f"{'-' if year < 0 else ''}{abs(year):04d}"
    if month is not None:
        text += f"-{month:02d}" + (f"-{day:02d}" if day is not None else "")
    return text


# The values a stored position of each scalar type can hold: reals include
# -0.0, texts NUL and 0x01 (the bytes a text key escapes) and characters
# whose UTF-16 order differs from their code point order, and timestamps
# come from literals or have a month or day of 0.
STORED_SCALARS = {
    "int": st.integers(INT64_MIN, INT64_MAX).map(IntVal),
    "real": st.floats(allow_nan=False, allow_infinity=False).map(RealVal),
    "text": st.text(
        st.one_of(st.sampled_from("\x00\x01a\xff\uffff\U0001f600"), st.characters(blacklist_categories=("Cs",))),
        max_size=6,
    ).map(TextVal),
    "timestamp": st.builds(
        _timestamp_literal,
        st.integers(-999_999_999, 999_999_999),
        st.none() | st.integers(1, 12),
        st.none() | st.integers(1, 31),
    ).map(parse_timestamp)
    | st.builds(
        TimestampVal,
        st.integers(-3, 3),
        st.none() | st.integers(0, 2),
        st.none() | st.integers(0, 2),
    ),
}

# Stored values of the other kinds: references to rows of one relation, and
# inline tuples of one shape.
STORED_VALUES = {
    **STORED_SCALARS,
    "ref": st.integers(1, (1 << 64) - 1).map(lambda row: RefVal("item", row)),
    "inline": st.tuples(STORED_SCALARS["text"], STORED_SCALARS["int"]).map(lambda t: TupleVal("pair", t)),
}


@st.composite
def tuple_pairs(draw):
    """Two tuples of one typed shape; the second keeps some of the first's
    positions."""
    shape = draw(st.lists(st.sampled_from(sorted(STORED_VALUES)), min_size=1, max_size=4))
    a = draw(st.tuples(*(STORED_VALUES[kind] for kind in shape)))
    b = draw(st.tuples(*(STORED_VALUES[kind] for kind in shape)))
    keep = draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
    return a, tuple(x if k else y for x, y, k in zip(a, b, keep))


@given(tuple_pairs())
# a text key once ended in a bare 0x00 that a following int could extend:
# both keys were b"a\x00\xff\x00\x80\x00\x00\x00\x00\x00ABc\x00"
@example(
    (
        (TextVal("a"), IntVal(0x7F00_8000_0000_0000), TextVal("ABc")),
        (TextVal("a\x00"), IntVal(0x4142), TextVal("c")),
    )
)
@example(((RealVal(-0.0), parse_timestamp("1941")), (RealVal(0.0), parse_timestamp("+1941"))))
@example(((TimestampVal(1941, 0, 0),), (TimestampVal(1941),)))
@example(((TextVal("\uffff"),), (TextVal("\U0001f600"),)))
@example(((TupleVal("pair", (TextVal("a"), IntVal(2))),), (TupleVal("pair", (TextVal("a\x00"), IntVal(1))),)))
def test_tuples_of_one_shape_are_equal_exactly_when_their_keys_are(pair):
    # a set is keyed by its tuples and the index by their keys, and outputs
    # list a set in value order as a key range lists its rows: equality,
    # hashing and order must each agree with the keys
    a, b = pair
    ka, kb = encode_tuple(a), encode_tuple(b)
    assert (a == b) == (ka == kb)
    assert ka != kb or hash(a) == hash(b)
    assert (a < b) == (ka < kb)


class TestValueLayer:
    """Every value class is slotted, so an instance carries no ``__dict__``,
    and has a key encoder; anything else has no key."""

    @pytest.mark.parametrize("cls", typing.get_args(Value), ids=lambda cls: cls.__name__)
    def test_slotted_with_an_encoder(self, cls):
        assert "__slots__" in vars(cls) and "__dict__" not in dir(cls)
        assert cls in values._ENCODERS

    def test_fields_read_by_name(self):
        # an absent month or day reads None, and is held as 0
        ts = TimestampVal(1941)
        assert (ts.year, ts.month, ts.day) == (1941, None, None)
        assert TimestampVal(1941, 0, 0) == ts and TimestampVal(1941, 3, 0).month == 3
        assert RefVal("author", 3).relation == "author" and RefVal("author", 3).row == 3
        assert TupleVal("p", [IntVal(1)]).values == (IntVal(1),)
        assert IntVal(1).value == 1 and IntVal(1) != RealVal(1.0)

    @pytest.mark.parametrize(
        "value",
        [IntVal(-1), RealVal(1.5), TextVal("a"), TimestampVal(1941, 3), RefVal("author", 3), TupleVal("p", (IntVal(1), TextVal("b")))],
        ids=lambda v: type(v).__name__,
    )
    def test_a_value_copies_and_pickles_as_itself(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value

    def test_an_unknown_type_has_no_key(self):
        with pytest.raises(TypeError):
            encode_value(object())
        with pytest.raises(TypeError):
            encode_tuple((IntVal(1), 1))

    @given(st.integers(INT64_MIN, INT64_MAX), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=5))
    def test_table_keys_are_the_per_kind_encodings(self, n, x, s):
        assert encode_value(IntVal(n)) == encode_int(n)
        assert encode_value(RealVal(x)) == encode_real(RealVal(x).value)
        assert encode_value(TextVal(s)) == encode_text(s)

    @given(st.integers(-(1 << 70), 1 << 70), st.integers(-(1 << 70), 1 << 70), st.integers(-(1 << 70), 1 << 70))
    def test_a_timestamp_key_is_three_int_keys(self, year, month, day):
        ts = TimestampVal(year, month, day)
        if all(INT64_MIN <= v <= INT64_MAX for v in (year, month, day)):
            assert encode_value(ts) == encode_int(year) + encode_int(month) + encode_int(day)
        else:
            with pytest.raises(DomainTypeMismatch):
                encode_value(ts)

    @given(st.lists(st.text(st.sampled_from("a\u00e9\x00\ud800\udc00"), max_size=4), max_size=6))
    def test_a_column_builds_the_values_its_class_builds(self, texts):
        """``text_column``, ``ref_column`` and ``tuple_column`` build each
        value as its class does, and a text column refuses what ``TextVal``
        refuses."""
        try:
            want = [TextVal(s) for s in texts]
        except DomainTypeMismatch:
            with pytest.raises(DomainTypeMismatch):
                values.text_column(texts)
            return
        got = values.text_column(texts)
        assert got == want and all(type(v) is TextVal for v in got)
        rows = list(range(1, len(texts) + 1))
        assert values.ref_column("author", rows) == [RefVal("author", row) for row in rows]
        members = [(v, IntVal(row)) for v, row in zip(want, rows)]
        got = values.tuple_column("p", members)
        assert got == [TupleVal("p", m) for m in members] and all(type(v) is TupleVal for v in got)
