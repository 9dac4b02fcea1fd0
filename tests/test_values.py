import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relang.errors import BadCast, DomainTypeMismatch
from relang.values import (
    INT64_MAX,
    INT64_MIN,
    IntVal,
    RealVal,
    TextVal,
    TimestampVal,
    encode_int,
    encode_real,
    encode_text,
    encode_timestamp,
    encode_tuple,
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
        assert encode_tuple((RealVal(-0.0),)) == encode_tuple((RealVal(0.0),))

    def test_non_finite_value_rejected(self):
        with pytest.raises(DomainTypeMismatch):
            RealVal(float("inf"))


text_pairs = st.tuples(st.text(max_size=10), st.text(max_size=10))


class TestTextEncoding:
    def test_terminator_and_escape(self):
        assert encode_text("a") == b"a\x00"
        assert encode_text("a\x00b") == b"a\x00\xffb\x00"

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
        ta, tb = TimestampVal(*a), TimestampVal(*b)
        assert (ta.sort_key() < tb.sort_key()) == (
            encode_timestamp(ta) < encode_timestamp(tb)
        )

    def test_width(self):
        assert len(encode_timestamp(TimestampVal(1941, 3, 26))) == 24


def test_quote_text_escapes():
    assert quote_text('say "hi"\n') == '"say \\"hi\\"\\n"'


@given(st.lists(st.one_of(st.integers(-100, 100).map(IntVal), st.text(max_size=5).map(TextVal)), max_size=4))
def test_tuple_encoding_is_concatenation(values):
    from relang.values import encode_value

    assert encode_tuple(values) == b"".join(encode_value(v) for v in values)
