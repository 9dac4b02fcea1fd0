import copy
import importlib.util
import io
import random
import re
import sys
from datetime import timedelta
from itertools import chain
from pathlib import Path
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relang
from relang import shell, store
from relang.errors import DanglingOrdinal, RelangError, RowNotFound, SnapshotFormatError, UnknownAttr
from relang.shell import (
    _export_orders,
    format_csv,
    format_result,
    format_sexpr,
    format_tabular,
    load_snapshot,
    run as shell_run,
    save_snapshot,
)
from relang.store import DbState, iter_refs
from relang.values import RefVal, TextVal, TimestampVal

from conftest import LIBRARY_DDL, LIBRARY_SCRIPT, build_db, fingerprint, q, rows, run
from oracles import (
    dangling_refs,
    export_orders,
    flat_ids,
    format_by_cell,
    index_faults,
    load_snapshot_by_insert,
    ordered_by_key,
    random_inline_db,
    random_tree_db,
    save_snapshot_by_cell,
)

ROOT = Path(__file__).resolve().parent.parent


class TestFormats:
    def test_tabular_genre_has_the_defaulted_header(self, library):
        text = format_tabular(q(library, "(genre)"), library.published)
        lines = text.split("\n")
        assert lines[0] == "text"
        assert lines[1].startswith("-")
        assert lines[2:] == ["bore", "epic", "sci-fi"]

    def test_tabular_renders_refs_as_braced_tuples(self, library):
        text = format_tabular(q(library, '(book . "Ulysses" .)'), library.published)
        assert "{Homer -0799}" in text

    def test_empty_set_formats(self, library):
        empty = q(library, '(genre "nothing")')
        assert format_sexpr(empty, library.published) == "()"
        tab = format_tabular(empty, library.published)
        assert tab.split("\n")[0] == "text" and len(tab.split("\n")) == 2

    def test_sexpr_of_a_pair_set(self, library):
        assert format_sexpr(q(library, "{(1 2) 3}"), library.published) == "({1 3} {2 3})"

    def test_sexpr_reparses_to_an_equal_scalar_set(self, library):
        source = '({1 "one"} {2 "two"})'
        result = q(library, source)
        text = format_sexpr(result, library.published)
        assert set(q(library, text).members()) == set(result.members())

    def test_sexpr_timestamps_reparse_via_typecast(self, library):
        result = q(library, '{(timestamp "1941-03-26") 1}')
        text = format_sexpr(result, library.published)
        assert text == '({(timestamp "+1941-03-26") 1})'
        assert set(q(library, text).members()) == set(result.members())

    def test_csv_quoting(self, library):
        run(library, 'add genre {"weird, \\"genre\\""} commit')
        text = format_csv(q(library, "(genre)"), library.published)
        assert text.split("\n")[0] == "text"
        assert '"weird, ""genre"""' in text

    def test_order_attribute_sorts_rows(self, library):
        text = format_csv(q(library, "(author)"), library.published, order_attrs=["birthdate"])
        names = [line.split(",")[0] for line in text.split("\n")[1:]]
        assert names == ["Homer", "Austen", "Dawkins"]

    def test_unknown_order_attribute(self, library):
        with pytest.raises(UnknownAttr):
            format_csv(q(library, "(author)"), library.published, order_attrs=["ghost"])

    def test_scalar_and_condition_results(self, library):
        assert format_result(q(library, "(+ 1 2)"), "tabular", library.published) == "3"
        assert format_result(q(library, "(> 1 2)"), "sexpr", library.published) == "false"

    def test_formatting_never_alters_the_set(self, library):
        result = q(library, "(book)")
        before = set(result.tuples())
        for fmt in ["tabular", "csv", "sexpr"]:
            format_result(result, fmt, library.published)
        assert set(result.tuples()) == before
        assert fingerprint(library) == fingerprint(library)


class TestSnapshots:
    def test_empty_database_is_header_only(self):
        db = relang.Database()
        assert save_snapshot(db) == ";; relang snapshot v1\n\n"

    def test_fixture_rows_and_ordinals(self, library):
        text = save_snapshot(library)
        assert text.startswith(";; relang snapshot v1\n")
        # authors order canonically: Austen, Dawkins, Homer -> Homer is #3
        assert 'row author 3 {"Homer" -0799}' in text
        assert 'row book 3 {#author:3 "Ulysses" -0749}' in text

    def test_save_load_save_is_a_fixed_point(self, library):
        s1 = save_snapshot(library)
        s2 = save_snapshot(load_snapshot(s1))
        assert s1 == s2

    def test_save_is_deterministic(self, library):
        assert save_snapshot(library) == save_snapshot(library)

    def test_round_trip_preserves_content_and_references(self, library):
        loaded = load_snapshot(save_snapshot(library))
        assert rows(q(loaded, "(book)"), loaded.published) == rows(
            q(library, "(book)"), library.published
        )
        assert dangling_refs(loaded.published) == []
        # row ids may differ; value-level equality is what must hold
        assert fingerprint(loaded) == fingerprint(library)

    def test_round_trip_survives_non_canonical_insertion_order(self):
        db = build_db(
            "relation (author (name text) (birthdate timestamp))"
            " relation (book author (title text) timestamp)"
            ' add author ({"Zed" "1990"})'
            ' add book ({(author "Zed" .) "Zzz" "2001"})'
            ' add author ({"Abe" "1980"})'
            ' add book ({(author "Abe" .) "Aaa" "2002"})'
            " commit"
        )
        s1 = save_snapshot(db)
        assert s1 == save_snapshot(load_snapshot(s1))

    DOMAINS_AND_FUNCTIONS = (
        "function (avg2 (a real) (b real)) (/ (+ a b) 2)"
        " domain (point2d real real)"
        " relation (spot (at point2d) (label text))"
        " add spot {(point2d 1 2) \"here\"}"
        " commit"
    )

    def test_functions_and_domains_round_trip(self):
        db = build_db(self.DOMAINS_AND_FUNCTIONS)
        loaded = load_snapshot(save_snapshot(db))
        assert rows(q(loaded, "(avg2 4 6)"), loaded.published) == {(5.0,)}
        assert save_snapshot(loaded) == save_snapshot(db)

    @pytest.mark.parametrize(
        "definition, saved",
        [
            ("domain (point2d real real)", "domain (point2d real (real_2 real))"),
            ("relation  (genre text)", "relation (genre text)"),
            ("relation (genre (text text))", "relation (genre text)"),
            ("function (inc (a int)) (+ a 00)", "function (inc (a int)) (+ a 0)"),
        ],
        ids=["domain_attribute_names", "two_spaces", "attribute_named_as_its_type", "int_zero_padded"],
    )
    def test_a_definition_not_in_the_saved_form_is_refused(self, definition, saved):
        good = f";; relang snapshot v1\n{saved}\n\n"
        assert save_snapshot(load_snapshot(good)) == good
        with pytest.raises(SnapshotFormatError) as exc:
            load_snapshot(f";; relang snapshot v1\n{definition}\n\n")
        assert str(exc.value) == "definition is not in the form saving writes (line 2)"

    def test_truncated_snapshot(self):
        with pytest.raises(SnapshotFormatError):
            load_snapshot(";; relang snapshot v1\nrelation (genre text)")

    def test_missing_header(self):
        with pytest.raises(SnapshotFormatError):
            load_snapshot("relation (genre text)\n\n")

    def test_dangling_ordinal(self):
        text = (
            ";; relang snapshot v1\n"
            "relation (author (name text) (birthdate timestamp))\n"
            "relation (book author (title text) timestamp)\n"
            "\n"
            'row book 1 {#author:7 "Ulysses" -0749}\n'
        )
        with pytest.raises(DanglingOrdinal):
            load_snapshot(text)

    @pytest.mark.parametrize(
        "rows",
        [
            'row author 1 {"A"}\nrow shelf 1 {{#author:2 3} "x"}',  # absent
            'row shelf 1 {{#author:1 3} "x"}\nrow author 1 {"A"}',  # later
            'row author 1 {"A"}\nrow shelf 1 {{#author:0 3} "x"}',  # zero
        ],
        ids=["absent", "later", "zero"],
    )
    def test_dangling_ordinal_inside_an_inline_tuple(self, rows):
        text = (
            ";; relang snapshot v1\nrelation (author (name text))\n"
            "domain (entry author (n int))\nrelation (shelf entry (label text))\n"
            f"\n{rows}\n"
        )
        with pytest.raises(DanglingOrdinal):
            load_snapshot(text)

    def test_malformed_row_line(self):
        text = ";; relang snapshot v1\nrelation (genre text)\n\nrow genre one {}\n"
        with pytest.raises(SnapshotFormatError):
            load_snapshot(text)

    @pytest.mark.parametrize(
        "values",
        [
            '{"a"}}',  # a stray closing brace once looped forever
            "{" * 3000 + '"a"' + "}" * 3000,  # once exhausted the recursion limit
            "{" * 3000 + '"a"}',
            '{"a" #genre:\u00b2}',  # a digit int() does not read
        ],
        ids=["stray_brace", "deep", "deep_unclosed", "non_ascii_digit"],
    )
    def test_malformed_row_values(self, values):
        text = f";; relang snapshot v1\nrelation (genre text)\n\nrow genre 1 {values}\n"
        with pytest.raises(SnapshotFormatError):
            load_snapshot(text)

    @pytest.mark.parametrize(
        "values",
        [
            "{1_0 1.5 +1941}",
            "{+5 1.5 +1941}",
            "{05 1.5 +1941}",
            "{10 1e3 +1941}",
            "{10 1.50 +1941}",
            "{10 -0.0 +1941}",
            "{10 2 +1941}",
            "{10 1.5 1941}",
        ],
        ids=["int_underscore", "int_plus", "int_zero_padded", "real_exponent",
             "real_trailing_zero", "real_negative_zero", "real_as_int", "timestamp_unsigned"],
    )
    def test_non_canonical_numbers_are_rejected(self, values):
        text = (
            ";; relang snapshot v1\nrelation (p (n int) (x real) (t timestamp))\n\n"
            f"row p 1 {values}\n"
        )
        with pytest.raises(SnapshotFormatError, match="not a canonical"):
            load_snapshot(text)

    SHAPED = (
        ";; relang snapshot v1\n"
        "relation (author (name text))\n"
        "relation (book author (title text))\n"
        "domain (point2d real (real_2 real))\n"
        "relation (p (n int) (label text) (by author) (at point2d))\n"
        "\n"
        'row author 1 {"A"}\n'
        'row book 1 {#author:1 "T"}\n'
    )

    @pytest.mark.parametrize(
        "values",
        [
            '{1 "x" #author:1 {1.5 2.5} 2}',
            '{1 "x" #author:1}',
            '{1 "x" #author:1 {1.5}}',
            '{"1" "x" #author:1 {1.5 2.5}}',
            '{1 2 #author:1 {1.5 2.5}}',
            '{1 "x" #book:1 {1.5 2.5}}',
            '{1 "x" {"A"} {1.5 2.5}}',
            '{1 "x" #author:1 #author:1}',
        ],
        ids=["too_many", "too_few", "inline_too_few", "text_at_int", "number_at_text",
             "wrong_relation", "inline_at_reference", "reference_at_inline"],
    )
    def test_rows_of_the_wrong_shape_are_rejected(self, values):
        good = self.SHAPED + 'row p 1 {1 "x" #author:1 {1.5 2.5}}\n'
        assert len(load_snapshot(good).published.scan("p")) == 1
        with pytest.raises(SnapshotFormatError):
            load_snapshot(self.SHAPED + f"row p 1 {values}\n")

    def test_a_row_error_names_its_line_without_a_column(self):
        text = ";; relang snapshot v1\nrelation (p (n int) (x real))\n\nrow p 1 {1_0 1.5}\n"
        with pytest.raises(SnapshotFormatError) as exc:
            load_snapshot(text)
        assert str(exc.value).endswith("(line 4)")

    @pytest.mark.parametrize(
        "row, message",
        [
            ('row genre 2 {"a"}', "duplicate row in 'genre' (line 6)"),
            ("row point2d 1 {1.5 2.5}", "'point2d' stores no rows (line 6)"),
        ],
        ids=["duplicate", "domain"],
    )
    def test_a_row_the_state_cannot_take_names_its_line(self, row, message):
        text = (
            ";; relang snapshot v1\nrelation (genre text)\ndomain (point2d real (real_2 real))\n\n"
            f'row genre 1 {{"a"}}\n{row}\n'
        )
        with pytest.raises(SnapshotFormatError) as exc:
            load_snapshot(text)
        assert str(exc.value) == message

    def test_a_lone_surrogate_is_a_format_error_naming_its_line(self):
        text = ';; relang snapshot v1\nrelation (genre text)\n\nrow genre 1 {"a\ud800"}\n'
        with pytest.raises(SnapshotFormatError) as exc:
            load_snapshot(text)
        assert str(exc.value) == "text holds a lone surrogate (line 4)"

    def test_canonical_numbers_load_and_save_back(self):
        text = (
            ";; relang snapshot v1\nrelation (p (n int) (x real) (t timestamp))\n\n"
            "row p 1 {-10 1e+20 -0799}\nrow p 2 {10 1.5 +1941-03-26}\n"
        )
        assert save_snapshot(load_snapshot(text)) == text

    @pytest.mark.parametrize("text", ['"a\\qb"', '"a\\\'b"'], ids=["unknown", "single_quote"])
    def test_non_canonical_text_escapes_are_rejected(self, text):
        # saving would write them back as "a\\qb" and "a'b"
        good = ';; relang snapshot v1\nrelation (p text)\n\nrow p 1 {"a\\"\\\\\\n\\t\\rb"}\n'
        assert save_snapshot(load_snapshot(good)) == good
        with pytest.raises(SnapshotFormatError, match="non-canonical escape"):
            load_snapshot(f";; relang snapshot v1\nrelation (p text)\n\nrow p 1 {{{text}}}\n")

    def test_non_ascii_ordinal(self):
        text = ';; relang snapshot v1\nrelation (genre text)\n\nrow genre \u00b9 {"a"}\n'
        with pytest.raises(SnapshotFormatError):
            load_snapshot(text)


def _bench_gen():
    """``bench/gen.py``, the benchmark's data generator, as a module (listed
    in ``sys.modules``, which its dataclasses need)."""
    if "bench_gen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
        sys.modules["bench_gen"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["bench_gen"]


# Texts a snapshot must carry through escapes and key encoding: quotes,
# backslashes, newlines, tabs, NUL and 0x01 (escaped in keys), non-ASCII.
AWKWARD_TEXTS = ["", "a", '"', "\\", "\n", "\t\r", "\x00", "\x01", "x\x00y\x01z", "é", "中\U0001f600", 'a"b\\c\nd']


def _same_state(loaded, oracle) -> None:
    """The state ``load_snapshot`` loaded is the one the insert path loads."""
    assert loaded.indexes.keys() == oracle.indexes.keys()
    for name, want in oracle.indexes.items():
        got = loaded.indexes[name]
        assert got.key_chunks == want.key_chunks
        assert got.id_chunks == want.id_chunks
        assert got.rows.pages == want.rows.pages
        assert got.maps == want.maps
    assert index_faults(loaded) == []


class TestRowReader:
    """``load_snapshot`` reads each row through its relation's compiled
    reader; ``_diagnose_row`` only names the fault in a row the reader
    refuses, walking the same cells."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_loads_the_state_the_insert_path_loads(self, seed, inline):
        rng = random.Random(seed)
        if inline:
            db = random_inline_db(rng, texts=AWKWARD_TEXTS)
        else:
            db, _names = random_tree_db(rng, texts=AWKWARD_TEXTS, refs_anywhere=True)
        text = save_snapshot(db)
        _same_state(load_snapshot(text).published, load_snapshot_by_insert(text).published)
        assert save_snapshot(load_snapshot(text)) == text

    @pytest.fixture
    def diagnosed(self, monkeypatch):
        """The rows that reach the diagnosis path, as (relation, ordinal)."""
        calls = []
        diagnose = shell._diagnose_row
        monkeypatch.setattr(
            shell, "_diagnose_row", lambda rel, ordinal, *rest: calls.append((rel.name, ordinal)) or diagnose(rel, ordinal, *rest)
        )
        return calls

    def test_library_script_rows_take_the_reader(self, diagnosed):
        out, err = io.StringIO(), io.StringIO()
        assert shell_run([str(ROOT / "scripts" / "library.rl"), "--dump"], stdin=io.StringIO(), stdout=out, stderr=err) == 0
        output = out.getvalue()
        text = output[output.index(shell.SNAPSHOT_HEADER):]  # after the script's outputs
        assert save_snapshot(load_snapshot(text)) == text
        assert text.count("\nrow ") > 10 and diagnosed == []

    def test_domain_and_function_rows_take_the_reader(self, diagnosed):
        text = save_snapshot(build_db(TestSnapshots.DOMAINS_AND_FUNCTIONS))
        assert save_snapshot(load_snapshot(text)) == text
        assert "\nrow spot 1 " in text and diagnosed == []

    def test_benchmark_library_rows_take_the_reader(self, diagnosed):
        gen = _bench_gen()
        text = save_snapshot(load_snapshot(gen.snapshot_text(gen.make_model(random.Random(3), 300, 600, (1, 3)))))
        assert save_snapshot(load_snapshot(text)) == text
        assert text.count("\nrow author ") == 300 and diagnosed == []

    def test_a_refused_row_is_diagnosed_once(self, diagnosed):
        with pytest.raises(SnapshotFormatError):
            load_snapshot(';; relang snapshot v1\nrelation (genre text)\n\nrow genre 1 {"a"}\nrow genre 2 {"b" }\n')
        assert diagnosed == [("genre", "2")]

    AUTHOR_BOOK = ";; relang snapshot v1\nrelation (author (name text))\nrelation (book author (title text))\n\n"
    PAIR = ";; relang snapshot v1\nrelation (q text int)\ndomain (d text (text_2 text))\nrelation (s d)\n\n"

    @pytest.mark.parametrize(
        "text, line",
        [
            (AUTHOR_BOOK + 'row author 01 {"a"}\nrow book 1 {#author:01 "t"}\n', 5),
            (AUTHOR_BOOK + 'row author 1 {"a"}\nrow book 1 {#author:01 "t"}\n', 6),
            (AUTHOR_BOOK + 'row author 1 {"a"}\nrow book 1 {#author:1  "t"}\n', 6),
            (PAIR + 'row q 1 {"a"5}\n', 6),
            (PAIR + 'row q 1 {"a"  5}\n', 6),
            (PAIR + 'row q 1 {  "a" 5  }\n', 6),
            (PAIR + 'row s 1 {{"a"  "b"}}\n', 6),
            (PAIR + 'row s 1 {{ "a" "b"}}\n', 6),
            (PAIR + 'row q 1 {"a\tb" 5}\n', 6),
            (AUTHOR_BOOK + f'row author {"0" * 5000}1 {{"a"}}\nrow book 1 {{#author:{"0" * 5000}1 "t"}}\n', 5),
        ],
        ids=["leading_zero_ordinals", "leading_zero_reference", "two_spaces_after_reference",
             "no_space", "two_spaces", "spaces_inside_braces", "two_spaces_inline",
             "space_after_inline_brace", "raw_tab_in_text", "long_zero_padded_ordinals"],
    )
    def test_a_row_not_in_the_saved_form_is_refused(self, text, line):
        with pytest.raises(SnapshotFormatError) as exc:
            load_snapshot(text)
        assert str(exc.value) == f"row is not in the form saving writes (line {line})"

    def test_a_row_out_of_value_order_is_refused(self):
        text = ';; relang snapshot v1\nrelation (genre text)\n\nrow genre 1 {"b"}\nrow genre 2 {"a"}\n'
        with pytest.raises(SnapshotFormatError) as exc:
            load_snapshot(text)
        assert str(exc.value) == "row out of value order in 'genre' (line 5)"

    GENRE = ";; relang snapshot v1\nrelation (genre text)\n\n"
    INLINE = (
        ";; relang snapshot v1\nrelation (author (name text))\n"
        "domain (entry author (n int))\nrelation (shelf entry (label text))\n\n"
    )

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (GENRE + "row genre one {}\n", SnapshotFormatError, "malformed ordinal 'one' (line 4)"),
            (GENRE + 'row genre 2 {"a"}\n', SnapshotFormatError, "ordinal 2 out of order (expected 1) (line 4)"),
            (GENRE + 'row genre 1 {"a"}}\n', SnapshotFormatError, "unbalanced '}' in row (line 4)"),
            (GENRE + 'row genre 1 {"a"\n', SnapshotFormatError, "row values must be brace-enclosed (line 4)"),
            (GENRE + 'row genre 1 {"a" #genre:²}\n', SnapshotFormatError, "malformed reference #genre:² (line 4)"),
            (GENRE + 'row genre 1 {"a\\qb"}\n', SnapshotFormatError, 'non-canonical escape in text "a\\qb" (line 4)'),
            (GENRE + 'row genre 1 {"a" "b"}\n', SnapshotFormatError, "'genre' takes 1 values, got 2 (line 4)"),
            (GENRE + "row genre 1 {a}\n", SnapshotFormatError, "'a' is not a canonical text literal (line 4)"),
            (INLINE + 'row author 1 {"A"}\nrow shelf 1 {{#author:0 3} "x"}\n', DanglingOrdinal, "#author:0 does not name a loaded row"),
            (INLINE + 'row author 1 {"A"}\nrow shelf 1 {{#author:2 3} "x"}\n', DanglingOrdinal, "#author:2 does not name a loaded row"),
            (INLINE + 'row author 1 {"A"}\nrow shelf 1 {{"A" 3} "x"}\n', SnapshotFormatError, "expected a #author reference (line 7)"),
            (INLINE + 'row author 1 {"A"}\nrow shelf 1 {{#author:1 03} "x"}\n', SnapshotFormatError, "'03' is not a canonical int literal (line 7)"),
            (GENRE + f'row genre {"9" * 5000} {{"a"}}\n', SnapshotFormatError, "ordinal <5000 digits> out of order (expected 1) (line 4)"),
            (INLINE + f'row author 1 {{"A"}}\nrow shelf 1 {{{{#author:{"9" * 5000} 3}} "x"}}\n', DanglingOrdinal, "#author:<5000 digits> does not name a loaded row"),
            (INLINE + 'row author 1 {"A"}\nrow shelf 1 {{#author:10000000000000000000 3} "x"}\n', DanglingOrdinal, "#author:<20 digits> does not name a loaded row"),
            (INLINE + 'row author 1 {"A"}\nrow shelf 1 {{#author:9999999999999999999 3} "x"}\n', DanglingOrdinal, "#author:9999999999999999999 does not name a loaded row"),
            (INLINE + f'row author 1 {{"A"}}\nrow shelf 1 {{{{#author:1 {"9" * 5000}}} "x"}}\n', SnapshotFormatError, "<5000 characters> is not a canonical int literal (line 7)"),
            (GENRE + f'row genre {"x" * 5000} {{"a"}}\n', SnapshotFormatError, "malformed ordinal <5000 characters> (line 4)"),
        ],
        ids=["ordinal", "ordinal_order", "stray_brace", "unbraced", "reference", "escape", "arity",
             "bare_text", "zero", "absent", "inline_shape", "inline_literal", "long_ordinal",
             "long_reference", "twenty_digit_reference", "nineteen_digit_reference", "long_literal",
             "long_ordinal_text"],
    )
    def test_a_refused_row_keeps_its_error(self, text, error, message):
        with pytest.raises(error) as exc:
            load_snapshot(text)
        assert type(exc.value) is error and str(exc.value) == message


# Fragments of row texts: braces, quotes, canonical and other escapes, and
# atoms, references and digit runs among them.
ROW_FRAGMENTS = [
    "{", "}", " ", '"', "\\", '\\"', "\\\\", "\\n", "\\t", "\\r", "\\q", "\\'",
    "#a:1", "#a:3", "#b:", "#:3", "#c:x", "#a:\u00b2", "12", "-0.5", "+1941-03", "x", "\u00e9", "\t",
    "00", "9" * 25,
]

# A relation with a cell of every kind: int, text, reference, inline tuple,
# inline tuple holding a reference, and timestamp; and a row of it that loads.
EVERY_CELL = save_snapshot(build_db(
    "relation (a (name text)) domain (d real real) domain (e a (n int))"
    " relation (p (n int) (s text) a (at d) (x e) (t timestamp))"
    ' add a ({"A"} {"B"}) commit'
))
GOOD_ROW = '{12 "x" #a:1 {-0.5 1.5} {#a:2 -3} +1941-03}'


def _splice(edits) -> str:
    """``GOOD_ROW`` with each (offset, cut, fragment) edit: ``cut``
    characters at ``offset`` replaced by ``fragment``."""
    text = GOOD_ROW
    for at, cut, fragment in edits:
        at %= len(text) + 1
        text = text[:at] + fragment + text[at + cut:]
    return text


# Row texts: fragments in braces, ``GOOD_ROW`` with a few edits, and
# ``GOOD_ROW`` with fragments before one of its closing braces, which makes
# cells past a tuple's arity.
ROW_TEXTS = st.one_of(
    st.lists(st.sampled_from(ROW_FRAGMENTS), max_size=14).map(lambda parts: "{" + "".join(parts) + "}"),
    st.lists(
        st.tuples(st.integers(0, len(GOOD_ROW)), st.integers(0, 3), st.sampled_from(ROW_FRAGMENTS)),
        max_size=3,
    ).map(_splice),
    st.tuples(
        st.sampled_from([at for at, ch in enumerate(GOOD_ROW) if ch == "}"]),
        st.just(0),
        st.lists(st.sampled_from(ROW_FRAGMENTS), min_size=1, max_size=6).map("".join),
    ).map(lambda edit: _splice([edit])),
)


class TestRowDiagnosis:
    """A refused row's fault, named by ``_diagnose_row`` from the reader's
    own cells, against the insert path (``oracles.load_snapshot_by_insert``,
    which reads the row by the character loop)."""

    @given(ROW_TEXTS)
    @settings(max_examples=400, deadline=timedelta(seconds=2))
    def test_a_row_loads_as_the_insert_path_loads_or_names_its_fault(self, values):
        text = EVERY_CELL + f"row p 1 {values}\n"
        try:
            oracle = load_snapshot_by_insert(text).published
        except RelangError:
            oracle = None
        try:
            loaded = load_snapshot(text).published
        except RelangError as exc:
            assert type(exc) in (SnapshotFormatError, DanglingOrdinal)
            assert not re.search(r"takes (\d+) values, got \1\b", str(exc))
            return
        assert oracle is not None, "a row the insert path refuses loaded"
        _same_state(loaded, oracle)

    def test_the_row_the_fragments_edit_loads(self):
        text = EVERY_CELL + f"row p 1 {GOOD_ROW}\n"
        assert save_snapshot(load_snapshot(text)) == text

    @pytest.mark.parametrize(
        "values, message",
        [
            ('{1 "x" #author:1 {1.52.5}}', "'1.52.5' is not a canonical real literal (line 9)"),
            ('{1_0 "x" #author:1 {1.5 2.5} 2}', "'1_0' is not a canonical int literal (line 9)"),
            ('{"1" "a\\qb" #author:1 {1.5 2.5}}', "expected a int literal (line 9)"),
        ],
        ids=["literal_before_inline_arity", "literal_before_arity", "shape_before_escape"],
    )
    def test_the_first_fault_from_the_left_is_named(self, values, message):
        with pytest.raises(SnapshotFormatError) as exc:
            load_snapshot(TestSnapshots.SHAPED + f"row p 1 {values}\n")
        assert str(exc.value) == message


class TestBlockLoad:
    """``load_snapshot`` reads and stores a relation's rows a block of at
    most ``CHUNK_MAX`` lines at a time through ``DbState.extend``, which
    must lay out what the insert path lays out, at every chunk and row
    page seam, and keep every error the row reader names."""

    DDL = (
        "relation (a (name text)) relation (c text) domain (entry a (n int))"
        " relation (b a (n int)) relation (shelf entry (label text))"
    )
    SEAMS = [
        store.CHUNK_MAX - 1, store.CHUNK_MAX, store.CHUNK_MAX + 1,
        2**store.ROW_BITS - 1, 2**store.ROW_BITS, 2**store.ROW_BITS + 1,
    ]

    @staticmethod
    def snapshot(n: int) -> str:
        """``n`` rows in each of ``a``, ``b`` (several to an ``a`` row) and
        ``shelf`` (an inline tuple holding a reference), and three in ``c``."""
        names = [f"n{k:05d}" for k in range(1, n + 1)]
        adds = [
            "add a (" + " ".join(f'{{"{name}"}}' for name in names) + ")",
            'add c ({"x"} {"y"} {"z"})',
            "add b (" + " ".join(f'{{(a "{names[k * 7 % (n // 3 + 1)]}") {k}}}' for k in range(n)) + ")",
            "add shelf (" + " ".join(f'{{{{(a "{names[k * 5 % n]}") {k % 4}}} "s{k}"}}' for k in range(n)) + ")",
        ]
        return save_snapshot(build_db(" ".join([TestBlockLoad.DDL, *adds, "commit"])))

    @staticmethod
    def layout(state):
        """Every part of every index, copied."""
        return copy.deepcopy({
            name: (idx.key_chunks, idx.id_chunks, idx.maxes, idx.rows.pages, idx.rows.count, idx.maps)
            for name, idx in state.indexes.items()
        })

    def check(self, text: str, saved: str):
        db = load_snapshot(text)
        _same_state(db.published, load_snapshot_by_insert(text).published)
        assert save_snapshot(db) == saved
        for idx in db.published.indexes.values():  # the load made every part, so owns it
            pages = [page for pages in idx.maps.values() for page in pages.values()]
            parts = [*idx.key_chunks, *filter(None, idx.rows.pages), *pages, *chain(*map(dict.values, pages))]
            assert all(id(part) in idx.owned for part in parts)
        published, before = db.published, self.layout(db.published)
        run(db, 'add a ({"a0"} {"zz"}) add c {"w"} add b {(a "zz") 1} add shelf {{(a "a0") 1} "t"}')
        run(db, 'abolish a (a "n00002") update a (a "n00003") (name "n99999") commit')
        assert self.layout(published) == before
        assert index_faults(db.published) == [] and index_faults(published) == []

    @pytest.mark.parametrize("n", SEAMS)
    def test_a_load_lays_out_what_the_insert_path_does(self, n):
        text = self.snapshot(n)
        self.check(text, text)

    @pytest.mark.parametrize("n", SEAMS)
    def test_a_relation_in_two_runs_loads_as_in_one(self, n):
        text = self.snapshot(n)
        lines = text.split("\n")
        a_rows = [k for k, line in enumerate(lines) if line.startswith("row a ")]
        c_rows = [k for k, line in enumerate(lines) if line.startswith("row c ")]
        cut = a_rows[len(a_rows) // 2]
        split = lines[:cut] + lines[c_rows[0] : c_rows[-1] + 1] + lines[cut : c_rows[0]] + lines[c_rows[-1] + 1 :]
        self.check("\n".join(split), text)

    def test_no_row_of_a_valid_snapshot_is_diagnosed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(shell, "_diagnose_row", lambda *args: calls.append(args))
        text = self.snapshot(2 * store.CHUNK_MAX + 1)
        assert save_snapshot(load_snapshot(text)) == text and calls == []

    PAIRS = ";; relang snapshot v1\nrelation (a (name text))\nrelation (q (name text) (n int))\nrelation (b a (n int))\n\n"

    @staticmethod
    def q_rows(n: int) -> List[str]:
        return [f'row q {k} {{"q{k:05d}" {k}}}' for k in range(1, n + 1)]

    @staticmethod
    def text(lines: List[str]) -> str:
        return TestBlockLoad.PAIRS + "\n".join(lines) + "\n"

    def refused(self, lines: List[str]):
        with pytest.raises(RelangError) as exc:
            load_snapshot(self.text(lines))
        return type(exc.value), str(exc.value)

    def test_a_refused_row_past_the_first_block_names_its_line(self):
        rows = self.q_rows(1000)
        line = 5 + 700  # the header, three definitions and a blank line come first
        assert self.refused([*rows[:699], 'row q 700 {"q00700"  700}', *rows[700:]]) == (
            SnapshotFormatError, f"row is not in the form saving writes (line {line})"
        )
        assert self.refused([*rows[:699], 'row q 700 {"q00700" 0700}', *rows[700:]]) == (
            SnapshotFormatError, f"'0700' is not a canonical int literal (line {line})"
        )
        assert self.refused([*rows[:699], 'row q 701 {"q00700" 700}', *rows[700:]]) == (
            SnapshotFormatError, f"ordinal 701 out of order (expected 700) (line {line})"
        )
        assert self.refused([*rows[:699], 'row q 700 {"q\ud800" 700}', *rows[700:]]) == (
            SnapshotFormatError, f"text holds a lone surrogate (line {line})"
        )
        # the two halves of a surrogate pair, one to a row: each is lone
        assert self.refused([*rows[:2], 'row q 3 {"\ud83d" 3}', 'row q 4 {"\ude00" 4}']) == (
            SnapshotFormatError, "text holds a lone surrogate (line 8)"
        )

    def test_an_order_fault_above_a_refused_row_is_named_first(self):
        rows = self.q_rows(600)
        rows[599] = 'row q 600 {"q00001" 600}'  # below every row above it
        order = (SnapshotFormatError, f"row out of value order in 'q' (line {5 + 600})")
        assert self.refused([*rows, 'row q 601 {"zz"  1}']) == order
        assert self.refused([*rows, 'row q 601 {"zz" 01}']) == order
        authors = ['row a 1 {"A"}', 'row a 2 {"B"}']
        links = ['row b 1 {#a:1 1}', 'row b 2 {#a:2 1}', 'row b 3 {#a:1 2}']  # b 3 sorts below b 2
        assert self.refused([*authors, *links, 'row b 4 {#a:3 1}']) == (
            SnapshotFormatError, f"row out of value order in 'b' (line {5 + 5})"
        )
        assert self.refused([*authors, *links[:2], 'row b 3 {#a:3 1}']) == (
            DanglingOrdinal, "#a:3 does not name a loaded row"
        )

    def test_a_row_equal_to_an_earlier_one_is_a_duplicate(self):
        rows = self.q_rows(600)
        copies = {  # the lines, the copy of row q 5 at index -1 or 519
            "an_earlier_block": [*rows, 'row q 601 {"q00005" 5}'],
            "an_earlier_block_mid_block": [*rows[:519], 'row q 520 {"q00005" 5}', *rows[520:]],
            "the_same_block": [*rows[:9], 'row q 10 {"q00005" 5}'],
            "an_earlier_run": [*rows[:9], 'row a 1 {"A"}', 'row q 10 {"q00005" 5}'],
        }
        for where, lines in copies.items():
            at = 519 if where == "an_earlier_block_mid_block" else len(lines) - 1
            assert self.refused(lines) == (SnapshotFormatError, f"duplicate row in 'q' (line {6 + at})"), where


class TestExportOrder:
    """``_export_orders`` takes a relation's stored order when it is its
    export order, and must agree with sorting every relation by export key."""

    INLINE = (
        "relation (author (name text)) domain (entry author (n int))"
        " relation (shelf entry (label text))"
        ' add author {"B"} add author {"A"}'
        ' add shelf ({(entry (author "B") 1) "x"} {(entry (author "A") 1) "y"})'
        " commit"
    )

    def check(self, db, monkeypatch):
        """The export order, checked against the oracle, and every tuple the
        export-key sort keyed; a save/load/save is a fixed point."""
        keyed = []
        order_key = shell.order_key
        monkeypatch.setattr(shell, "order_key", lambda t, ref_key: keyed.append(t) or order_key(t, ref_key))
        _rows, ordered = _export_orders(db.catalog, db.published)
        monkeypatch.undo()
        assert ordered == export_orders(db.catalog, db.published)
        text = save_snapshot(db)
        assert save_snapshot(load_snapshot(text)) == text
        return ordered, keyed

    @pytest.mark.parametrize("script", [LIBRARY_SCRIPT, INLINE], ids=["library", "inline"])
    def test_a_loaded_database_is_saved_in_stored_order(self, script, monkeypatch):
        db = load_snapshot(save_snapshot(build_db(script)))
        ordered, keyed = self.check(db, monkeypatch)
        assert keyed == []
        assert ordered == {name: flat_ids(idx) for name, idx in db.published.indexes.items()}

    def test_an_author_sorting_first_makes_its_referrers_sort(self, library, monkeypatch):
        db = load_snapshot(save_snapshot(library))
        run(
            db,
            'add author {"Aardvark" "1900"} add book {(author "Aardvark" .) "Zzz" "1950"}'
            ' add book_genre {(book . "Zzz" .) (genre "epic")} commit',
        )
        ordered, keyed = self.check(db, monkeypatch)
        assert keyed
        # the new rows (row id 4) come first in export order; only the
        # author is stored first too
        assert ordered["author"] == flat_ids(db.published.indexes["author"])
        for name in ("author", "book", "book_genre"):
            assert ordered[name][0] == 4
        for name in ("book", "book_genre"):
            assert flat_ids(db.published.indexes[name])[-1] == 4

    def test_references_inside_an_inline_tuple_make_their_holder_sort(self, monkeypatch):
        db = build_db(self.INLINE)
        ordered, keyed = self.check(db, monkeypatch)
        assert keyed
        assert ordered["shelf"] == flat_ids(db.published.indexes["shelf"])[::-1]


def _printed(db, statements: str) -> str:
    out = io.StringIO()
    session = shell.Session(db, out, None)
    for stmt in relang.parse_script(statements):
        session.execute(stmt)
    return out.getvalue()


@st.composite
def library_rows(draw):
    """Statements adding authors (names may repeat), their books and the
    books' genre links, each tuple spelled as a value-complete literal."""
    authors = draw(
        st.lists(
            st.tuples(st.sampled_from(["Amy", "Bo", "Zed"]), st.sampled_from(["800 BC", "1900", "1950"])),
            min_size=1, max_size=4, unique=True,
        )
    )
    books = draw(
        st.lists(st.tuples(st.sampled_from(authors), st.sampled_from("abc")), max_size=6, unique=True)
    )
    links = []
    if books:
        links = draw(
            st.lists(st.tuples(st.sampled_from(books), st.sampled_from(["epic", "noir"])), max_size=6, unique=True)
        )
    author = lambda a: '{"%s" "%s"}' % a
    book = lambda b: '{%s "%s" "2000"}' % (author(b[0]), b[1])
    return (
        [f"add author {author(a)}" for a in authors]
        + [f"add book {book(b)}" for b in books]
        + [f'add book_genre {{{book(b)} {{"{g}"}}}}' for b, g in links]
    )


class TestValueOrder:
    """Outputs list tuples in value order, whatever the row ids."""

    OUTPUTS = " ".join(
        f"output {fmt} {order}{expr}"
        for fmt in ("sexpr", "csv", "tabular")
        for order in ("", "order author ")
        for expr in ("(book)", "{book (author)}", "[(book) author title]")
    ) + " output sexpr (book_genre) output csv {book_genre (author)} output tabular order book (book_genre)"

    def test_stored_order_prints_unsorted_until_a_later_row_sorts_first(self, library, monkeypatch):
        db = load_snapshot(save_snapshot(library))
        sorted_by = []
        order_key = shell.order_key
        monkeypatch.setattr(shell, "order_key", lambda values, ref_key: sorted_by.append(values) or order_key(values, ref_key))
        outputs = "output sexpr (book) output csv (book_genre)"
        printed = _printed(db, outputs)
        # a loaded database's row ids rise with value order: key order is value order
        assert sorted_by == []
        run(db, 'add author {"Aardvark" "1900"} add book {(author "Aardvark" .) "Zzz" "1950"} commit')
        assert _printed(db, outputs) == printed.replace("({", '({{"Aardvark" (timestamp "+1900")} "Zzz" (timestamp "+1950")} {', 1)
        assert sorted_by  # the new author sorts first but was stored last
        assert _printed(db, outputs) == _printed(load_snapshot(save_snapshot(db)), outputs)

    def test_a_pending_update_collision_prints_in_value_order(self):
        # the update leaves two "Bo" rows holding one tuple under different
        # ids, so the books referencing them are not in value order by key
        db = build_db(
            "relation (author (name text) (birthdate timestamp))"
            " relation (book author (title text) (year timestamp))"
            ' add author ({"Bo" "1900"} {"Bo" "1950"}) add book ({(author "Bo" .) "t" "1900"}) commit'
        )
        printed = _printed(
            db,
            'update author (author "Bo" "1950") (birthdate "1900")'
            ' add book {(author "Bo" .) "t" "1950"} output sexpr (book)',
        )
        years = re.findall(r'"t" \(timestamp "\+(\d+)"\)', printed)
        assert years == sorted(years) and len(years) == 3

    def test_an_unowned_index_keeps_its_judgement_and_an_owned_one_does_not(self, monkeypatch):
        db = build_db(
            "relation (author (name text) (birthdate timestamp))"
            " relation (book author (title text) (year timestamp))"
            ' add author ({"Amy" "1900"} {"Bo" "1900"} {"Cy" "1900"})'
            ' add book ({(author "Amy" .) "a" "1900"} {(author "Bo" .) "b" "1900"} {(author "Cy" .) "c" "1900"})'
            " commit"
        )
        walks = []
        ids_rise = shell._ids_rise
        monkeypatch.setattr(shell, "_ids_rise", lambda id_chunks: walks.append(id_chunks) or ids_rise(id_chunks))
        titles = lambda: re.findall(r'"(\w)" \(timestamp', _printed(db, "output sexpr (book)"))  # noqa: E731
        authors = lambda: db.txn.shadow.indexes["author"]  # noqa: E731
        # the transaction owns no index: author's ids are walked once, and
        # the verdict is kept on the index the published state shares
        assert [titles(), titles()] == [["a", "b", "c"]] * 2 and len(walks) == 1
        assert authors() is db.published.indexes["author"] and authors().ids_rise is True
        # renaming Amy copies author into the transaction, which owns the
        # copy: it starts unjudged and is judged again for each output
        run(db, 'update author (author "Amy" .) (name "Zoe")')
        walks.clear()
        assert [titles(), titles()] == [["b", "c", "a"]] * 2 and len(walks) == 2
        assert authors().ids_rise is None and db.published.indexes["author"].ids_rise is True
        run(db, "commit")
        walks.clear()
        assert [titles(), titles()] == [["b", "c", "a"]] * 2 and len(walks) == 1
        assert authors().ids_rise is False
        run(db, 'update author (author "Zoe" .) (name "Amy") commit')
        assert titles() == ["a", "b", "c"] and authors().ids_rise is True
        # a direct write to the published state copies each index it
        # writes, unjudged; the transaction reopened over it reads the copies
        aaron, _ = db.published.insert("author", (TextVal("Aaron"), TimestampVal(1900)))
        db.published.insert("book", (RefVal("author", aaron), TextVal("z"), TimestampVal(1900)))
        assert titles() == ["a", "b", "c"] and authors().ids_rise is True
        db.refresh()
        assert authors().ids_rise is None and titles() == ["z", "a", "b", "c"]
        assert authors().ids_rise is False

    def test_outputs_after_a_write_walk_each_unwritten_relation_once(self, library, monkeypatch):
        run(library, 'add genre {"zany"}')  # it sorts last, so every relation rises
        walked = []
        ids_rise = shell._ids_rise
        shadow = library.txn.shadow
        names = {id(idx.id_chunks): name for name, idx in shadow.indexes.items()}
        monkeypatch.setattr(shell, "_ids_rise", lambda id_chunks: walked.append(names[id(id_chunks)]) or ids_rise(id_chunks))
        outputs = (
            'output sexpr {genre (book (author "Homer" .) . .)}'
            ' output sexpr {genre (book_genre (book (author "Homer" .) . .) .)}'
        )
        printed = _printed(library, outputs)
        assert _printed(library, outputs) == printed and "Ulysses" in printed
        assert walked.count("author") == walked.count("book") == 1
        # genre, which the transaction wrote, is judged again for each output
        # that references it
        assert walked.count("genre") == 2 and shadow.owned == {"genre"}

    @given(library_rows(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_two_insertion_orders_print_the_same_bytes(self, adds, rng):
        shuffled = list(adds)
        rng.shuffle(shuffled)
        script = LIBRARY_DDL + ' add genre ({"epic"} {"noir"}) '
        one = build_db(script + " ".join(adds) + " commit")
        two = build_db(script + " ".join(shuffled) + " commit")
        printed = _printed(one, self.OUTPUTS)
        assert _printed(two, self.OUTPUTS) == printed
        loaded = load_snapshot(save_snapshot(two))
        assert _printed(loaded, self.OUTPUTS) == printed
        assert save_snapshot(loaded) == save_snapshot(one)


FORMATS = ("sexpr", "csv", "tabular")


class TestFormatByColumn:
    """Outputs and snapshots written column by column equal the per-cell
    writer (``oracles.format_by_cell``, ``oracles.save_snapshot_by_cell``)
    byte for byte, and read each referenced row once."""

    @staticmethod
    def results(db):
        """Each relation, each projection of one attribute, its empty
        subset, and the union of each int or real column with a constant
        of the other type, which widens the column to real."""
        for name in db.published.indexes:
            whole = q(db, f"({name})")
            yield whole
            yield whole.having(lambda t: False)
            for col in whole.schema:
                yield q(db, f"[({name}) {col.attr}]")
                if col.type_name in ("int", "real"):
                    yield q(db, f"([({name}) {col.attr}] {'2.5' if col.type_name == 'int' else '7'})")

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_format_and_the_snapshot_equal_the_per_cell_writer(self, rng, tree):
        texts = AWKWARD_TEXTS + ["trailing  "]
        db = random_tree_db(rng, texts=texts, inline=True)[0] if tree else random_inline_db(rng, texts=texts)
        state = db.published
        assert save_snapshot(db) == save_snapshot_by_cell(db)
        for result in self.results(db):
            attrs = [col.attr for col in result.schema]
            for order in [(), *[(a,) for a in attrs], attrs[::-1]]:
                for fmt in FORMATS:
                    assert format_result(result, fmt, state, order) == format_by_cell(result, fmt, state, order)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("text, order", [("(book)", ()), ("(book)", ("title",)), ("(book_genre)", ("book",))])
    def test_a_pending_reference_raises_as_the_per_cell_writer_does(self, library_ddl, fmt, text, order):
        run(
            library_ddl,
            "add book {{'Homer' '800 BC'} 'Ulysses' '750 BC'} add genre {'epic'}"
            " add book_genre {(book . 'Ulysses' .) (genre 'epic')}",
        )
        state, result = library_ddl.txn.shadow, q(library_ddl, text)
        with pytest.raises(RowNotFound) as by_column:
            format_result(result, fmt, state, order)
        with pytest.raises(RowNotFound) as by_cell:
            format_by_cell(result, fmt, state, order)
        assert str(by_column.value) == str(by_cell.value)

    @pytest.mark.parametrize(
        "script, text, attr",
        [
            (LIBRARY_SCRIPT, "(book)", "author"),
            (TestExportOrder.INLINE, "(shelf)", "entry"),
            ("", '({1 "b"} {2.5 "a"} {-3 "c"} {2.5 "d"})', "real"),
        ],
        ids=["reference", "inline", "widened"],
    )
    def test_ordering_equals_the_order_key_sort(self, script, text, attr):
        db = build_db(script)
        result = q(db, text)
        tuples, _cells = shell._output(result, db.published, [attr], shell._PLAIN)
        assert tuples == ordered_by_key(result, db.published, [attr])

    @pytest.mark.parametrize("order", [(), ("book",)])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_each_referenced_row_is_read_once(self, library, monkeypatch, loaded, order):
        # a book in two links, a genre in two, and an author of two books
        run(
            library,
            "add book {(author 'Homer' .) 'Iliad' '760 BC'}"
            " add book_genre ({(book . 'Iliad' .) (genre 'epic')} {(book . 'Ulysses' .) (genre 'sci-fi')}) commit",
        )
        db = load_snapshot(save_snapshot(library)) if loaded else library
        state, result = db.published, q(db, "(book_genre)")
        targets = {ref for t in result.tuples() for ref in iter_refs(t)}
        targets |= {ref for rel, row in targets for ref in iter_refs(state.get_row(rel, row))}
        reads = []
        get_row = DbState.get_row
        monkeypatch.setattr(DbState, "get_row", lambda st, rel, row: reads.append((rel, row)) or get_row(st, rel, row))
        for fmt in FORMATS:
            reads.clear()
            by_cell = format_by_cell(result, fmt, state, order)
            assert len(reads) > len(targets)  # once per cell
            reads.clear()
            assert format_result(result, fmt, state, order) == by_cell
            assert sorted(reads) == sorted(targets)


class TestCommandLine:
    def _run(self, argv, stdin_text=""):
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(stdin_text)
        code = shell_run(argv, stdin=stdin, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def test_evaluate_an_expression(self):
        code, out, err = self._run(["-e", "(+ 1 2 3 4 5)"])
        assert code == 0
        assert out.strip() == "15"

    def test_script_file_with_save(self, tmp_path):
        script = tmp_path / "library.rl"
        script.write_text(LIBRARY_SCRIPT)
        snap = tmp_path / "lib.snap"
        code, out, err = self._run([str(script), "--save", str(snap)])
        assert code == 0, err
        assert snap.exists()
        loaded = load_snapshot(snap.read_text())
        assert len(q(loaded, "(book)")) == 3

    def test_syntax_error_names_the_line(self, tmp_path):
        script = tmp_path / "bad.rl"
        script.write_text("relation (genre text)\n(+ 1\n")
        code, out, err = self._run([str(script)])
        assert code == 1
        assert "line 2" in err or "line 3" in err

    def test_runtime_error_names_the_statement_position(self, tmp_path):
        script = tmp_path / "bad.rl"
        script.write_text('relation (genre text)\nadd genre {5}\n')
        code, out, err = self._run([str(script)])
        assert code == 1
        assert "DomainTypeMismatch" in err
        assert "line 2" in err

    def test_a_literal_too_long_to_read_names_its_own_position(self):
        code, out, err = self._run(["-e", f"1\n(+ 1 {'9' * 5000})"])
        assert (code, out) == (1, "1\n")
        assert err == "<-e>: error: DomainTypeMismatch: integer literal at line 2, column 6 is out of 64-bit range\n"

    def test_multiple_files_execute_in_order(self, tmp_path):
        first = tmp_path / "a.rl"
        second = tmp_path / "b.rl"
        first.write_text('relation (genre text)\nadd genre {"x"}\ncommit\n')
        second.write_text("output csv (genre)\n")
        code, out, err = self._run([str(first), str(second)])
        assert code == 0, err
        assert out.strip().split("\n") == ["text", "x"]

    def test_db_option_loads_before_execution(self, tmp_path):
        snap = tmp_path / "lib.snap"
        db = build_db(LIBRARY_SCRIPT)
        snap.write_text(save_snapshot(db))
        code, out, err = self._run(
            ["--db", str(snap), "-e", "output csv (genre)"]
        )
        assert code == 0
        assert out.split("\n")[0] == "text"
        assert "sci-fi" in out

    def test_dump_prints_the_snapshot(self):
        code, out, err = self._run(
            ["-e", 'relation (genre text)', "-e", 'add genre {"x"} commit', "--dump"]
        )
        assert code == 0
        assert out.startswith(";; relang snapshot v1\n")
        assert 'row genre 1 {"x"}' in out

    @pytest.mark.parametrize(
        "text",
        ["(" * 500 + "1" + ")" * 500, "(+ " * 350 + "1" + " 1)" * 350],
        ids=["unions", "operators"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        code, out, err = self._run(["-e", text])
        assert code == 1
        assert err.startswith("<-e>: error: ParseError: brackets nest deeper than")
        assert "Traceback" not in err

    def test_redirected_output_defaults_to_sexpr(self):
        code, out, err = self._run(["-e", "(1 2 3)"])
        assert out.strip() == "({1} {2} {3})"

    def test_format_option_wins(self):
        code, out, err = self._run(["--format", "csv", "-e", "(1 2 3)"])
        assert out.strip().split("\n")[0] == "int"

    def test_output_order_applies_at_format_time(self, tmp_path):
        script = tmp_path / "ordered.rl"
        script.write_text(LIBRARY_SCRIPT + "\noutput csv order birthdate (author)\n")
        code, out, err = self._run([str(script)])
        assert code == 0, err
        names = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
        assert names == ["Homer", "Austen", "Dawkins"]

    def test_output_order_survives_a_save_and_load(self, tmp_path):
        # Zed's rows have the lower row ids; the loaded snapshot numbers
        # Amy's first. Both print Amy's rows first, in value order.
        outputs = (
            "output sexpr (book) output csv order author (book)"
            " output sexpr {book (author)} output sexpr [(book) author title]"
        )
        snap = tmp_path / "zed.snap"
        code, first, err = self._run(
            [
                "-e",
                "relation (author (name text)) relation (book author (title text))"
                ' add author {"Zed"} add author {"Amy"}'
                ' add book {(author "Zed") "z1"} add book {(author "Amy") "a1"} commit '
                + outputs,
                "--save",
                str(snap),
            ]
        )
        assert code == 0, err
        code, loaded, err = self._run(["--db", str(snap), "-e", outputs])
        assert code == 0, err
        assert loaded == first
        assert first.split("\n")[0] == '({{"Amy"} "a1"} {{"Zed"} "z1"})'

    def test_stdin_script_mode(self):
        code, out, err = self._run([], stdin_text="(+ 1 1)\n")
        assert code == 0
        assert out.strip() == "2"

    def test_uncommitted_work_warns_and_discards(self, tmp_path):
        snap = tmp_path / "x.snap"
        code, out, err = self._run(
            ["-e", 'relation (genre text) add genre {"x"}', "--save", str(snap)]
        )
        assert code == 0
        assert "uncommitted" in err
        assert "row genre" not in snap.read_text()

    def test_integrity_failure_exits_nonzero(self):
        code, out, err = self._run(
            [
                "-e",
                "relation (author (name text) (birthdate timestamp))"
                " relation (book author (title text) timestamp)"
                ' add book {(author "Homer") "Ulysses" "750 BC"} commit',
            ]
        )
        assert code == 1
        assert "IntegrityError" in err

    def test_missing_file(self):
        code, out, err = self._run(["no_such_file.rl"])
        assert code == 1


def test_script_and_statementwise_execution_agree():
    whole = build_db(LIBRARY_SCRIPT)
    stepped = relang.Database()
    for stmt in relang.parse_script(LIBRARY_SCRIPT):
        stepped.execute(stmt)
    assert fingerprint(whole) == fingerprint(stepped)


class _Tty(io.StringIO):
    def isatty(self):
        return True


class TestRepl:
    def _drive(self, monkeypatch, lines, argv=()):
        out, err = io.StringIO(), io.StringIO()
        feed = iter(lines)

        def fake_input(prompt=""):
            try:
                return next(feed)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)
        code = shell_run(list(argv), stdin=_Tty(), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def test_repl_and_script_mode_produce_the_same_state(self, monkeypatch, tmp_path):
        lines = [line for line in LIBRARY_SCRIPT.split("\n") if line.strip()]
        snap = tmp_path / "repl.snap"
        code, out, err = self._drive(monkeypatch, lines, argv=["--save", str(snap)])
        assert code == 0
        script_db = build_db(LIBRARY_SCRIPT)
        assert snap.read_text() == relang.save_snapshot(script_db)

    def test_repl_reports_errors_and_continues(self, monkeypatch):
        code, out, err = self._drive(
            monkeypatch,
            ["(+ 1", "(+ 1 2)", "relation (genre text)", 'add genre {"x"}'],
        )
        assert code == 0
        assert "ParseError" in err
        assert "3" in out
        assert "uncommitted" in err  # the add was never committed

    def test_repl_echoes_commits(self, monkeypatch):
        code, out, err = self._drive(
            monkeypatch,
            ["relation (genre text)", 'add genre {"x"}', "commit"],
        )
        assert code == 0
        assert "committed" in out
