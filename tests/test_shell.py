import io

import pytest

import relang
from relang.errors import DanglingOrdinal, SnapshotFormatError, UnknownAttr
from relang.shell import (
    format_csv,
    format_result,
    format_sexpr,
    format_tabular,
    load_snapshot,
    run as shell_run,
    save_snapshot,
)

from conftest import LIBRARY_SCRIPT, build_db, fingerprint, q, rows, run
from oracles import dangling_refs


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
        assert q(library, text).same_tuples(result)

    def test_sexpr_timestamps_reparse_via_typecast(self, library):
        result = q(library, '{(timestamp "1941-03-26") 1}')
        text = format_sexpr(result, library.published)
        assert text == '({(timestamp "+1941-03-26") 1})'
        assert q(library, text).same_tuples(result)

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

    def test_functions_and_domains_round_trip(self):
        db = build_db(
            "function (avg2 (a real) (b real)) (/ (+ a b) 2)"
            " domain (point2d real real)"
            " relation (spot (at point2d) (label text))"
            " add spot {(point2d 1 2) \"here\"}"
            " commit"
        )
        loaded = load_snapshot(save_snapshot(db))
        assert rows(q(loaded, "(avg2 4 6)"), loaded.published) == {(5.0,)}
        assert save_snapshot(loaded) == save_snapshot(db)

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
        "domain (point2d real real)\n"
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

    def test_canonical_numbers_load_and_save_back(self):
        text = (
            ";; relang snapshot v1\nrelation (p (n int) (x real) (t timestamp))\n\n"
            "row p 1 {-10 1e+20 -0799}\nrow p 2 {10 1.5 +1941-03-26}\n"
        )
        assert save_snapshot(load_snapshot(text)) == text

    def test_non_ascii_ordinal(self):
        text = ';; relang snapshot v1\nrelation (genre text)\n\nrow genre \u00b9 {"a"}\n'
        with pytest.raises(SnapshotFormatError):
            load_snapshot(text)


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
