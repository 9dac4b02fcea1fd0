import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relang import parse_expression, parse_script, parse_statement, render, tokenize
from relang.errors import IllegalCharacter, ParseError, UnterminatedString
from relang.syntax import (
    Assignment,
    BareQuery,
    Command,
    Connection,
    Const,
    Definition,
    DomainSpec,
    Name,
    OpApply,
    Output,
    Product,
    Projection,
    Selection,
    Typecast,
    Union_,
    Wildcard,
)
from relang.values import quote_text

from corpus import CORPUS


class TestTokenizer:
    def test_arithmetic_example(self):
        kinds = [(t.kind, t.lexeme) for t in tokenize("(+ 1 2 3 4 5)")]
        assert kinds == [
            ("lparen", "("),
            ("operator", "+"),
            ("int-literal", "1"),
            ("int-literal", "2"),
            ("int-literal", "3"),
            ("int-literal", "4"),
            ("int-literal", "5"),
            ("rparen", ")"),
        ]

    def test_empty_source(self):
        assert tokenize("") == []

    def test_quoted_selection_example(self):
        kinds = [(t.kind, t.lexeme) for t in tokenize("(author 'Dawkins' ?)")]
        assert kinds == [
            ("lparen", "("),
            ("name", "author"),
            ("text-literal", "Dawkins"),
            ("question", "?"),
            ("rparen", ")"),
        ]

    def test_comments_produce_no_tokens(self):
        assert tokenize("// a comment line\n// another\n") == []
        assert [t.lexeme for t in tokenize("1 // trailing\n2")] == ["1", "2"]

    def test_both_quote_styles_are_equal(self):
        assert parse_expression('"Dawkins"') == parse_expression("'Dawkins'")

    def test_keywords_are_exactly_the_statement_words(self):
        toks = tokenize("relation domain function add remove update abolish output commit rollback")
        assert all(t.kind == "keyword" for t in toks)
        toks = tokenize("int real text timestamp order tabular authors")
        assert all(t.kind == "name" for t in toks)

    def test_negative_literal_attaches_without_space(self):
        assert [t.kind for t in tokenize("-17")] == ["int-literal"]
        assert [t.kind for t in tokenize("- 17")] == ["operator", "int-literal"]
        assert [(t.kind, t.lexeme) for t in tokenize("(5 -3)")][1:3] == [
            ("int-literal", "5"),
            ("int-literal", "-3"),
        ]

    def test_real_literals(self):
        assert [t.kind for t in tokenize("2.5 1e3 -1.5e-2 2e+10")] == ["real-literal"] * 4
        # a bare dot after a number stays a wildcard
        assert [t.kind for t in tokenize("1 .")] == ["int-literal", "dot"]

    def test_operators_munch_two_chars(self):
        assert [t.lexeme for t in tokenize("<= >= != < > = ! ~")] == [
            "<=", ">=", "!=", "<", ">", "=", "!", "~",
        ]
        assert tokenize("=")[0].kind == "equals"

    def test_unterminated_string(self):
        with pytest.raises(UnterminatedString):
            tokenize('"never closed')

    def test_illegal_character(self):
        with pytest.raises(IllegalCharacter) as exc:
            tokenize("(a @ b)")
        assert exc.value.line == 1

    def test_positions(self):
        toks = tokenize("(author\n  name)")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[2].line, toks[2].column) == (2, 3)


class TestParser:
    def test_definition_example(self):
        stmt = parse_statement("relation (author (name text) (birthdate timestamp))")
        assert stmt == Definition(
            "relation",
            "author",
            (DomainSpec("name", "text"), DomainSpec("birthdate", "timestamp")),
        )

    def test_unnamed_domains(self):
        stmt = parse_statement("relation (book author (title text) timestamp)")
        assert stmt.domains == (
            DomainSpec(None, "author"),
            DomainSpec("title", "text"),
            DomainSpec(None, "timestamp"),
        )

    def test_function_definition_has_body(self):
        stmt = parse_statement("function (avg2 (a real) (b real)) (/ (+ a b) 2)")
        assert stmt.klass == "function"
        assert isinstance(stmt.body, OpApply) and stmt.body.op == "/"

    def test_assignment_of_command(self):
        stmt = parse_statement("Homer = add author {'Homer' '800 BC'}")
        assert isinstance(stmt, Assignment) and stmt.name == "Homer"
        assert isinstance(stmt.rhs, Command)
        assert stmt.rhs.verb == "add" and stmt.rhs.relation == "author"
        assert isinstance(stmt.rhs.set_arg, Product)

    def test_connection_example(self):
        stmt = parse_statement("{genre (author 'Dawkins' ?)}")
        assert isinstance(stmt, BareQuery)
        expr = stmt.expr
        assert expr == Connection(
            "genre", Selection("author", (Const("Dawkins", "text"), Wildcard()))
        )

    def test_brace_of_non_name_members_is_a_product(self):
        assert isinstance(parse_expression('{1 2 "txt"}'), Product)
        assert isinstance(parse_expression('{(author) "he is author"}'), Product)
        assert isinstance(parse_expression("{(1 2) 3}"), Product)

    def test_question_and_dot_are_the_same_wildcard(self):
        assert parse_expression("(author 'X' ?)") == parse_expression("(author 'X' .)")

    def test_second_position_operator_normalizes_to_prefix(self):
        assert parse_expression('("xcf" < "fgh")') == parse_expression('(< "xcf" "fgh")')
        assert parse_expression("(a < b)") == parse_expression("(< a b)")
        assert parse_expression("(1 + 2 3)") == parse_expression("(+ 1 2 3)")

    def test_filter_colon_spacing_is_free(self):
        tight = parse_expression('(author :(name ~ "A.*"))')
        loose = parse_expression('(author : (name ~ "A.*"))')
        assert tight == loose
        assert tight.filter == OpApply("~", (Name("name"), Const("A.*", "text")))

    def test_typecast_vs_type_marker(self):
        assert parse_expression('(int "123")') == Typecast("int", Const("123", "text"))
        assert parse_expression("(text)") == Selection("text", ())

    def test_empty_parens_are_the_empty_set(self):
        assert parse_expression("()") == Union_(())

    def test_negative_literal_in_parens(self):
        assert parse_expression("(-17)") == Union_((Const(-17, "int"),))

    def test_update_assignments(self):
        stmt = parse_statement(
            'update author (book:(title ~ "A.*")) (name (capitalize name) birthdate "1910")'
        )
        assert stmt.verb == "update"
        assert [attr for attr, _ in stmt.assignments] == ["name", "birthdate"]

    def test_output_forms(self):
        plain = parse_statement("output (genre)")
        assert plain == Output(Selection("genre", ()), None, ())
        full = parse_statement("output csv order text (genre)")
        assert full.format_name == "csv" and full.order_attrs == ("text",)

    def test_projection_paths(self):
        expr = parse_expression("[(book_genre . (genre 'sci-fi')) [book [author name] title]]")
        assert isinstance(expr, Projection)
        (path,) = expr.paths
        assert path.name == "book"
        assert [p.name for p in path.subs] == ["author", "title"]

    def test_bare_name_is_not_a_constructor_member(self):
        with pytest.raises(ParseError):
            parse_expression("{genre author 1}")
        with pytest.raises(ParseError):
            parse_expression("(1 genre)")

    def test_wildcard_outside_selection_args_is_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("{. 1}")
        with pytest.raises(ParseError):
            parse_script(".")

    def test_error_carries_position_and_expectation(self):
        with pytest.raises(ParseError) as exc:
            parse_script("relation (author")
        assert exc.value.line == 1
        assert exc.value.column >= 16
        assert str(exc.value).endswith(f"(line 1, column {exc.value.column})")

    @pytest.mark.parametrize(
        "line, column, text",
        [(None, None, "bad"), (4, None, "bad (line 4)"), (4, 7, "bad (line 4, column 7)")],
    )
    def test_an_error_names_only_the_position_it_knows(self, line, column, text):
        assert str(ParseError("bad", line, column)) == text

    def test_statement_boundaries_need_no_separator(self):
        stmts = parse_script("(author) (book) commit")
        assert len(stmts) == 3


class TestRenderer:
    def test_product_canonical_form(self):
        expr = Product((Const(1, "int"), Const(2, "int"), Const("txt", "text")))
        assert render(BareQuery(expr)) == '{1 2 "txt"}'

    def test_single_operand_application(self):
        assert render(BareQuery(OpApply("+", (Const(1, "int"),)))) == "(+ 1)"

    def test_canonicalization_of_quotes_wildcards_and_operators(self):
        stmt = parse_statement("(author :(name ~ 'A.*'))")
        assert render(stmt) == '(author : (~ name "A.*"))'
        stmt = parse_statement("(author 'X' ?)")
        assert render(stmt) == '(author "X" .)'

    def test_real_and_int_literals_stay_distinct(self):
        assert render(BareQuery(Const(2, "int"))) == "2"
        assert render(BareQuery(Const(2.0, "real"))) == "2.0"
        assert parse_expression("2") != parse_expression("2.0")

    @pytest.mark.parametrize("snippet", CORPUS)
    def test_round_trip_over_the_corpus(self, snippet):
        first = parse_script(snippet)
        rendered = "\n".join(render(s) for s in first)
        second = parse_script(rendered)
        assert second == first
        assert parse_script("\n".join(render(s) for s in second)) == second

    @pytest.mark.parametrize("snippet", CORPUS)
    def test_tokenization_is_whitespace_insensitive(self, snippet):
        rng = random.Random(hash(snippet) & 0xFFFF)
        toks = tokenize(snippet)
        spaced = []
        for t in toks:
            if t.kind == "text-literal":
                spaced.append(quote_text(t.lexeme))
            else:
                spaced.append(t.lexeme)
            spaced.append(rng.choice([" ", "  ", "\n", " \n  ", "\t"]))
        assert parse_script("".join(spaced)) == parse_script(snippet)


@given(st.text(alphabet=" \t\n", max_size=10))
def test_whitespace_only_sources_are_empty_scripts(ws):
    assert parse_script(ws) == []


@given(st.integers(-(10 ** 6), 10 ** 6))
def test_integer_literal_round_trip(n):
    assert parse_expression(str(n)) == Const(n, "int")


def test_nested_paths_count_toward_the_nesting_limit():
    from relang.syntax import MAX_NESTING

    def nested(levels):
        return "[(author) " + "[name " * levels + "x" + "]" * levels + "]"

    expr = parse_expression(nested(MAX_NESTING - 1))
    assert parse_expression(render(BareQuery(expr))) == expr
    with pytest.raises(ParseError, match="brackets nest deeper than"):
        parse_expression(nested(MAX_NESTING))


@pytest.mark.parametrize("text", ["²", "-²", "1²", "1.٣"])
def test_non_ascii_digits_are_not_numbers(text):
    with pytest.raises((IllegalCharacter, ParseError)):
        parse_expression(text)
