import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from relang import parse_expression, syntax
from relang.errors import (
    AmbiguousPath,
    ArityMismatch,
    BadCast,
    BadRegex,
    CallTooDeep,
    DomainTypeMismatch,
    IntegrityError,
    NoConnection,
    ParseError,
    NotARelation,
    NotEnumerable,
    SchemaMismatch,
    TypeMismatch,
    UnknownAttr,
    UnknownName,
    UnknownRelation,
)
from relang.catalog import MAX_CALL_DEPTH
from relang.store import DbState
from relang.evaluator import Env, SchemaCol, eval_expr, relation_schema, shortest_path
from relang.values import (
    IntVal,
    RealVal,
    RefVal,
    TextVal,
    TimestampVal,
    TupleVal,
    encode_tuple,
    render_timestamp,
)

from conftest import build_db, q, rows, run
from oracles import index_faults, random_tree_db, tuple_set


class TestExpressions:
    def test_nary_sum(self, library):
        assert q(library, "(+ 1 2 3 4 5)") == IntVal(15)

    def test_composite_boolean_example(self, library):
        # (* 1 2 3 -5) = -30; -17 > -30; "xcf" < "fgh" is false; & -> false
        assert q(library, '(& (> (-17) (* 1 2 3 (-5))) ("xcf" < "fgh"))') is False

    def test_cast_then_add(self, library):
        assert q(library, '(+ (int "123") 4)') == IntVal(127)

    def test_division_of_ints_yields_real(self, library):
        assert q(library, "(/ (+ 1 2) 2)") == RealVal(1.5)
        assert q(library, "(/ 4 2)") == RealVal(2.0)

    def test_subtraction_folds_from_the_first_operand(self, library):
        assert q(library, "(- 10 1 2)") == IntVal(7)

    def test_comparisons_coerce_the_second_operand(self, library):
        assert q(library, '((timestamp "1941-03-26") > "1940")') is True
        assert q(library, '((timestamp "1941") = "1941")') is True
        assert q(library, '((timestamp "1941") = "1941-01-01")') is False

    def test_numeric_cross_type_comparison_is_exact(self, library):
        assert q(library, "(< 2 2.5)") is True
        assert q(library, "(> 3 2.5)") is True

    def test_int_first_operand_rejects_real_arithmetic(self, library):
        with pytest.raises(TypeMismatch):
            q(library, "(+ 1 2.5)")
        assert q(library, "(+ 1.5 2)") == RealVal(3.5)

    def test_division_by_zero(self, library):
        with pytest.raises(TypeMismatch):
            q(library, "(/ 1 0)")

    def test_integer_arithmetic_stays_in_64_bits(self, library):
        assert q(library, "(+ 9223372036854775806 1)") == IntVal(9223372036854775807)
        with pytest.raises(DomainTypeMismatch):
            q(library, "(+ 9223372036854775807 1)")

    def test_integer_cast_stays_in_64_bits(self, library):
        with pytest.raises(DomainTypeMismatch):
            q(library, '(int "99999999999999999999")')

    def test_integer_literal_stays_in_64_bits(self, library):
        with pytest.raises(DomainTypeMismatch):
            q(library, "9223372036854775808")

    @pytest.mark.parametrize("digits", ["1" + "0" * 19, "9" * 5000])
    def test_a_literal_of_more_than_19_digits_is_refused_unread(self, library, digits):
        for literal in (digits, "-00" + digits):
            with pytest.raises(DomainTypeMismatch) as exc:
                q(library, f"(+ 1 {literal})")
            assert str(exc.value) == "integer literal at line 1, column 6 is out of 64-bit range"

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ('(int "{}")'.format("9" * 5000), BadCast, "cannot read <5000 characters> as int"),
            ('(int "{}")'.format("9" * 4000), DomainTypeMismatch, "integer out of 64-bit range: <4000 characters>"),
            ('(real "{}")'.format("9" * 5000), BadCast, "cannot read <5000 characters> as real"),
            ('(timestamp "{}")'.format("9" * 5000), BadCast, "not a timestamp literal: <5000 characters>"),
            ('(int "1_0x")', BadCast, "cannot read '1_0x' as int"),
        ],
        ids=["int", "int_in_range_of_int", "real", "timestamp", "short"],
    )
    def test_a_long_input_is_named_by_its_length(self, library, text, error, message):
        with pytest.raises(error) as exc:
            q(library, text)
        assert str(exc.value) == message

    def test_leading_zeros_do_not_count_against_the_range(self, library):
        assert q(library, "-0009223372036854775808") == IntVal(-9223372036854775808)
        assert q(library, "0009223372036854775807") == IntVal(9223372036854775807)
        assert q(library, "007") == IntVal(7)

    def test_logic_and_negation(self, library):
        assert q(library, "(& (> 2 1) (! (> 1 2)))") is True
        with pytest.raises(TypeMismatch):
            q(library, "(& 1 2)")

    def test_regex_is_anchored_full_string(self, library):
        assert q(library, '("Austen" ~ "A.*")') is True
        assert q(library, '("xAusten" ~ "A.*")') is False
        assert q(library, '("Austen" ~ "usten")') is False

    def test_regex_dialect_limits(self, library):
        assert q(library, '("abc" ~ "a[bc]+")') is True
        with pytest.raises(BadRegex):
            q(library, '("a" ~ "(a|b)")')
        with pytest.raises(BadRegex):
            q(library, '("a" ~ "^a")')

    def test_a_rejected_pattern_raises_on_every_call(self, library):
        # compiled patterns are cached; a rejection must not be
        for pattern in ("a{2}", "a**"):  # outside the dialect; refused by `re`
            for _ in range(3):
                with pytest.raises(BadRegex):
                    q(library, f'("aa" ~ "{pattern}")')

    def test_unknown_name(self, library):
        with pytest.raises(UnknownName):
            q(library, "(+ nobody 1)")

    def test_bad_cast(self, library):
        with pytest.raises(BadCast):
            q(library, '(int "twelve")')

    def test_comparison_refuses_mixed_scalars(self, library):
        with pytest.raises(TypeMismatch):
            q(library, '(> 1 "two")')


class TestSelection:
    def test_bare_relation_name_selects_everything(self, library):
        assert len(q(library, "(author)")) == 3

    def test_filter_by_regex(self, library):
        result = q(library, '(author :(name ~ "A.*"))')
        assert rows(result, library.published) == {("Austen", "+1775-12-16")}

    def test_nested_selection_constrains_a_ref_position(self, library):
        result = q(library, '(book (author :(name ~ "A.*")) . .)')
        assert rows(result, library.published) == {
            (("Austen", "+1775-12-16"), "Emma", "+1815")
        }

    def test_type_markers_are_free_positions(self, library):
        a = q(library, '(book (author :(name ~ "A.*")) (text) (timestamp))')
        b = q(library, '(book (author :(name ~ "A.*")) . .)')
        assert set(a.members()) == set(b.members())

    def test_selection_from_empty_relation(self, library):
        run(library, 'relation (empty text)')
        assert len(q(library, "(empty)")) == 0

    def test_positional_const_on_timestamp_domain(self, library):
        exact = q(library, '(author "Dawkins" "1941-03-26")')
        assert len(exact) == 1
        year_only = q(library, '(author "Dawkins" "1941")')
        assert len(year_only) == 0  # a year literal is not the full date

    def test_positional_equals_filter_form(self, library):
        positional = q(library, '(genre "epic")')
        filtered = q(library, '(genre :(text = "epic"))')
        assert set(positional.members()) == set(filtered.members())

    def test_too_many_args(self, library):
        with pytest.raises(ArityMismatch):
            q(library, '(genre "a" "b")')

    def test_unknown_relation(self, library):
        with pytest.raises(UnknownRelation):
            q(library, "(nothing)")

    def test_scalar_type_alone_is_not_enumerable(self, library):
        with pytest.raises(NotEnumerable):
            q(library, "(text)")

    def test_filter_must_be_a_condition(self, library):
        with pytest.raises(TypeMismatch):
            q(library, "(author :(+ 1 1))")

    def test_membership_constraint_from_a_union(self, library):
        result = q(library, '(genre ("epic" "bore"))')
        assert rows(result, library.published) == {("epic",), ("bore",)}


class TestConstructors:
    def test_product_of_scalars_is_one_triple(self, library):
        result = q(library, '{1 2 "txt"}')
        assert rows(result, library.published) == {(1, 2, "txt")}

    def test_product_over_a_set_member(self, library):
        result = q(library, "{(1 2) 3}")
        assert rows(result, library.published) == {(1, 3), (2, 3)}

    def test_product_extends_each_selected_tuple(self, library):
        result = q(library, '{(author) "he is author"}')
        assert len(result) == 3
        assert all(t[-1] == TextVal("he is author") for t in result.tuples())
        assert result.width() == 3

    def test_union_of_ints(self, library):
        assert rows(q(library, "(1 2 3)"), library.published) == {(1,), (2,), (3,)}

    def test_union_of_pairs(self, library):
        assert rows(q(library, "({1 2} {3 4})"), library.published) == {(1, 2), (3, 4)}

    def test_union_collapses_duplicates(self, library):
        assert rows(q(library, "(1 1 1)"), library.published) == {(1,)}

    def test_union_extends_a_selected_set(self, library):
        result = q(library, '((genre) "noir")')
        assert rows(result, library.published) == {("sci-fi",), ("epic",), ("bore",), ("noir",)}

    def test_union_schema_mismatch(self, library):
        with pytest.raises(SchemaMismatch):
            q(library, '(1 "one")')

    def test_a_union_reads_an_int_column_as_real_beside_a_real_one(self, library):
        result = q(library, "({1 2} {1.5 2.5})")
        assert [col.type_name for col in result.schema] == ["real", "real"]
        assert set(result.members()) == {
            (RealVal(1.0), RealVal(2.0)),
            (RealVal(1.5), RealVal(2.5)),
        }
        # only int beside real widens; any other difference in shape does not
        with pytest.raises(SchemaMismatch):
            q(library, '({1 2} {1.5 "a"})')
        with pytest.raises(SchemaMismatch):
            q(library, "({1 2} {1.5 2.5 3})")

    def test_empty_set_literal(self, library):
        assert len(q(library, "()")) == 0


class TestFunctions:
    def test_mapping_over_argument_sets(self, library):
        run(library, "function (avg2 (a real) (b real)) (/ (+ a b) 2)")
        result = q(library, "(avg2 (1 2 3) 3)")
        assert rows(result, library.published) == {(2.0,), (2.5,), (3.0,)}

    def test_singleton_arguments(self, library):
        run(library, "function (avg2 (a real) (b real)) (/ (+ a b) 2)")
        assert rows(q(library, "(avg2 4 6)"), library.published) == {(5.0,)}

    def test_empty_argument_set_maps_to_empty(self, library):
        run(library, "function (avg2 (a real) (b real)) (/ (+ a b) 2)")
        assert len(q(library, "(avg2 () 3)")) == 0

    def test_builtin_capitalize_uppercases_first_letter_only(self, library):
        assert rows(q(library, '(capitalize "homer III")'), library.published) == {
            ("Homer III",)
        }

    def test_builtin_length(self, library):
        assert rows(q(library, '(length "Ulysses")'), library.published) == {(7,)}

    def test_wrong_arity(self, library):
        with pytest.raises(ArityMismatch):
            q(library, '(capitalize "a" "b")')

    def test_function_with_unbound_argument_is_not_enumerable(self, library):
        run(library, "function (avg2 (a real) (b real)) (/ (+ a b) 2)")
        with pytest.raises(NotEnumerable):
            q(library, "(avg2 . 5)")

    def test_mapping_coherence(self, library):
        # f(A, B) equals the union of f over all singleton pairs
        run(library, "function (avg2 (a real) (b real)) (/ (+ a b) 2)")
        for size_a, size_b in [(1, 1), (2, 3), (4, 2)]:
            a_vals = range(size_a)
            b_vals = range(10, 10 + size_b)
            whole = q(library, f"(avg2 {_union_text(a_vals)} {_union_text(b_vals)})")
            pieces = set()
            for va, vb in itertools.product(a_vals, b_vals):
                pieces |= set(q(library, f"(avg2 {va} {vb})").members())
            assert set(whole.members()) == pieces


class TestProjection:
    def test_named_positions_in_listed_order(self, library):
        result = q(library, "[(book) author title]")
        assert rows(result, library.published) == {
            (("Dawkins", "+1941-03-26"), "The Selfish Gene"),
            (("Homer", "-0799"), "Ulysses"),
            (("Austen", "+1775-12-16"), "Emma"),
        }

    def test_nested_paths_dereference_refs(self, library):
        result = q(library, '[(book_genre . (genre "sci-fi")) [book [author name] title]]')
        assert rows(result, library.published) == {("Dawkins", "The Selfish Gene")}

    def test_projecting_every_attr_is_identity(self, library):
        whole = q(library, "(book)")
        projected = q(library, "[(book) author title timestamp]")
        assert set(projected.members()) == set(whole.members())

    def test_duplicates_collapse(self, library):
        run(library, 'add author {"Another" "1941-03-26"} commit')
        result = q(library, "[(author) birthdate]")
        assert len(result) == 3  # two authors share 1941-03-26

    # paths are resolved before any row is read, so an empty source fails too
    SOURCES = ["(book)", '(book . "no such title" .)']

    def test_unknown_attr(self, library):
        for source in self.SOURCES:
            with pytest.raises(UnknownAttr):
                q(library, f"[{source} missing]")
            with pytest.raises(UnknownAttr):
                q(library, f"[{source} [author missing]]")

    def test_nested_path_on_scalar_is_rejected(self, library):
        for source in self.SOURCES:
            with pytest.raises(NotARelation):
                q(library, f"[{source} [title text]]")


class TestConnection:
    def test_genres_of_dawkins(self, library):
        result = q(library, '{genre (author "Dawkins" ?)}')
        assert rows(result, library.published) == {
            ("sci-fi", "Dawkins", "+1941-03-26")
        }

    def test_self_connection_pairs_each_tuple_with_itself(self, library):
        result = q(library, "{author (author)}")
        plain = rows(result, library.published)
        assert plain == {
            ("Dawkins", "+1941-03-26", "Dawkins", "+1941-03-26"),
            ("Homer", "-0799", "Homer", "-0799"),
            ("Austen", "+1775-12-16", "Austen", "+1775-12-16"),
        }

    def test_empty_source_is_an_empty_result(self, library):
        result = q(library, '{department (genre "nonexistent")}')
        assert len(result) == 0

    def test_department_to_genre_spans_the_whole_graph(self, library):
        result = q(library, '{department (genre "epic")}')
        # Ulysses is epic and available in main
        assert rows(result, library.published) == {("main", "epic")}

    def test_no_connection_is_an_error(self, library):
        run(library, "relation (island text)")
        with pytest.raises(NoConnection):
            q(library, "{island (author)}")

    def test_two_equal_paths_are_an_error_naming_both(self, library):
        run(
            library,
            "relation (city text) relation (flight (frm city) (to city))",
        )
        with pytest.raises(AmbiguousPath) as exc:
            q(library, "{city (flight)}")
        assert len(exc.value.paths) == 2
        assert any("flight.frm" in p for p in exc.value.paths)
        assert any("flight.to" in p for p in exc.value.paths)

    def test_path_failures_raise_on_every_call_with_the_same_message(self, library):
        run(
            library,
            "relation (island text) relation (city text)"
            " relation (flight (frm city) (to city))",
        )
        for error, start, goal in [
            (NoConnection, "island", "author"),
            (AmbiguousPath, "city", "flight"),
        ]:
            raised = []
            for _ in range(3):
                with pytest.raises(error) as exc:
                    shortest_path(library.catalog, start, goal)
                raised.append(exc.value)
            assert len({str(e) for e in raised}) == 1
            assert len({id(e) for e in raised}) == 3  # a fresh error each call
            assert len({getattr(e, "paths", ()) for e in raised}) == 1

    def test_a_defined_catalog_does_not_see_its_parents_paths(self, library):
        run(library, "relation (island text)")
        parent = library.catalog
        with pytest.raises(NoConnection):
            shortest_path(parent, "island", "author")
        genre_path = shortest_path(parent, "genre", "author")
        run(library, "relation (ferry island author)")
        child = library.catalog
        assert [e.label() for e, _ in shortest_path(child, "island", "author")] == [
            "ferry.island",
            "ferry.author",
        ]
        assert shortest_path(child, "genre", "author") == genre_path
        with pytest.raises(NoConnection):
            shortest_path(parent, "island", "author")
        assert rows(q(library, '{island (author "Homer" .)}'), library.txn.shadow) == set()

    def test_variable_source_keeps_its_relation(self, library):
        run(library, 'A = (author "Dawkins" .)')
        result = q(library, "{genre (A)}")
        assert rows(result, library.txn.shadow) == {("sci-fi", "Dawkins", "+1941-03-26")}


class TestVariables:
    def test_binding_selects_like_a_relation(self, library):
        run(library, 'A = (author:(name ~ "A.*"))')
        assert rows(q(library, "(A)"), library.txn.shadow) == {("Austen", "+1775-12-16")}

    def test_filter_over_a_binding(self, library):
        run(library, 'A = (author:(name ~ "A.*"))')
        assert len(q(library, '(A:(birthdate > "1940"))')) == 0  # Austen b. 1775

    def test_positional_args_over_a_binding(self, library):
        run(library, "A = (author)")
        assert len(q(library, '(A . "1940")')) == 0
        assert len(q(library, '(A . "1941-03-26")')) == 1

    def test_binding_as_a_positional_constraint(self, library):
        run(library, "Dawkins = (author 'Dawkins' .)")
        result = q(library, "(book (Dawkins) . .)")
        assert rows(result, library.txn.shadow) == {
            (("Dawkins", "+1941-03-26"), "The Selfish Gene", "+1976")
        }


class TestDomainClassEvaluation:
    def test_fully_bound_domain_selection_constructs_tuples(self, library):
        run(library, "domain (point2d real real)")
        result = q(library, "(point2d 1 2)")
        assert rows(result, library.published) == {((1.0, 2.0),)} or rows(
            result, library.published
        ) == {(1.0, 2.0)}

    def test_unbound_domain_selection_is_not_enumerable(self, library):
        run(library, "domain (point2d real real)")
        with pytest.raises(NotEnumerable):
            q(library, "(point2d)")
        with pytest.raises(NotEnumerable):
            q(library, "(point2d 1 .)")

    def test_domain_valued_rows_store_inline(self, library):
        run(
            library,
            "domain (point2d real real)"
            " domain (circle (radius real) (center point2d))"
            " relation (my_circle circle)"
            " add my_circle {(circle 0.5 (point2d 1 2))}"
            " commit",
        )
        result = q(library, "(my_circle)")
        assert rows(result, library.published) == {((0.5, (1.0, 2.0)),)}

    def test_a_selection_bound_by_a_set_of_inline_tuples(self, library):
        run(
            library,
            "domain (point int int) relation (place (name text) (at point))"
            ' add place ({"home" (point 1 2)} {"work" (point 3 4)} {"away" (point 5 6)})'
            " commit",
        )
        result = q(library, "(place . ((point 1 2) (point 5 6)))")
        assert rows(result, library.published) == {("home", (1, 2)), ("away", (5, 6))}

    NESTED = "domain (p (x real) (y real)) domain (s (a p)) relation (r (v s))"

    def test_a_spelled_out_inner_tuple_takes_its_domains_types(self, library):
        run(library, self.NESTED)
        assert q(library, "(s {1 2})").tuples() == [
            (TupleVal("p", (RealVal(1.0), RealVal(2.0))),)
        ]

    def test_a_constructed_inner_tuple_can_be_stored(self, library):
        run(library, self.NESTED + " add r {(s {1 2})} commit")
        assert rows(q(library, "(r)"), library.published) == {(((1.0, 2.0),),)}

    def test_an_ill_typed_inner_tuple_is_rejected(self, library):
        run(library, "domain (pt (x int) (y int)) domain (seg (a pt) (b pt))")
        assert len(q(library, "(seg {3 4} {1 2})")) == 1
        with pytest.raises(TypeMismatch):
            q(library, '(seg {"x" "y"} {1 2})')


class TestSpelledOutTuples:
    """A tuple spelled out by its values means in a selection and in a domain
    constructor what it means in a write: its values are conformed to the
    position's domain first."""

    ENTRY = "domain (entry author (n int)) relation (shelf entry (label text))"

    def test_a_reference_position_reads_a_timestamp_spelled_as_text(self, library):
        spelled = q(library, '(book {"Dawkins" "1941-03-26"} . .)')
        assert rows(spelled, library.published) == {
            (("Dawkins", "+1941-03-26"), "The Selfish Gene", "+1976")
        }
        assert set(spelled.members()) == set(q(library, '(book (author "Dawkins" .) . .)').members())
        removed = run(library, 'remove book {{"Dawkins" "1941-03-26"} "The Selfish Gene" "1976"}')
        assert set(removed.members()) == set(spelled.members())

    def test_a_reference_position_reads_a_nested_reference_spelled_out(self, library):
        spelled = q(library, '(book_genre {(author "Austen" .) "Emma" "1815"} .)')
        assert len(spelled) == 1
        assert set(spelled.members()) == set(q(library, '(book_genre (book . "Emma" .) .)').members())

    def test_a_spelled_out_row_names_a_collision_s_whole_run(self, library):
        # an update leaves two equal authors until commit: a book of either
        # references the values spelled out
        run(library, 'update author (author "Austen" .) (name "Homer" birthdate "800 BC")')
        both = q(library, '(book (author "Homer" .) . .)')
        assert len(both) == 2
        for spelled in ('{"Homer" "800 BC"}', '{(author "Homer" .)}'):
            assert set(q(library, f"(book {spelled} . .)").members()) == set(both.members())

    def test_an_inline_position_reads_ints_as_its_reals(self, library):
        run(
            library,
            "domain (pt (x real) (y real)) relation (place (name text) (at pt))"
            ' add place {"home" (pt 1 2)} commit',
        )
        home = {("home", (1.0, 2.0))}
        assert rows(q(library, "(place . {1 2})"), library.published) == home
        assert rows(q(library, "(place . {1.0 2.0})"), library.published) == home
        assert rows(run(library, 'remove place {"home" {1 2}}'), library.published) == home

    def test_an_inline_position_reads_a_union_of_ints_and_reals(self, library):
        run(
            library,
            "domain (pt (x real) (y real)) relation (place (name text) pt)"
            ' add place ({"home" 1.0 2.0} {"work" 1.5 2.5}) commit',
        )
        assert rows(q(library, "(place . ({1 2} {1.5 2.5}))"), library.published) == {
            ("home", (1.0, 2.0)),
            ("work", (1.5, 2.5)),
        }

    def test_a_spelled_out_inline_tuple_names_a_collision_s_whole_run(self, library):
        # an update leaves two equal authors until commit: the shelf row of
        # either holds the entry spelled out, as it holds one read from them
        run(
            library,
            self.ENTRY + ' add shelf ({(entry (author "Austen" .) 3) "a"} {(entry (author "Homer" .) 3) "h"}) commit'
            ' update author (author "Austen" .) (name "Homer" birthdate "800 BC")',
        )
        both = q(library, "(shelf . .)")
        assert len(both) == 2
        for spelled in ('{{"Homer" "800 BC"} 3}', '(entry (author "Homer" .) 3)', '{(author "Homer" .) 3}'):
            assert set(q(library, f"(shelf {spelled} .)").members()) == set(both.members())

    def test_a_domain_constructor_reads_a_spelled_out_row(self, library):
        run(library, self.ENTRY)
        built = q(library, '(entry {"Homer" "800 BC"} 3)')
        assert rows(built, library.published) == {(("Homer", "-0799"), 3)}
        run(library, 'add shelf {{"Homer" "800 BC"} 3 "x"} commit')
        assert rows(q(library, '(shelf (entry {"Homer" "800 BC"} 3) .)'), library.published) == {
            ((("Homer", "-0799"), 3), "x")
        }

    def test_a_domain_constructor_reads_a_row_added_in_its_transaction(self, library):
        run(library, self.ENTRY + ' add author {"Nobody" "1900"}')
        assert rows(q(library, '(entry {"Nobody" "1900"} 3)'), library.txn.shadow) == {
            (("Nobody", "+1900"), 3)
        }

    def test_a_domain_constructor_names_a_value_it_cannot_coerce(self, library):
        run(library, self.ENTRY)
        with pytest.raises(TypeMismatch, match="cannot treat int as text"):
            q(library, "(entry {1 2} 3)")

    def test_a_read_reserves_no_row_for_a_missing_reference(self, library):
        run(library, self.ENTRY)
        with pytest.raises(TypeMismatch, match="no such 'author' tuple"):
            q(library, '(entry {"Nobody" "1900"} 3)')
        assert len(q(library, '(shelf {{"Nobody" "1900"} 3} .)')) == 0
        with pytest.raises(IntegrityError):
            run(library, 'add shelf {{"Nobody" "1900"} 3 "x"} commit')

    def test_a_write_and_an_expression_name_one_fault_by_where_it_is_found(self, library):
        # conforming a written tuple raises DomainTypeMismatch; evaluating
        # a domain constructor, as any expression, raises TypeMismatch
        run(library, "domain (pt (x int) (y int)) relation (place (name text) (at pt))")
        with pytest.raises(DomainTypeMismatch):
            run(library, 'add place {"home" 1 2.0}')
        with pytest.raises(TypeMismatch):
            run(library, 'add place {"home" (pt 1 2.0)}')
        with pytest.raises(TypeMismatch):
            q(library, "(pt {1 2} 3)")


# --- algebraic properties ---------------------------------------------------------

ints = st.lists(st.integers(-5, 5), min_size=1, max_size=4)


def _union_text(values):
    return "(" + " ".join(str(v) for v in values) + ")"


@given(ints, ints, ints)
@settings(max_examples=40, deadline=None)
def test_product_is_associative_in_member_concatenation(a, b, c):
    db = build_db("relation (unused text)")
    whole = q(db, "{" + " ".join(_union_text(v) for v in (a, b, c)) + "}")
    ab = q(db, "{" + _union_text(a) + " " + _union_text(b) + "}")
    c_set = q(db, _union_text(c))
    regrouped = {x + y for x in ab.tuples() for y in c_set.tuples()}
    assert set(whole.tuples()) == regrouped


@given(ints, ints)
@settings(max_examples=40, deadline=None)
def test_union_is_commutative_and_idempotent(a, b):
    db = build_db("relation (unused text)")
    body_a = " ".join(str(v) for v in a)
    body_b = " ".join(str(v) for v in b)
    ab = q(db, f"({body_a} {body_b})")
    ba = q(db, f"({body_b} {body_a})")
    assert set(ab.members()) == set(ba.members())
    twice = q(db, f"({body_a} {body_a})")
    assert set(twice.members()) == set(q(db, f"({body_a})").members())


def test_selection_const_equals_filter_for_every_fixture_relation(library):
    cases = [
        ("genre", "text", '"epic"'),
        ("department", "text", '"main"'),
        ("author", "name", '"Homer"'),
    ]
    for relation, attr, const in cases:
        positional_args = {
            "genre": f"({relation} {const})",
            "department": f"({relation} {const})",
            "author": f"({relation} {const} .)",
        }[relation]
        positional = q(library, positional_args)
        filtered = q(library, f"({relation} :({attr} = {const}))")
        assert set(positional.members()) == set(filtered.members())


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_reference_selection_equals_a_dereferencing_filter(rng):
    # the slow path: dereference each reference and compare encoded keys
    db, names = random_tree_db(rng)
    state = db.txn.shadow
    for child in names[1:]:
        parent = db.catalog.lookup(child).domains[0].type_name
        chosen = [t for t in state.scan(parent).values() if rng.random() < 0.5]
        allowed = tuple_set(
            relation_schema(db.catalog.lookup(parent)), chosen, relation=parent
        )
        env = Env(db.catalog, state, {"allowed": allowed})
        result = eval_expr(parse_expression(f"({child} allowed)"), env)
        allowed_keys = {encode_tuple(t) for t in allowed.members()}
        expected = {
            t
            for t in state.scan(child).values()
            if encode_tuple(state.get_row(parent, t[0].row)) in allowed_keys
        }
        assert set(result.members()) == expected


# "a" is a prefix of the other texts starting with "a", and NUL and 0x01 are
# the bytes a text key escapes: keys must still tell each of them apart.
PREFIX_TEXTS = ["", "a", "a\x00", "a\x00b", "a\x01", "ab", "b"]


def _literal(value):
    """A syntax node evaluating to the scalar (a timestamp is spelled as
    text, which a timestamp position reads as one)."""
    if isinstance(value, IntVal):
        return syntax.Const(value.value, "int")
    if isinstance(value, RealVal):
        return syntax.Const(value.value, "real")
    if isinstance(value, TextVal):
        return syntax.Const(value.value, "text")
    return syntax.Const(render_timestamp(value), "text")


def _random_scalar(rng, type_name):
    if type_name == "int":
        return IntVal(rng.randint(0, 12))
    if type_name == "real":
        return RealVal(rng.uniform(-5.0, 5.0))
    if type_name == "text":
        return TextVal(rng.choice(PREFIX_TEXTS + ["c"]))
    return TimestampVal(rng.randint(-800, 2100), rng.choice([None, rng.randint(1, 12)]))


def _scalar_set(rng, type_name, pool, name):
    """A case binding a scalar position to a set of 0 to 4 members, drawn
    from ``pool`` and the random scalars of ``type_name``; at a real
    position the members are sometimes ints."""
    as_ints = type_name == "real" and rng.random() < 0.5
    members = set()
    for _ in range(rng.choice([0, 1, rng.randint(2, 4)])):
        if as_ints:
            members.add(IntVal(rng.randint(-5, 5)))
        elif pool and rng.random() < 0.7:
            members.add(rng.choice(pool))
        else:
            members.add(_random_scalar(rng, type_name))
    col = SchemaCol("v", "int" if as_ints else type_name)
    allowed = tuple_set((col,), [(m,) for m in members])
    stored = {RealVal(float(m.value)) if as_ints else m for m in members}
    return syntax.Name(name), {name: allowed}, lambda x: x in stored


def _spelled(state, values):
    """A brace tuple spelling stored values out as literals: a timestamp as
    a text, a whole real as an int, and a referenced row or an inline tuple
    spelled out in turn."""
    members = []
    for v in values:
        if isinstance(v, RefVal):
            members.append(_spelled(state, state.get_row(v.relation, v.row)))
        elif isinstance(v, TupleVal):
            members.append(_spelled(state, v.values))
        elif isinstance(v, RealVal) and v.value.is_integer():
            members.append(syntax.Const(int(v.value), "int"))
        else:
            members.append(_literal(v))
    return syntax.Product(tuple(members))


def _position_cases(rng, state, rel, pos, everything):
    """(argument, bindings, predicate on a stored value) that bind position
    ``pos`` of a relation: stored and unstored scalars, an int at a real
    position, or sets of 0, 1 and several scalars or referenced rows; a
    referenced row or an inline tuple spelled out by its values."""
    dom, name = rel.domains[pos], f"allowed{pos}"
    if dom.is_scalar:
        pool = [t[pos] for t in everything]
        values = rng.sample(pool, min(3, len(pool))) + [_random_scalar(rng, dom.type_name)]
        cases = [(_literal(v), {}, lambda x, v=v: x == v) for v in values]
        if dom.type_name == "real":  # an int argument reads as a real
            n = rng.randint(-5, 5)
            cases.append((syntax.Const(n, "int"), {}, lambda x, n=n: x == RealVal(float(n))))
        cases += [_scalar_set(rng, dom.type_name, pool, name) for _ in range(3)]
        return cases
    if state.catalog.lookup(dom.type_name).klass == "domain":
        pool = [t[pos] for t in everything] + [TupleVal("pt", (RealVal(1.0), RealVal(-0.5)))]
        chosen = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
        cases = [(syntax.Union_(()), {}, lambda x: False)]
        return cases + [(_spelled(state, (v,)), {}, lambda x, v=v: x == v) for v in chosen]
    parent = dom.type_name
    parent_rows = list(state.scan(parent).values())
    cases = [(syntax.Union_(()), {}, lambda x: False)]
    for size in (0, 1, rng.randint(2, max(2, len(parent_rows)))):
        chosen = rng.sample(parent_rows, min(size, len(parent_rows)))
        allowed = tuple_set(
            relation_schema(state.catalog.lookup(parent)), chosen, relation=parent
        )
        keys = {encode_tuple(t) for t in allowed.members()}
        cases.append(
            (
                syntax.Name(name),
                {name: allowed},
                lambda x, keys=keys: encode_tuple(state.get_row(parent, x.row)) in keys,
            )
        )
    if parent_rows:
        row = rng.choice(parent_rows)
        key = encode_tuple(row)
        cases.append(
            (_spelled(state, row), {}, lambda x: encode_tuple(state.get_row(parent, x.row)) == key)
        )
    return cases


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_every_selection_equals_a_full_scan_filter(rng):
    # Each position is bound in turn, alone or with a second one, and each
    # selection runs three times: on the published state, which is sealed
    # and so scans; on the transaction's state, which builds the value maps
    # the selection's scalar positions need; and there again, through them.
    db, names = random_tree_db(rng, texts=PREFIX_TEXTS, refs_anywhere=True, inline=True)
    published, shadow = db.published, db.txn.shadow
    for name in names:
        rel = db.catalog.lookup(name)
        everything = list(shadow.scan(name).values())
        for pos in range(rel.arity):
            for arg, bindings, matches in _position_cases(rng, shadow, rel, pos, everything):
                args = {pos: arg}
                checks = [(pos, matches)]
                bindings = dict(bindings)
                other = rng.randrange(rel.arity)
                if other != pos and rng.random() < 0.5:
                    cases = _position_cases(rng, shadow, rel, other, everything)
                    args[other], more, also = rng.choice(cases)
                    checks.append((other, also))
                    bindings.update(more)
                last = max(i for i, dom in enumerate(rel.domains) if dom.is_scalar)
                condition = None
                if everything and rng.random() < 0.3:
                    v = rng.choice(everything)[last]
                    attr = syntax.Name(rel.domains[last].attr)
                    condition = syntax.OpApply("!=", (attr, _literal(v)))
                    checks.append((last, lambda x, v=v: x != v))
                spelled = tuple(args.get(i, syntax.Wildcard()) for i in range(max(args) + 1))
                selection = syntax.Selection(name, spelled, condition)
                expected = {t for t in everything if all(check(t[p]) for p, check in checks)}
                for state in (published, shadow, shadow):
                    result = eval_expr(selection, Env(db.catalog, state, bindings))
                    assert set(result.members()) == expected
    assert index_faults(shadow) == []
    assert all(not idx.valued for idx in published.indexes.values())


def test_a_selection_reads_only_what_its_bound_positions_allow(library, monkeypatch):
    # a leading scalar set reads one key range per member; a bound
    # reference or scalar position reads its map's buckets: none of them
    # reads the whole relation
    scans = []
    scan = DbState.scan

    def recorded(self, relation, lead=None):
        found = scan(self, relation, lead)
        scans.append((relation, lead, len(found)))
        return found

    monkeypatch.setattr(DbState, "scan", recorded)
    cases = [
        ('(author ("Homer" "Austen") .)', "author", {("Homer", "-0799"), ("Austen", "+1775-12-16")}),
        ('(book . "Emma" .)', "book", {(("Austen", "+1775-12-16"), "Emma", "+1815")}),
        ('(book_genre . (genre "epic"))', "book_genre", {((("Homer", "-0799"), "Ulysses", "-0749"), ("epic",))}),
    ]
    for text, relation, expected in cases:
        scans.clear()
        assert rows(q(library, text), library.published) == expected
        read = [(lead, n) for rel, lead, n in scans if rel == relation]
        assert all(lead is not None for lead, _n in read) and sum(n for _l, n in read) <= len(expected)


def test_a_text_key_range_is_checked_again():
    db = build_db("relation (t (name text) (n int))")
    for n, name in enumerate(["", "a", "a\x00b", "ab"]):
        db.published.insert("t", (TextVal(name), IntVal(n)))
    db.refresh()
    assert rows(q(db, '(t "a" .)'), db.published) == {("a", 1)}
    assert rows(q(db, '(t "" .)'), db.published) == {("", 0)}
    assert rows(q(db, '(t "ab" .)'), db.published) == {("ab", 3)}


def _call_chain(length):
    """Functions f0 … f<length - 1>, each but the first calling the one
    before it, so f<k> nests k + 1 brackets deep through its callees and
    f<k>(x) = x + k + 1. A call is the costliest bracket to evaluate."""
    lines = ["function (f0 (x int)) (+ x 1)"]
    lines += [f"function (f{i} (x int)) (f{i - 1} (+ x 1))" for i in range(1, length)]
    return build_db("\n".join(lines))


def test_a_call_chain_at_the_limit_evaluates():
    db = _call_chain(MAX_CALL_DEPTH)
    result = q(db, f"(f{MAX_CALL_DEPTH - 1} 1)")
    assert rows(result, db.published) == {(MAX_CALL_DEPTH + 1,)}


@pytest.mark.parametrize("length", [MAX_CALL_DEPTH + 1, 400])
def test_a_call_chain_past_the_limit_is_an_error(length):
    # the first definition past the bound fails; nothing is evaluated
    with pytest.raises(CallTooDeep, match=f"'f{MAX_CALL_DEPTH}'"):
        _call_chain(length)


# Expressions that nest a call to the chain's last function, ``call``, as
# deep as the parser allows, and the value they give when ``call`` gives v.
CALL_SITES = {
    "operators": (lambda d, call: "(+ " * d + call + " 1)" * d, lambda d, v: v + d),
    "unions": (lambda d, call: "(" * d + call + ")" * d, lambda d, v: v),
    "function_arguments": (lambda d, call: "(f0 " * d + call + ")" * d, lambda d, v: v + d),
    "selection_arguments": (lambda d, call: "(num " * d + call + ")" * d, lambda d, v: v),
}


@pytest.mark.parametrize("form", sorted(CALL_SITES))
def test_the_deepest_function_evaluates_at_the_nesting_limit(form):
    from relang.syntax import MAX_NESTING

    db = _call_chain(MAX_CALL_DEPTH)
    run(db, f"relation (num int)\nadd num {{{MAX_CALL_DEPTH + 1}}}\ncommit")
    build, expected = CALL_SITES[form]
    text = build(MAX_NESTING - 1, f"(f{MAX_CALL_DEPTH - 1} 1)")
    assert _bracket_depth(text) == MAX_NESTING
    result = q(db, text)
    got = {(result.value,)} if isinstance(result, IntVal) else rows(result, db.published)
    assert got == {(expected(MAX_NESTING - 1, MAX_CALL_DEPTH + 1),)}


def test_every_result_is_duplicate_free(library):
    for text in [
        "(author)",
        "{(author) (genre)}",
        "((genre) (genre))",
        "[(book) author]",
        "{genre (author)}",
    ]:
        result = q(library, text)
        keys = [encode_tuple(t) for t in result.tuples()]
        assert len(keys) == len(set(keys))


def test_evaluation_never_mutates_the_store(library):
    import relang

    before = relang.save_snapshot(library)
    for text in [
        "(author :(name ~ \"A.*\"))",
        "{genre (author 'Dawkins' ?)}",
        "[(book) author title]",
        "{(author) \"x\"}",
    ]:
        q(library, text)
    assert relang.save_snapshot(library) == before


def _connections(depth):
    """Connections nested through projected selection arguments, three
    brackets a level, padded with one-member unions to the exact depth."""
    levels, pad = divmod(depth - 2, 3)
    core = '{book (genre "epic")}'
    text = "{book (genre [" * levels + core + " text])}" * levels
    return "(" * pad + text + ")" * pad


NESTING_FORMS = {
    "operators": (lambda d: "(+ " * d + "1" + " 1)" * d, lambda d: {(d + 1,)}),
    "unions": (lambda d: "(" * d + "1" + ")" * d, lambda d: {(1,)}),
    "selection_arguments": (
        lambda d: "(genre " * d + '"epic"' + ")" * d,
        lambda d: {("epic",)},
    ),
    "projections": (
        lambda d: "[" * (d - 1) + "(author)" + " name]" * (d - 1),
        lambda d: {("Dawkins",), ("Homer",), ("Austen",)},
    ),
    "connections": (
        _connections,
        lambda d: {(("Homer", "-0799"), "Ulysses", "-0749", "epic")},
    ),
}


def _bracket_depth(text):
    depth = deepest = 0
    for ch in text:  # the forms quote no brackets
        if ch in "([{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in ")]}":
            depth -= 1
    return deepest


@pytest.mark.parametrize("form", sorted(NESTING_FORMS))
def test_each_nesting_form_evaluates_at_the_limit(library, form):
    from relang.syntax import MAX_NESTING

    build, expected = NESTING_FORMS[form]
    text = build(MAX_NESTING)
    assert _bracket_depth(text) == MAX_NESTING
    result = q(library, text)
    if isinstance(result, IntVal):
        assert {(result.value,)} == expected(MAX_NESTING)
    else:
        assert rows(result, library.txn.shadow) == expected(MAX_NESTING)
    with pytest.raises(ParseError, match="brackets nest deeper than"):
        q(library, "(" + text + ")")
