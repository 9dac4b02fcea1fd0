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
from relang.evaluator import Env, TupleSet, eval_expr, relation_schema
from relang.values import (
    IntVal,
    RealVal,
    TextVal,
    TimestampVal,
    encode_tuple,
    render_timestamp,
)

from conftest import build_db, q, rows, run
from oracles import random_tree_db


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
        assert a.same_tuples(b)

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
        assert positional.same_tuples(filtered)

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
                pieces |= q(library, f"(avg2 {va} {vb})").keys()
            assert whole.keys() == pieces


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
        assert projected.same_tuples(whole)

    def test_duplicates_collapse(self, library):
        run(library, 'add author {"Another" "1941-03-26"} commit')
        result = q(library, "[(author) birthdate]")
        assert len(result) == 3  # two authors share 1941-03-26

    def test_unknown_attr(self, library):
        with pytest.raises(UnknownAttr):
            q(library, "[(book) missing]")

    def test_nested_path_on_scalar_is_rejected(self, library):
        with pytest.raises(NotARelation):
            q(library, "[(book) [title text]]")


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
    assert ab.same_tuples(ba)
    twice = q(db, f"({body_a} {body_a})")
    assert twice.same_tuples(q(db, f"({body_a})"))


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
        assert positional.same_tuples(filtered)


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_reference_selection_equals_a_dereferencing_filter(rng):
    # the slow path: dereference each reference and compare encoded keys
    db, names = random_tree_db(rng)
    state = db.txn.shadow
    for child in names[1:]:
        parent = db.catalog.lookup(child).domains[0].type_name
        chosen = [t for t in state.scan(parent).values() if rng.random() < 0.5]
        allowed = TupleSet.from_tuples(
            relation_schema(db.catalog.lookup(parent)), chosen, relation=parent
        )
        env = Env(db.catalog, state, {"allowed": allowed})
        result = eval_expr(parse_expression(f"({child} allowed)"), env)
        allowed_keys = allowed.keys()
        expected = {
            encode_tuple(t)
            for t in state.scan(child).values()
            if encode_tuple(state.get_row(parent, t[0].row)) in allowed_keys
        }
        assert result.keys() == expected


# The key of "a" is a byte prefix of the keys of "a\0" and "a\0b", so a key
# range over-approximates equality on these texts.
PREFIX_TEXTS = ["", "a", "a\x00", "a\x00b", "ab", "b"]


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


def _leading_cases(rng, state, rel, everything):
    """(first argument, bindings, predicate on a stored leading value) for a
    relation: stored and unstored scalars, or sets of 0, 1 and several
    referenced rows."""
    lead = rel.domains[0]
    if lead.is_scalar:
        values = [t[0] for t in rng.sample(everything, min(3, len(everything)))]
        values.append(_random_scalar(rng, lead.type_name))
        cases = [(_literal(v), {}, lambda x, v=v: x == v) for v in values]
        if lead.type_name == "real":  # an int argument reads as a real
            n = rng.randint(-5, 5)
            cases.append((syntax.Const(n, "int"), {}, lambda x: x == RealVal(float(n))))
        return cases
    parent = lead.type_name
    parent_rows = list(state.scan(parent).values())
    cases = [(syntax.Union_(()), {}, lambda x: False)]
    for size in (0, 1, rng.randint(2, max(2, len(parent_rows)))):
        chosen = rng.sample(parent_rows, min(size, len(parent_rows)))
        allowed = TupleSet.from_tuples(
            relation_schema(state.catalog.lookup(parent)), chosen, relation=parent
        )
        keys = allowed.keys()
        cases.append(
            (
                syntax.Name("allowed"),
                {"allowed": allowed},
                lambda x, keys=keys: encode_tuple(state.get_row(parent, x.row)) in keys,
            )
        )
    return cases


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_every_selection_equals_a_full_scan_filter(rng):
    db, names = random_tree_db(rng, texts=PREFIX_TEXTS)
    state = db.txn.shadow
    for name in names:
        rel = db.catalog.lookup(name)
        everything = list(state.scan(name).values())
        for first, bindings, leading_matches in _leading_cases(rng, state, rel, everything):
            args = [first]
            checks = [(0, leading_matches)]
            if rel.arity > 1 and everything and rng.random() < 0.5:
                v = rng.choice(everything)[1]
                args.append(_literal(v))
                checks.append((1, lambda x, v=v: x == v))
            last = rel.domains[-1]
            condition = None
            if everything and rng.random() < 0.5:
                v = rng.choice(everything)[-1]
                condition = syntax.OpApply("!=", (syntax.Name(last.attr), _literal(v)))
                checks.append((rel.arity - 1, lambda x, v=v: x != v))
            selection = syntax.Selection(name, tuple(args), condition)
            result = eval_expr(selection, Env(db.catalog, state, bindings))
            expected = {
                encode_tuple(t)
                for t in everything
                if all(check(t[pos]) for pos, check in checks)
            }
            assert result.keys() == expected


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
