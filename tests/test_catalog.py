import pytest

from relang.catalog import MAX_CALL_DEPTH, Catalog, Domain, RelationDef, call_depth
from relang.errors import (
    CallTooDeep,
    DuplicateName,
    SelfReference,
    TypeMismatch,
    UnknownName,
    UnknownRelation,
    UnknownType,
)
from relang.syntax import parse_statement


def define(catalog, text):
    return catalog.define(parse_statement(text))


def library_catalog():
    c = Catalog()
    for text in [
        "relation (author (name text) (birthdate timestamp))",
        "relation (book author (title text) timestamp)",
        "relation (genre text)",
        "relation (book_genre book genre)",
        "relation (department text)",
        "relation (available book department)",
    ]:
        c = define(c, text)
    return c


def test_define_and_lookup_book_genre():
    c = library_catalog()
    rel = c.lookup("book_genre")
    assert rel.klass == "simple"
    assert rel.domains == (Domain("book", "book"), Domain("genre", "genre"))


def test_direct_self_reference_is_rejected():
    with pytest.raises(SelfReference):
        define(Catalog(), "relation (loop loop)")


def test_function_definition_infers_result_type():
    c = define(Catalog(), "function (avg2 (a real) (b real)) (/ (+ a b) 2)")
    fn = c.lookup("avg2")
    assert fn.klass == "function"
    assert [d.type_name for d in fn.domains] == ["real", "real"]
    assert fn.result_type == "real"


def test_lookup_returns_exactly_what_was_defined():
    rel = library_catalog().lookup("author")
    assert rel == RelationDef(
        "author", "simple", (Domain("name", "text"), Domain("birthdate", "timestamp"))
    )


def test_lookup_unknown_relation():
    with pytest.raises(UnknownRelation):
        Catalog().lookup("missing")


def test_domain_class_definitions():
    c = Catalog()
    c = define(c, "domain (point2d real real)")
    c = define(c, "domain (circle (radius real) (center point2d))")
    c = define(c, "relation (my_circle circle)")
    circle = c.lookup("circle")
    assert circle.klass == "domain"
    assert circle.domains == (Domain("radius", "real"), Domain("center", "point2d"))
    # repeated unnamed domains of one type get deterministic suffixed names
    assert c.lookup("point2d").domains == (Domain("real", "real"), Domain("real_2", "real"))


def test_defaulted_attr_names_are_deterministic():
    c = define(library_catalog(), "relation (shelf book (label text) timestamp)")
    assert [d.attr for d in c.lookup("shelf").domains] == ["book", "label", "timestamp"]


def test_explicit_duplicate_attrs_rejected():
    with pytest.raises(DuplicateName):
        define(Catalog(), "relation (bad (x int) (x int))")


def test_redefinition_is_forbidden():
    c = define(Catalog(), "relation (genre text)")
    with pytest.raises(DuplicateName):
        define(c, "relation (genre text)")


def test_reserved_names_rejected():
    with pytest.raises(DuplicateName):
        define(Catalog(), "relation (int text)")
    with pytest.raises(DuplicateName):
        define(Catalog(), "relation (capitalize text)")


def test_unknown_domain_type():
    with pytest.raises(UnknownType):
        define(Catalog(), "relation (book ghost text)")


def test_forward_references_are_impossible():
    # a relation must exist before it can be adopted, so the reference DAG
    # can never contain a cycle
    c = define(Catalog(), "relation (a text)")
    c = define(c, "relation (b a)")
    with pytest.raises(UnknownType):
        define(c, "relation (c d)")


def test_functions_cannot_serve_as_domains():
    c = define(Catalog(), "function (f (a int)) (+ a 1)")
    with pytest.raises(UnknownType):
        define(c, "relation (uses_f f)")


class TestSchemaGraph:
    def test_library_edges(self):
        g = library_catalog().schema_graph()
        labeled = {(e.adopter, e.attr, e.target) for e in g.edges}
        assert labeled == {
            ("book", "author", "author"),
            ("book_genre", "book", "book"),
            ("book_genre", "genre", "genre"),
            ("available", "book", "book"),
            ("available", "department", "department"),
        }

    def test_empty_catalog(self):
        g = Catalog().schema_graph()
        assert g.nodes == () and g.edges == ()

    def test_scalar_only_catalog_has_no_edges(self):
        c = define(Catalog(), "relation (genre text)")
        c = define(c, "relation (department text)")
        g = c.schema_graph()
        assert set(g.nodes) == {"genre", "department"}
        assert g.edges == ()

    def test_parallel_adoptions_stay_distinct(self):
        c = define(Catalog(), "relation (city text)")
        c = define(c, "relation (flight (frm city) (to city))")
        edges = [e for e in c.schema_graph().edges if e.adopter == "flight"]
        assert len(edges) == 2
        assert {e.attr for e in edges} == {"frm", "to"}


class TestFunctionTypechecking:
    def test_unknown_name_in_body(self):
        with pytest.raises(UnknownName):
            define(Catalog(), "function (f (a int)) (+ a b)")

    def test_condition_valued_body_rejected(self):
        with pytest.raises(TypeMismatch):
            define(Catalog(), "function (f (a int)) (> a 1)")

    def test_body_may_call_earlier_functions(self):
        c = define(Catalog(), "function (avg2 (a real) (b real)) (/ (+ a b) 2)")
        c = define(c, "function (avg3 (a real) (b real) (c real)) (avg2 (avg2 a b) c)")
        assert c.lookup("avg3").result_type == "real"

    def test_self_recursion_is_impossible(self):
        with pytest.raises(TypeMismatch):
            define(Catalog(), "function (f (a int)) (f a)")

    def test_selection_from_relation_in_body_rejected(self):
        c = define(Catalog(), "relation (genre text)")
        with pytest.raises(TypeMismatch):
            define(c, "function (f (a text)) (genre a)")

    def test_mixed_int_under_real_first_operand(self):
        c = define(Catalog(), "function (f (a real)) (+ a 1)")
        assert c.lookup("f").result_type == "real"

    def test_real_under_int_first_operand_rejected(self):
        with pytest.raises(TypeMismatch):
            define(Catalog(), "function (f (a int)) (+ a 1.5)")

    def test_builtin_signatures(self):
        c = define(Catalog(), "function (shout (s text)) (capitalize s)")
        assert c.lookup("shout").result_type == "text"
        c = define(c, "function (len2 (s text)) (* (length s) 2)")
        assert c.lookup("len2").result_type == "int"


class TestCallDepth:
    def test_a_call_counts_its_callee_below_the_call_site(self):
        c = define(Catalog(), "function (f (a int)) (+ (+ a 1) 1)")
        assert call_depth(c.lookup("f").body, c, {}) == 2
        # the call sits one bracket down in g's body: 1 + (1 + 2) = 4, and
        # the callee's depth does not add to g's deeper branch (depth 3)
        c = define(c, "function (g (a int)) (+ (f a) (+ (+ a 1) 1))")
        assert call_depth(c.lookup("g").body, c, {}) == 4
        c = define(c, "function (h (a int)) (int (g (* a 2)))")
        assert call_depth(c.lookup("h").body, c, {}) == 6
        c = define(c, "function (k (a text)) (length (capitalize a))")
        assert call_depth(c.lookup("k").body, c, {}) == 2

    def test_body_nesting_counts_toward_the_bound(self):
        # 30 functions, each wrapping its call in ten nested (+ … 1): f<i>
        # nests 10 + 11 * i deep, so f5 (65) is the first past the bound
        def wrapped(inner):
            return "(+ " * 10 + inner + " 1)" * 10

        c = define(Catalog(), "function (f0 (x int)) " + wrapped("x"))
        for i in range(1, 30):
            text = f"function (f{i} (x int)) " + wrapped(f"(f{i - 1} x)")
            if 10 + 11 * i > MAX_CALL_DEPTH:
                with pytest.raises(CallTooDeep, match=f"'f{i}'"):
                    define(c, text)
                assert i == 5 and f"f{i}" not in c
                break
            c = define(c, text)
        else:
            pytest.fail("no definition passed the bound")

    def test_a_body_calling_one_function_often_is_measured_once(self):
        c = define(Catalog(), "function (f0 (x int)) (+ x 1)")
        for i in range(1, 32):  # unmemoised, f31 would take 8 ** 31 steps
            calls = " ".join([f"(f{i - 1} x)"] * 8)
            c = define(c, f"function (f{i} (x int)) (+ {calls})")
        assert call_depth(c.lookup("f31").body, c, {}) == 1 + 2 * 31


def test_define_returns_a_new_catalog_version():
    c1 = Catalog()
    c2 = define(c1, "relation (genre text)")
    assert "genre" in c2 and "genre" not in c1
