import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relang.catalog import Catalog
from relang.errors import (
    ArityMismatch,
    DomainTypeMismatch,
    NotEnumerable,
    ReferencedRow,
    RowNotFound,
)
from relang.store import DbState
from relang.syntax import parse_statement
from relang.values import (
    INT64_MAX,
    IntVal,
    RefVal,
    TextVal,
    TimestampVal,
    encode_int,
    encode_text,
    encode_tuple,
    parse_timestamp,
)

from oracles import dangling_refs, index_faults


def make_state(*definitions):
    catalog = Catalog()
    for text in definitions:
        catalog = catalog.define(parse_statement(text))
    state = DbState(catalog)
    for name in catalog.names():
        state.add_relation(catalog.lookup(name))
    return state


def library_state():
    state = make_state(
        "relation (author (name text) (birthdate timestamp))",
        "relation (book author (title text) timestamp)",
        "relation (genre text)",
        "relation (book_genre book genre)",
        "relation (department text)",
        "relation (available book department)",
    )
    return state


def author(name, date):
    return (TextVal(name), parse_timestamp(date))


class TestInsert:
    def test_fresh_insert_into_empty_genre(self):
        state = library_state()
        rowid, fresh = state.insert("genre", (TextVal("bore"),))
        assert rowid == 1 and fresh is True

    def test_duplicate_insert_is_an_idempotent_noop(self):
        state = library_state()
        first = state.insert("genre", (TextVal("bore"),))
        again = state.insert("genre", (TextVal("bore"),))
        assert again == (first[0], False)
        assert len(state.indexes["genre"].rows) == 1

    def test_insert_with_ref_updates_the_reverse_index(self):
        state = library_state()
        homer, _ = state.insert("author", author("Homer", "800 BC"))
        book, _ = state.insert(
            "book", (RefVal("author", homer), TextVal("Ulysses"), parse_timestamp("750 BC"))
        )
        reverse = state.indexes["book"].reverse
        assert reverse[0][("author", homer)] == {book}

    def test_arity_mismatch(self):
        state = library_state()
        with pytest.raises(ArityMismatch):
            state.insert("genre", (TextVal("a"), TextVal("b")))

    def test_domain_type_mismatch(self):
        state = library_state()
        with pytest.raises(DomainTypeMismatch):
            state.insert("genre", (IntVal(1),))

    def test_rowids_never_reused(self):
        state = library_state()
        rid, _ = state.insert("genre", (TextVal("a"),))
        state.erase("genre", rid)
        rid2, _ = state.insert("genre", (TextVal("a"),))
        assert rid2 > rid


class TestContains:
    def test_present_key(self):
        state = library_state()
        rid, _ = state.insert("author", author("Dawkins", "1941-03-26"))
        assert state.contains_tuple("author", author("Dawkins", "1941-03-26")) == rid

    def test_absent_in_empty_relation(self):
        state = library_state()
        assert state.contains_tuple("genre", (TextVal("x"),)) is None

    def test_inserted_then_erased_key_is_absent(self):
        state = library_state()
        rid, _ = state.insert("genre", (TextVal("x"),))
        state.erase("genre", rid)
        assert state.contains_tuple("genre", (TextVal("x"),)) is None


def small_library():
    """Homer with one book, one book_genre row, one available row, plus an
    unreferenced department."""
    state = library_state()
    homer, _ = state.insert("author", author("Homer", "800 BC"))
    genre, _ = state.insert("genre", (TextVal("epic"),))
    dept, _ = state.insert("department", (TextVal("main"),))
    spare, _ = state.insert("department", (TextVal("annex"),))
    book, _ = state.insert(
        "book", (RefVal("author", homer), TextVal("Ulysses"), parse_timestamp("750 BC"))
    )
    bg, _ = state.insert("book_genre", (RefVal("book", book), RefVal("genre", genre)))
    av, _ = state.insert("available", (RefVal("book", book), RefVal("department", dept)))
    return state, dict(
        homer=homer, genre=genre, dept=dept, spare=spare, book=book, bg=bg, av=av
    )


class TestErase:
    def test_referenced_row_is_protected(self):
        state, ids = small_library()
        with pytest.raises(ReferencedRow):
            state.erase("genre", ids["genre"])

    def test_unreferenced_leaf_row(self):
        state, ids = small_library()
        removed = state.erase("department", ids["spare"])
        assert removed == {("department", ids["spare"])}

    def test_cascade_removes_the_transitive_closure(self):
        state, ids = small_library()
        removed = state.erase("author", ids["homer"], cascade=True)
        assert removed == {
            ("author", ids["homer"]),
            ("book", ids["book"]),
            ("book_genre", ids["bg"]),
            ("available", ids["av"]),
        }
        assert dangling_refs(state) == []

    def test_row_not_found(self):
        state = library_state()
        with pytest.raises(RowNotFound):
            state.erase("genre", 41)


class TestRekey:
    def test_referencing_rows_survive_a_rekey(self):
        state, ids = small_library()
        assert state.rekey("author", ids["homer"], author("HOMER", "800 BC")) is False
        book_row = state.get_row("book", ids["book"])
        assert book_row[0] == RefVal("author", ids["homer"])
        assert state.get_row("author", ids["homer"])[0] == TextVal("HOMER")

    def test_rekey_to_identical_tuple_is_a_noop(self):
        state, ids = small_library()
        before = state.scan("author")
        state.rekey("author", ids["homer"], author("Homer", "800 BC"))
        assert state.scan("author") == before

    def test_rekey_onto_another_rows_tuple_collides(self):
        state = library_state()
        first, _ = state.insert("author", author("Dawkins", "1941-03-26"))
        rid, _ = state.insert("author", author("Homer", "800 BC"))
        assert state.rekey("author", rid, author("Dawkins", "1941-03-26")) is True
        key = encode_tuple(author("Dawkins", "1941-03-26"))
        idx = state.indexes["author"]
        assert idx.keys == [key, key] and idx.ids == [first, rid]
        assert state.contains_tuple("author", author("Dawkins", "1941-03-26")) == first
        # the later holder leaves the run: the earlier one keeps the key
        assert state.rekey("author", rid, author("Homer", "800 BC")) is False
        assert idx.ids == [first, rid]
        # the earlier holder leaves: the later one takes its place
        state.rekey("author", rid, author("Dawkins", "1941-03-26"))
        state.erase("author", first)
        assert idx.keys == [key] and idx.ids == [rid]
        assert state.contains_tuple("author", author("Dawkins", "1941-03-26")) == rid


class TestScan:
    def test_scan_is_in_canonical_text_order(self):
        state = library_state()
        for g in ["sci-fi", "bore", "epic"]:
            state.insert("genre", (TextVal(g),))
        assert [t[0].value for t in state.scan("genre").values()] == ["bore", "epic", "sci-fi"]

    def test_prefix_scan_returns_the_keys_starting_with_the_prefix(self):
        state = make_state("relation (name text)")
        for name in ["ab", "a\x00b", "", "b", "a"]:
            state.insert("name", (TextVal(name),))
        names = lambda rows: [t[0].value for t in rows.values()]
        assert names(state.scan("name")) == ["", "a", "a\x00b", "ab", "b"]
        # the key of "a" is a byte prefix of the key of "a\0b"
        assert names(state.scan("name", encode_text("a"))) == ["a", "a\x00b"]
        assert names(state.scan("name", b"a")) == ["a", "a\x00b", "ab"]
        assert names(state.scan("name", encode_text("c"))) == []

    def test_prefix_scan_of_high_bytes_reaches_the_last_key(self):
        state = make_state("relation (n int)")
        for n in [INT64_MAX, 0, INT64_MAX - 1, -1]:
            state.insert("n", (IntVal(n),))
        values = lambda rows: [t[0].value for t in rows.values()]
        assert values(state.scan("n", encode_int(INT64_MAX))) == [INT64_MAX]
        assert values(state.scan("n", b"\xff")) == [INT64_MAX - 1, INT64_MAX]
        assert values(state.scan("n", b"\x7f")) == [-1]

    def test_sorted_keys_follow_inserts_rekeys_and_erasures(self):
        state = make_state("relation (name text)")
        rids = {n: state.insert("name", (TextVal(n),))[0] for n in ["m", "c", "x", "a"]}
        state.rekey("name", rids["x"], (TextVal("b"),))
        state.erase("name", rids["c"])
        idx = state.indexes["name"]
        assert idx.keys == [encode_text(n) for n in "abm"]
        assert idx.ids == [rids["a"], rids["x"], rids["m"]]
        # a fork's first write to the relation copies both arrays
        fork = state.fork()
        fork.reserve_rowid("name")
        copy = fork.indexes["name"]
        assert (copy.keys, copy.ids) == (idx.keys, idx.ids)
        assert copy.keys is not idx.keys and copy.ids is not idx.ids

    def test_scan_empty_relation(self):
        state = library_state()
        assert state.scan("genre") == {}

    def test_domain_class_is_not_enumerable(self):
        state = make_state("domain (point2d real real)", "relation (spot point2d)")
        with pytest.raises(NotEnumerable):
            state.scan("point2d")

    def test_function_class_is_not_enumerable(self):
        state = make_state("function (inc (a int)) (+ a 1)")
        with pytest.raises(NotEnumerable):
            state.scan("inc")


class TestReferrers:
    def test_single_referrer(self):
        state, ids = small_library()
        found = state.referrers("author", ids["homer"])
        assert found == {("book", "author", ids["book"])}

    def test_unadopted_relation_has_none(self):
        state, ids = small_library()
        assert state.referrers("department", ids["spare"]) == set()

    def test_book_is_referenced_twice(self):
        state, ids = small_library()
        found = state.referrers("book", ids["book"])
        assert found == {
            ("book_genre", "book", ids["bg"]),
            ("available", "book", ids["av"]),
        }


class TestFork:
    def test_a_fork_shares_every_index_until_it_writes_one(self):
        state, ids = small_library()
        fork = state.fork()
        assert all(fork.indexes[n] is idx for n, idx in state.indexes.items())
        # a stored tuple is no write
        assert fork.insert("genre", (TextVal("epic"),)) == (ids["genre"], False)
        assert fork.indexes["genre"] is state.indexes["genre"]
        fork.insert("genre", (TextVal("noir"),))
        copied = [n for n, idx in state.indexes.items() if fork.indexes[n] is not idx]
        assert copied == ["genre"]
        assert fork.contains_tuple("genre", (TextVal("noir"),)) is not None
        assert state.contains_tuple("genre", (TextVal("noir"),)) is None

    def test_a_forked_parent_copies_before_it_writes(self):
        state, ids = small_library()
        fork = state.fork()
        shared = state.indexes["department"]
        state.erase("department", ids["spare"])
        assert state.indexes["department"] is not shared
        assert fork.indexes["department"] is shared
        assert len(fork.scan("department")) == 2
        assert len(state.scan("department")) == 1
        assert index_faults(state) == index_faults(fork) == []

    def test_a_written_bucket_is_copied_and_the_base_bucket_kept(self):
        state, ids = small_library()
        dawkins, _ = state.insert("author", author("Dawkins", "1941-03-26"))
        gene, _ = state.insert(
            "book", (RefVal("author", dawkins), TextVal("Gene"), TimestampVal(1976))
        )
        base = state.indexes["book"].reverse[0]
        homer_bucket, dawkins_bucket = base[("author", ids["homer"])], base[("author", dawkins)]
        fork = state.fork()
        iliad, _ = fork.insert(
            "book", (RefVal("author", ids["homer"]), TextVal("Iliad"), TimestampVal(-760))
        )
        reverse = fork.indexes["book"].reverse[0]
        written = reverse[("author", ids["homer"])]
        assert written is not homer_bucket
        assert written == {ids["book"], iliad}
        assert homer_bucket == {ids["book"]}
        assert reverse[("author", dawkins)] is dawkins_bucket  # not written, still shared
        # the copy is the fork's own: later writes to it copy nothing more
        fork.erase("book", iliad)
        assert reverse[("author", ids["homer"])] is written and written == {ids["book"]}
        # dropping a shared bucket's last row leaves the base's bucket whole
        fork.erase("book", gene, cascade=True)
        assert ("author", dawkins) not in reverse
        assert dawkins_bucket == {gene}
        assert index_faults(state) == index_faults(fork) == []


# --- properties -----------------------------------------------------------------


ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert_author", "insert_book", "erase_any", "rekey_author", "rekey_onto",
             "erase_author"]
        ),
        st.integers(0, 5),
        st.integers(0, 5),
    ),
    max_size=40,
)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_reverse_index_matches_a_full_rebuild(sequence):
    state = make_state(
        "relation (author (name text) (birthdate timestamp))",
        "relation (book author (title text) timestamp)",
    )
    for op, a, b in sequence:
        if op == "insert_author":
            state.insert("author", author(f"a{a}", str(1900 + b)))
        elif op == "insert_book":
            authors = sorted(state.indexes["author"].rows)
            if authors:
                state.insert(
                    "book",
                    (
                        RefVal("author", authors[a % len(authors)]),
                        TextVal(f"t{b}"),
                        TimestampVal(1900 + b),
                    ),
                )
        elif op == "erase_any":
            books = sorted(state.indexes["book"].rows)
            if books:
                state.erase("book", books[a % len(books)])
        elif op == "rekey_author":
            authors = sorted(state.indexes["author"].rows)
            if authors:
                rid = authors[a % len(authors)]
                # the tuples insert_author draws from, so some rekeys collide
                state.rekey("author", rid, author(f"a{b}", str(1900 + a)))
        elif op == "rekey_onto":
            # onto another row's tuple: a deferred collision
            authors = sorted(state.indexes["author"].rows)
            if authors:
                other = state.get_row("author", authors[b % len(authors)])
                state.rekey("author", authors[a % len(authors)], other)
        elif op == "erase_author":
            authors = sorted(state.indexes["author"].rows)
            if authors:
                state.erase("author", authors[a % len(authors)], cascade=True)
    assert index_faults(state) == []


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=50))
@settings(max_examples=60, deadline=None)
def test_set_semantics_under_random_insert_erase(sequence):
    state = make_state("relation (genre text)")
    shadow = set()
    for is_insert, n in sequence:
        value = f"g{n}"
        if is_insert:
            state.insert("genre", (TextVal(value),))
            shadow.add(value)
        else:
            rid = state.contains_tuple("genre", (TextVal(value),))
            if rid is not None:
                state.erase("genre", rid)
            shadow.discard(value)
    assert {t[0].value for t in state.scan("genre").values()} == shadow
    keys = [encode_tuple(t) for t in state.scan("genre").values()]
    assert len(keys) == len(set(keys))


def test_insert_then_erase_restores_the_prior_store():
    state, _ids = small_library()
    before_rows = {name: dict(idx.rows) for name, idx in state.indexes.items()}
    rid, fresh = state.insert("genre", (TextVal("noir"),))
    assert fresh
    state.erase("genre", rid)
    after_rows = {name: dict(idx.rows) for name, idx in state.indexes.items()}
    assert after_rows == before_rows


def test_cascade_never_leaves_dangling_refs():
    state, ids = small_library()
    state.erase("book", ids["book"], cascade=True)
    assert dangling_refs(state) == []
