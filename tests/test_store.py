from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from relang import store
from relang.catalog import Catalog
from relang.errors import NotEnumerable, RowNotFound
from relang.store import DbState
from relang.syntax import parse_statement
from relang.values import (
    INT64_MAX,
    IntVal,
    RefVal,
    TextVal,
    TimestampVal,
    TupleVal,
    encode_tuple,
    encode_value,
    parse_timestamp,
)

from oracles import contains_tuple, dangling_refs, flat_ids, flat_keys, index_faults


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


def reverse_page(idx, pos, target):
    """The reverse page of ``idx`` that holds ``target``'s bucket at ``pos``."""
    return idx.maps[pos][target[1] >> store.ROW_BITS]


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
        page = reverse_page(state.indexes["book"], 0, ("author", homer))
        assert page[("author", homer)] == {book}

    def test_rowids_never_reused(self):
        state = library_state()
        rid, _ = state.insert("genre", (TextVal("a"),))
        state.erase("genre", rid)
        rid2, _ = state.insert("genre", (TextVal("a"),))
        assert rid2 > rid


class TestExtend:
    """``extend`` stores tuples as a snapshot load reads them: tuples that
    rise above the relation's last go last, and any others are refused."""

    def extended(self, state, relation, values, linked=()):
        return state.extend(relation, [values], linked)

    def test_a_key_after_the_last_goes_last(self):
        state = library_state()
        assert self.extended(state, "genre", (TextVal("a"),)) == [1]
        assert self.extended(state, "genre", (TextVal("b"),)) == [2]
        assert flat_ids(state.indexes["genre"]) == [1, 2] and index_faults(state) == []

    def test_a_duplicate_is_refused(self):
        state = library_state()
        self.extended(state, "genre", (TextVal("a"),))
        assert self.extended(state, "genre", (TextVal("a"),)) is None
        assert state.extend("genre", [(TextVal("b"),), (TextVal("b"),)], ()) is None
        assert len(state.indexes["genre"].rows) == 1 and index_faults(state) == []

    def test_a_key_before_the_last_is_refused(self):
        state = library_state()
        self.extended(state, "genre", (TextVal("b"),))
        assert self.extended(state, "genre", (TextVal("a"),)) is None
        assert state.extend("genre", [(TextVal("d"),), (TextVal("c"),)], ()) is None
        assert flat_ids(state.indexes["genre"]) == [1] and index_faults(state) == []

    def test_only_the_named_positions_are_linked(self):
        state = library_state()
        homer, _ = state.insert("author", author("Homer", "800 BC"))
        ulysses = (RefVal("author", homer), TextVal("Ulysses"), parse_timestamp("750 BC"))
        assert self.extended(state, "book", ulysses, (0,)) == [1]
        assert index_faults(state) == []
        state.indexes["book"].maps.clear()
        self.extended(state, "book", (RefVal("author", homer), TextVal("Z"), parse_timestamp("1")))
        assert state.indexes["book"].maps == {}

    def test_a_relation_with_a_value_map_keeps_it(self):
        state = library_state()
        self.extended(state, "genre", (TextVal("a"),))
        state.index_values("genre", 0)
        self.extended(state, "genre", (TextVal("b"),))
        assert index_faults(state) == []


class TestContains:
    def test_present_key(self):
        state = library_state()
        rid, _ = state.insert("author", author("Dawkins", "1941-03-26"))
        assert contains_tuple(state, "author", author("Dawkins", "1941-03-26")) == rid

    def test_absent_in_empty_relation(self):
        state = library_state()
        assert contains_tuple(state, "genre", (TextVal("x"),)) is None

    def test_inserted_then_erased_key_is_absent(self):
        state = library_state()
        rid, _ = state.insert("genre", (TextVal("x"),))
        state.erase("genre", rid)
        assert contains_tuple(state, "genre", (TextVal("x"),)) is None


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
    def test_a_referenced_row_goes_alone_and_its_referrer_stays(self):
        state, ids = small_library()
        assert state.erase("genre", ids["genre"]) == {("genre", ids["genre"])}
        assert state.referrers("genre", ids["genre"]) == {("book_genre", ids["bg"])}
        assert dangling_refs(state) == [("book_genre", ids["bg"], "genre", ids["genre"])]

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
        with pytest.raises(RowNotFound) as exc:
            state.erase("genre", 41)
        # row ids are internal: the message names the relation only
        assert str(exc.value) == "no such tuple in relation 'genre'"


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
        key = author("Dawkins", "1941-03-26")
        idx = state.indexes["author"]
        assert flat_keys(idx) == [key, key] and flat_ids(idx) == [first, rid]
        assert contains_tuple(state, "author", author("Dawkins", "1941-03-26")) == first
        # the later holder leaves the run: the earlier one keeps the key
        assert state.rekey("author", rid, author("Homer", "800 BC")) is False
        assert flat_ids(idx) == [first, rid]
        # the earlier holder leaves: the later one takes its place
        state.rekey("author", rid, author("Dawkins", "1941-03-26"))
        state.erase("author", first)
        assert flat_keys(idx) == [key] and flat_ids(idx) == [rid]
        assert contains_tuple(state, "author", author("Dawkins", "1941-03-26")) == rid


class TestScan:
    def test_scan_is_in_canonical_text_order(self):
        state = library_state()
        for g in ["sci-fi", "bore", "epic"]:
            state.insert("genre", (TextVal(g),))
        assert [t[0].value for t in state.scan("genre").values()] == ["bore", "epic", "sci-fi"]

    def test_prefix_scan_returns_the_keys_starting_with_the_prefix(self):
        # the prefix is a leading value: a key range holds the tuples that
        # start with it, and no other text, however many bytes it shares
        state = make_state("relation (name (s text) (n int))")
        for n, name in enumerate(["ab", "a\x00b", "", "b", "a"]):
            state.insert("name", (TextVal(name), IntVal(n)))
        names = lambda rows: [t[0].value for t in rows.values()]
        assert names(state.scan("name")) == ["", "a", "a\x00b", "ab", "b"]
        assert names(state.scan("name", TextVal("a"))) == ["a"]
        assert names(state.scan("name", TextVal("a\x00"))) == []
        assert names(state.scan("name", TextVal("c"))) == []
        assert list(state.scan("name", TextVal("b"))) == [4]

    def test_a_scan_of_the_largest_lead_reaches_the_last_key(self):
        state = make_state("relation (n (v int) (m int))")
        for n in [INT64_MAX, 0, INT64_MAX - 1, -1]:
            state.insert("n", (IntVal(n), IntVal(1)))
            state.insert("n", (IntVal(n), IntVal(2)))
        values = lambda rows: [(t[0].value, t[1].value) for t in rows.values()]
        assert values(state.scan("n", IntVal(INT64_MAX))) == [(INT64_MAX, 1), (INT64_MAX, 2)]
        assert values(state.scan("n", IntVal(INT64_MAX - 1))) == [(INT64_MAX - 1, 1), (INT64_MAX - 1, 2)]
        assert values(state.scan("n", IntVal(-1))) == [(-1, 1), (-1, 2)]
        assert state.scan("n", IntVal(1)) == {} and state.indexes["n"].count(IntVal(INT64_MAX)) == 2

    def test_sorted_keys_follow_inserts_rekeys_and_erasures(self):
        state = make_state("relation (name text)")
        rids = {n: state.insert("name", (TextVal(n),))[0] for n in ["m", "c", "x", "a"]}
        state.rekey("name", rids["x"], (TextVal("b"),))
        state.erase("name", rids["c"])
        idx = state.indexes["name"]
        assert flat_keys(idx) == [(TextVal(n),) for n in "abm"]
        assert flat_ids(idx) == [rids["a"], rids["x"], rids["m"]]

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
        assert found == {("book", ids["book"])}

    def test_unadopted_relation_has_none(self):
        state, ids = small_library()
        assert state.referrers("department", ids["spare"]) == set()

    def test_book_is_referenced_twice(self):
        state, ids = small_library()
        found = state.referrers("book", ids["book"])
        assert found == {("book_genre", ids["bg"]), ("available", ids["av"])}

    def test_references_inside_inline_tuples_count(self):
        state = make_state(
            "relation (author (name text))",
            "domain (entry author (n int))",
            "domain (pair entry entry)",
            "relation (shelf pair (label text) author)",
        )
        a, _ = state.insert("author", (TextVal("a"),))
        b, _ = state.insert("author", (TextVal("b"),))
        entry = lambda rid: TupleVal("entry", (RefVal("author", rid), IntVal(1)))
        pair = TupleVal("pair", (entry(a), entry(b)))
        shelf, _ = state.insert("shelf", (pair, TextVal("s"), RefVal("author", b)))
        assert state.catalog.referencing("author") == (("shelf", 0), ("shelf", 2))
        assert state.referrers("author", a) == state.referrers("author", b) == {("shelf", shelf)}
        state.erase("author", a, cascade=True)
        assert len(state.scan("shelf")) == 0 and index_faults(state) == []

    def test_one_reference_held_twice_in_an_inline_tuple_leaves_once(self):
        state = make_state(
            "relation (author (name text))",
            "domain (duo author author)",
            "relation (shelf duo (label text))",
        )
        a, _ = state.insert("author", (TextVal("a"),))
        b, _ = state.insert("author", (TextVal("b"),))
        duo = TupleVal("duo", (RefVal("author", a), RefVal("author", a)))
        s1, _ = state.insert("shelf", (duo, TextVal("1")))
        s2, _ = state.insert("shelf", (duo, TextVal("2")))
        s3, _ = state.insert("shelf", (duo, TextVal("3")))
        state.erase("shelf", s1)
        assert state.referrers("author", a) == {("shelf", s2), ("shelf", s3)}
        assert index_faults(state) == []
        other = TupleVal("duo", (RefVal("author", b), RefVal("author", b)))
        state.rekey("shelf", s2, (other, TextVal("2")))
        assert state.referrers("author", a) == {("shelf", s3)}
        assert state.referrers("author", b) == {("shelf", s2)}
        assert index_faults(state) == []
        state.erase("shelf", s3)  # the last row referencing a
        assert state.referrers("author", a) == set() and index_faults(state) == []
        assert state.erase("author", b, cascade=True) == {("author", b), ("shelf", s2)}
        assert state.referrers("author", b) == set() and index_faults(state) == []


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
        assert contains_tuple(fork, "genre", (TextVal("noir"),)) is not None
        assert contains_tuple(state, "genre", (TextVal("noir"),)) is None

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
        homer, dawkins = ("author", ids["homer"]), ("author", dawkins)
        base = reverse_page(state.indexes["book"], 0, homer)
        assert reverse_page(state.indexes["book"], 0, dawkins) is base
        homer_bucket, dawkins_bucket = base[homer], base[dawkins]
        fork = state.fork()
        iliad, _ = fork.insert("book", (RefVal(*homer), TextVal("Iliad"), TimestampVal(-760)))
        page = reverse_page(fork.indexes["book"], 0, homer)
        written = page[homer]
        assert page is not base and written is not homer_bucket
        assert written == {ids["book"], iliad}
        assert homer_bucket == {ids["book"]}
        assert page[dawkins] is dawkins_bucket  # not written, still shared
        # the copies are the fork's own: later writes to them copy nothing more
        fork.erase("book", iliad)
        assert reverse_page(fork.indexes["book"], 0, homer) is page
        assert page[homer] is written and written == {ids["book"]}
        # dropping a shared bucket's last row leaves the base's bucket whole
        fork.erase("book", gene, cascade=True)
        assert dawkins not in page
        assert dawkins_bucket == {gene} and base[dawkins] is dawkins_bucket
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
            rid = contains_tuple(state, "genre", (TextVal(value),))
            if rid is not None:
                state.erase("genre", rid)
            shadow.discard(value)
    assert {t[0].value for t in state.scan("genre").values()} == shadow
    keys = [encode_tuple(t) for t in state.scan("genre").values()]
    assert len(keys) == len(set(keys))


def test_insert_then_erase_restores_the_prior_store():
    state, _ids = small_library()
    before_rows = {name: dict(idx.rows.items()) for name, idx in state.indexes.items()}
    rid, fresh = state.insert("genre", (TextVal("noir"),))
    assert fresh
    state.erase("genre", rid)
    after_rows = {name: dict(idx.rows.items()) for name, idx in state.indexes.items()}
    assert after_rows == before_rows


def test_cascade_never_leaves_dangling_refs():
    state, ids = small_library()
    state.erase("book", ids["book"], cascade=True)
    assert dangling_refs(state) == []


# --- the paged layout ---------------------------------------------------------------


@pytest.fixture
def small_pages(monkeypatch):
    """Chunks of at most 4 keys and pages of 4 row ids, so a few rows reach
    every case of the paged layout."""
    monkeypatch.setattr(store, "CHUNK_MAX", 4)
    monkeypatch.setattr(store, "ROW_BITS", 2)


def numbers(*ns):
    state = make_state("relation (item (n int))")
    rids = [state.insert("item", (IntVal(n),))[0] for n in ns]
    return state, state.indexes["item"], rids


class TestPages:
    def test_a_full_chunk_splits_in_half(self, small_pages):
        state, idx, _ = numbers(10, 20, 30, 40)
        assert len(idx.key_chunks) == 1
        state.insert("item", (IntVal(25),))
        assert [len(keys) for keys in idx.key_chunks] == [2, 3]
        assert flat_keys(idx) == [(IntVal(n),) for n in (10, 20, 25, 30, 40)]
        assert index_faults(state) == []

    def test_an_emptied_chunk_is_dropped(self, small_pages):
        state, idx, rids = numbers(*range(8))
        assert len(idx.key_chunks) == 2
        for rid in rids[:4]:
            state.erase("item", rid)
        assert len(idx.key_chunks) == 1 and flat_ids(idx) == rids[4:]
        assert index_faults(state) == []

    def test_a_collision_run_spans_chunks(self, small_pages):
        state, idx, rids = numbers(*range(7))
        for rid in rids[1:6]:
            assert state.rekey("item", rid, (IntVal(0),)) is True
        key = (IntVal(0),)
        assert len(idx.key_chunks) > 1 and idx.maxes[0] == key == idx.key_chunks[1][0]
        assert idx.run(key) == rids[:6] and idx.first(key) == rids[0]
        # the run's holders leave from inside it, across the chunk boundary
        state.erase("item", rids[4])
        state.rekey("item", rids[0], (IntVal(9),))
        assert idx.run(key) == [rids[1], rids[2], rids[3], rids[5]]
        assert contains_tuple(state, "item", (IntVal(0),)) == rids[1]
        assert index_faults(state) == []

    def test_a_rekey_onto_the_last_key_of_a_chunk_collides(self, small_pages):
        state, idx, rids = numbers(*range(6))
        boundary = idx.maxes[0]
        holder = flat_keys(idx).index(boundary)
        assert state.rekey("item", rids[-1], state.get_row("item", rids[holder])) is True
        assert idx.run(boundary) == [rids[holder], rids[-1]]

    def test_a_prefix_range_across_chunks_ends_inside_one(self, small_pages):
        state = make_state("relation (pair (a int) (b int))")
        for a in range(3):
            for b in range(5):
                state.insert("pair", (IntVal(a), IntVal(b)))
        idx = state.indexes["pair"]
        c, _lo, d, hi = idx.span(IntVal(1))
        assert c < d and hi > 0  # the range under test
        rows = dict(idx.rows.items())
        # the reference: the rows whose canonical byte key starts with the
        # lead's, in byte key order
        for lead in [None] + [IntVal(a) for a in range(-1, 4)]:
            prefix = b"" if lead is None else encode_value(lead)
            expected = sorted(
                (encode_tuple(values), rowid) for rowid, values in rows.items() if encode_tuple(values).startswith(prefix)
            )
            assert list(state.scan("pair", lead).items()) == [(rowid, rows[rowid]) for _key, rowid in expected]

    def test_sparse_pages_read_and_drop(self, small_pages):
        state, idx, rids = numbers(*range(10))
        for rid in rids[1:9]:
            state.erase("item", rid)
        # ids 1 and 10 are left; the pages of ids 4..7 emptied and went
        assert [n for n, page in enumerate(idx.rows.pages) if page] == [0, 2]
        assert len(idx.rows) == 2
        assert dict(idx.rows.items()) == {rids[0]: (IntVal(0),), rids[9]: (IntVal(9),)}
        assert rids[5] not in idx.rows and idx.rows.get(rids[5]) is None
        assert list(state.scan("item").items()) == [(rids[0], (IntVal(0),)), (rids[9], (IntVal(9),))]
        assert index_faults(state) == []


def test_a_lead_scan_reads_the_rows_a_filter_of_every_row_keeps(small_pages):
    # texts that share their first bytes, a leading reference and a leading
    # inline tuple, over ranges that cross chunks; a collision run shows
    # every one of its rows
    state = make_state(
        "relation (word (s text) (n int))",
        "relation (tag word (n int))",
        "domain (duo word (k int))",
        "relation (shelf duo (n int))",
    )
    texts = ["a", "a\x00", "a\x00b", "a\x01", "ab", ""]
    words = [state.insert("word", (TextVal(t), IntVal(n)))[0] for t in texts for n in (1, 2)]
    tags, shelves = [], []
    for rid in words:
        for n in (1, 2):
            tags.append(state.insert("tag", (RefVal("word", rid), IntVal(n)))[0])
            duo = TupleVal("duo", (RefVal("word", rid), IntVal(n)))
            shelves.append(state.insert("shelf", (duo, IntVal(n)))[0])
    for relation, rids in (("word", words), ("tag", tags), ("shelf", shelves)):
        assert state.rekey(relation, rids[1], state.get_row(relation, rids[0])) is True
    leads = {
        "word": [TextVal(t) for t in texts + ["a\x02", "b"]],
        "tag": [RefVal("word", rid) for rid in words + [99]],
        "shelf": [TupleVal("duo", (RefVal("word", rid), IntVal(n))) for rid in words + [99] for n in (1, 2, 3)],
    }
    for relation, lead_values in leads.items():
        idx = state.indexes[relation]
        rows = dict(idx.rows.items())
        for lead in lead_values:
            got = state.scan(relation, lead)
            assert got == {rowid: values for rowid, values in rows.items() if values[0] == lead}
            assert list(got.values()) == sorted(got.values(), key=encode_tuple)
            assert idx.count(lead) == len(got)
    run = state.scan("tag", RefVal("word", words[0]))
    assert tags[0] in run and tags[1] in run and len(run) == 2
    assert len(state.scan("word", TextVal("a"))) == 2 and index_faults(state) == []


def _sharing(parent, fork):
    """Per part of the index, the pages of ``fork`` that are not ``parent``'s."""
    def unshared(mine, theirs):
        ids = {id(page) for page in theirs}
        return [page for page in mine if id(page) not in ids]

    def reverse_pages(idx):
        return [page for pages in idx.maps.values() for page in pages.values()]

    return {
        "key chunks": unshared(fork.key_chunks, parent.key_chunks),
        "id chunks": unshared(fork.id_chunks, parent.id_chunks),
        "row pages": unshared(filter(None, fork.rows.pages), filter(None, parent.rows.pages)),
        "reverse pages": unshared(reverse_pages(fork), reverse_pages(parent)),
    }


class TestSharing:
    """A one-row write in a fork copies the pages it writes and shares the
    rest of the relation with the parent: the gate for O(change) writes."""

    @pytest.fixture(scope="class")
    def parent(self):
        state = make_state("relation (author (name text))", "relation (book author (title text))")
        authors = [state.insert("author", (TextVal(f"a{i:04d}"),))[0] for i in range(1000)]
        for i in range(5000):
            state.insert("book", (RefVal("author", authors[i % 1000]), TextVal(f"t{(i * 7919) % 5000:04d}")))
        return state

    def write(self, parent, op):
        base = parent.indexes["book"]
        before = list(parent.scan("book").items())
        fork = parent.fork()
        op(fork)
        assert list(parent.scan("book").items()) == before
        assert index_faults(fork) == [] and index_faults(parent) == []
        return base, fork.indexes["book"]

    def test_the_relation_spans_many_pages(self, parent):
        idx = parent.indexes["book"]
        assert len(idx.rows) == 5000
        assert len(idx.key_chunks) >= 10 and len(idx.rows.pages) >= 10
        assert len(idx.maps[0]) == 4  # 1000 authors, 256 to a page

    def test_an_insert_copies_one_chunk_one_row_page_and_one_reverse_page(self, parent):
        book = (RefVal("author", 3), TextVal("t2500x"))
        base, idx = self.write(parent, lambda s: s.insert("book", book))
        new = _sharing(base, idx)
        split = len(idx.key_chunks) - len(base.key_chunks)
        assert len(new["key chunks"]) == len(new["id chunks"]) == 1 + split
        assert len(new["row pages"]) == len(new["reverse pages"]) == 1
        # in the written page, only the written bucket was copied
        page, base_page = idx.maps[0][0], base.maps[0][0]
        assert [t for t, bucket in page.items() if bucket is not base_page[t]] == [("author", 3)]
        assert contains_tuple(parent, "book", book) is None

    def test_an_erase_copies_one_chunk_one_row_page_and_one_reverse_page(self, parent):
        base, idx = self.write(parent, lambda s: s.erase("book", 2600))
        new = _sharing(base, idx)
        assert {part: len(pages) for part, pages in new.items()} == dict.fromkeys(new, 1)
        assert 2600 in parent.indexes["book"].rows and 2600 not in idx.rows

    def test_a_rekey_copies_the_chunks_it_leaves_and_enters(self, parent):
        old = parent.get_row("book", 1234)
        assert old[0].row >> store.ROW_BITS == 0
        # the highest author and title: the new key goes last
        book = (RefVal("author", 1000), TextVal("zzz"))
        base, idx = self.write(parent, lambda s: s.rekey("book", 1234, book))
        new = _sharing(base, idx)
        # the chunk the old key leaves, and the last chunk, which the new key joins
        assert len(new["key chunks"]) == len(new["id chunks"]) == 2
        assert any(chunk is idx.key_chunks[-1] for chunk in new["key chunks"])
        assert len(new["row pages"]) == 1
        # the reverse pages of the old author (page 0) and the new one (page 3)
        assert len(new["reverse pages"]) == 2
        assert parent.get_row("book", 1234) == old

    def test_a_rekey_that_keeps_the_reference_copies_no_reverse_page(self, parent):
        old = parent.get_row("book", 1234)
        book = (old[0], TextVal("zzz"))
        base, idx = self.write(parent, lambda s: s.rekey("book", 1234, book))
        new = _sharing(base, idx)
        assert new["reverse pages"] == []
        assert idx.maps[0] == base.maps[0]
        assert parent.get_row("book", 1234) == old


# --- a model check of the paged index ---------------------------------------------


class ListModel:
    """One relation as a plain sorted list of (canonical byte key, row id)
    pairs, the earliest holder of a key first, plus a row id -> tuple
    dict: the byte keys are the order contract the index's tuples keep."""

    def __init__(self):
        self.entries = []
        self.rows = {}
        self.next_rowid = 1

    def copy(self):
        other = ListModel()
        other.entries, other.rows, other.next_rowid = list(self.entries), dict(self.rows), self.next_rowid
        return other

    def keys(self):
        return [key for key, _rid in self.entries]

    def insert(self, values, rowid=None):
        key = encode_tuple(values)
        for k, rid in self.entries:
            if k == key:
                return rid, False
        if rowid is None:
            rowid = self.next_rowid
            self.next_rowid += 1
        self.entries.insert(bisect_left(self.keys(), key), (key, rowid))
        self.rows[rowid] = values
        return rowid, True

    def erase(self, rowid):
        self.entries.remove((encode_tuple(self.rows.pop(rowid)), rowid))

    def rekey(self, rowid, values):
        old, new = encode_tuple(self.rows[rowid]), encode_tuple(values)
        self.rows[rowid] = values
        if old == new:
            return False
        self.entries.remove((old, rowid))
        i = bisect_right(self.keys(), new)
        self.entries.insert(i, (new, rowid))
        return i > 0 and self.entries[i - 1][0] == new


def referrers_of(models, item):
    """The tag and pair rows of ``models`` that reference an item row."""
    tags = {("tag", t) for t, v in models["tag"].rows.items() if v[0].row == item}
    pairs = {("pair", p) for p, v in models["pair"].rows.items() if item in {r.row for r in v[0].values}}
    return tags | pairs


class PagedIndexMachine(RuleBasedStateMachine):
    """Inserts, erases and rekeys (colliding ones too) on the states of a
    fork tree, each state checked against its own list model after every
    step: so a parent must read the same before and after its fork writes,
    and the other way round. A pair's inline tuple may hold one item twice,
    so a row may reference a target twice at one position. Value maps are
    built at scalar positions along the way, on any state of the tree."""

    def __init__(self):
        super().__init__()
        state = make_state(
            "relation (item (n int))",
            "relation (tag item (m int))",
            "domain (duo item item)",
            "relation (pair duo (m int))",
        )
        self.worlds = [(state, {rel: ListModel() for rel in ("item", "tag", "pair")}, [])]

    def world(self, w):
        return self.worlds[w % len(self.worlds)]

    def pick(self, model, i):
        rows = sorted(model.rows)
        return rows[i % len(rows)] if rows else None

    def referencing(self, relation, models, i, j, same, m):
        """A tuple of ``relation`` that references items, or None when there
        is none: a tag references one item, a pair two, one item twice when
        ``same``."""
        a, b = self.pick(models["item"], i), self.pick(models["item"], j)
        if a is None:
            return None
        if relation == "tag":
            return (RefVal("item", a), IntVal(m))
        return (TupleVal("duo", (RefVal("item", a), RefVal("item", a if same else b))), IntVal(m))

    @rule(w=st.integers(0, 7), n=st.integers(0, 9))
    def insert_item(self, w, n):
        state, models, _ = self.world(w)
        assert state.insert("item", (IntVal(n),)) == models["item"].insert((IntVal(n),))

    @rule(
        w=st.integers(0, 7),
        relation=st.sampled_from(["tag", "pair"]),
        i=st.integers(0, 99),
        j=st.integers(0, 99),
        same=st.booleans(),
        m=st.integers(0, 2),
    )
    def insert_referrer(self, w, relation, i, j, same, m):
        state, models, _ = self.world(w)
        values = self.referencing(relation, models, i, j, same, m)
        if values is not None:
            assert state.insert(relation, values) == models[relation].insert(values)

    @rule(w=st.integers(0, 7))
    def reserve(self, w):
        state, models, reserved = self.world(w)
        rowid = state.reserve_rowid("item")
        assert rowid == models["item"].next_rowid
        models["item"].next_rowid += 1
        reserved.append(rowid)

    @rule(w=st.integers(0, 7), n=st.integers(10, 12))
    def insert_reserved(self, w, n):
        state, models, reserved = self.world(w)
        if reserved:
            values = (IntVal(n),)
            got = state.insert("item", values, rowid=reserved[0])
            assert got == models["item"].insert(values, rowid=reserved[0])
            if got[1]:
                reserved.pop(0)

    @rule(
        w=st.integers(0, 7),
        relation=st.sampled_from(["item", "tag", "pair"]),
        i=st.integers(0, 99),
        cascade=st.booleans(),
    )
    def erase(self, w, relation, i, cascade):
        state, models, _ = self.world(w)
        rowid = self.pick(models[relation], i)
        if rowid is None:
            return
        doomed = {(relation, rowid)}
        if cascade and relation == "item":
            doomed |= referrers_of(models, rowid)
        assert state.erase(relation, rowid, cascade=cascade) == doomed
        for rel, rid in doomed:
            models[rel].erase(rid)

    @rule(w=st.integers(0, 7), i=st.integers(0, 99), n=st.integers(0, 9))
    def rekey_item(self, w, i, n):
        state, models, _ = self.world(w)
        rowid = self.pick(models["item"], i)
        if rowid is not None:
            values = (IntVal(n),)
            assert state.rekey("item", rowid, values) == models["item"].rekey(rowid, values)

    @rule(
        w=st.integers(0, 7),
        relation=st.sampled_from(["tag", "pair"]),
        k=st.integers(0, 99),
        i=st.integers(0, 99),
        j=st.integers(0, 99),
        same=st.booleans(),
        m=st.integers(0, 2),
    )
    def rekey_referrer(self, w, relation, k, i, j, same, m):
        state, models, _ = self.world(w)
        rowid = self.pick(models[relation], k)
        values = self.referencing(relation, models, i, j, same, m)
        if rowid is not None and values is not None:
            assert state.rekey(relation, rowid, values) == models[relation].rekey(rowid, values)

    @rule(w=st.integers(0, 7), position=st.sampled_from([("item", 0), ("tag", 1), ("pair", 1)]))
    def index_values(self, w, position):
        # a value map built partway, on a state that may share its index
        # with others; every write after it keeps the map
        state, _models, _ = self.world(w)
        relation, pos = position
        assert pos in state.index_values(relation, pos).valued

    @precondition(lambda self: len(self.worlds) < 4)
    @rule(w=st.integers(0, 7))
    def fork(self, w):
        state, models, reserved = self.world(w)
        self.worlds.append(
            (state.fork(), {rel: m.copy() for rel, m in models.items()}, list(reserved))
        )

    @invariant()
    def every_state_reads_as_its_model(self):
        for state, models, _ in self.worlds:
            assert index_faults(state) == []
            for relation, model in models.items():
                idx = state.indexes[relation]
                assert [(encode_tuple(k), r) for k, r in zip(flat_keys(idx), flat_ids(idx))] == model.entries
                assert dict(idx.rows.items()) == model.rows and len(idx.rows) == len(model.rows)
                assert idx.next_rowid == model.next_rowid
                assert list(state.scan(relation).items()) == [(r, model.rows[r]) for _k, r in model.entries]
                for values in set(model.rows.values()) | {(IntVal(-1),)}:
                    held = [r for k, r in model.entries if k == encode_tuple(values)]
                    assert idx.run(values) == held and idx.first(values) == (held[0] if held else None)
            tags = models["tag"]
            for rowid in range(1, models["item"].next_rowid):
                assert state.referrers("item", rowid) == referrers_of(models, rowid)
                # the tags of one item: a key range that may span chunks
                lead = RefVal("item", rowid)
                held = [r for k, r in tags.entries if k.startswith(encode_value(lead))]
                assert list(state.scan("tag", lead).items()) == [(r, tags.rows[r]) for r in held]
                assert state.indexes["tag"].count(lead) == len(held)


def test_the_paged_index_reads_as_a_sorted_list_model(small_pages):
    run_state_machine_as_test(
        PagedIndexMachine,
        settings=settings(max_examples=100, stateful_step_count=50, deadline=None),
    )
