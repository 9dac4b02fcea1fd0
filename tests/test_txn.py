import io
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relang
from relang import evaluator, shell, values
from relang.errors import (
    DomainTypeMismatch,
    IntegrityError,
    NameCollision,
    Rebind,
    RelangError,
    RowNotFound,
    TypeMismatch,
    UnknownAttr,
)
from relang.store import MultitableIndex
from relang.txn import CommitReport

from conftest import LIBRARY_DDL, LIBRARY_SCRIPT, build_db, fingerprint, q, rows, run
from oracles import by_values, collision_keys, dangling_refs, index_faults, type_faults


class TestPlanAdd:
    def test_add_returns_the_fresh_tuples(self, library_ddl):
        db = library_ddl
        result = run(db, 'add author ({"Dawkins" "1941"} {"Homer" "800 BC"})')
        assert rows(result, db.txn.shadow) == {
            ("Dawkins", "+1941"),
            ("Homer", "-0799"),
        }

    def test_second_identical_add_returns_nothing(self, library_ddl):
        db = library_ddl
        run(db, 'add genre {"bore"}')
        result = run(db, 'add genre {"bore"}')
        assert len(result) == 0

    def test_pointer_script_references_the_new_author(self, library_ddl):
        db = library_ddl
        run(db, "Homer = add author {'Homer' '800 BC'}")
        run(db, "add book {(Homer) 'Ulysses' '750 BC'}")
        run(db, "commit")
        assert rows(q(db, "(book)"), db.published) == {
            (("Homer", "-0799"), "Ulysses", "-0749")
        }

    def test_paren_tuple_accommodation(self, library_ddl):
        db = library_ddl
        run(db, "add author ('Homer' '800 BC')")  # parens, but a single tuple
        assert rows(q(db, "(author)"), db.txn.shadow) == {("Homer", "-0799")}

    def test_paren_union_of_products_still_works(self, library_ddl):
        db = library_ddl
        run(db, 'add author ({"A" "1901"} {"B" "1902"})')
        assert len(q(db, "(author)")) == 2

    def test_an_empty_member_of_one_shape_reads_as_the_union(self):
        # as one tuple, the empty member would match no pair; every member
        # has the pair's shape, so the set is the union it also reads as
        db = build_db("relation (pair (a int) (b int))")
        run(db, "add pair ({1 2} (pair 9 .)) commit")
        assert rows(q(db, "(pair)"), db.published) == {(1, 2)}

    def test_an_empty_member_of_another_shape_fails_at_commit(self, library_ddl):
        # the members' shapes differ, so no union: an author never added
        db = library_ddl
        run(db, 'add book ((author "Nobody" .) "X" "1900")')
        with pytest.raises(IntegrityError, match="matched no tuples"):
            run(db, "commit")
        assert len(q(db, "(book)")) == 0

    def test_read_your_writes(self, library_ddl):
        db = library_ddl
        run(db, 'add genre {"noir"}')
        assert rows(q(db, "(genre)"), db.txn.shadow) == {("noir",)}
        run(db, "rollback")
        assert len(q(db, "(genre)")) == 0

    def test_fresh_returns_partition_the_resolved_set(self, library_ddl):
        import random

        db = library_ddl
        rng = random.Random(99)
        pool = [f"g{i}" for i in range(8)]
        for trial in range(30):
            chosen = rng.sample(pool, rng.randint(1, 6))
            pre_existing = {
                t[0].value for t in db.txn.shadow.scan("genre").values()
            } & set(chosen)
            arg = " ".join("{" + f'"{g}"' + "}" for g in chosen)
            result = run(db, f"add genre ({arg})")
            returned = {t[0].value for t in result.tuples()}
            assert returned == set(chosen) - pre_existing
            assert returned | pre_existing == set(chosen)

    def test_a_lone_surrogate_fails_the_statement_before_any_write(self, library_ddl):
        db = library_ddl
        with pytest.raises(DomainTypeMismatch):
            run(db, 'add genre ({"a"} {"b\ud800"})')
        assert len(q(db, "(genre)")) == 0


class TestPlanRemove:
    def test_remove_by_positional_selection(self, library):
        # referrers go first, then the book itself
        run(
            library,
            'remove book_genre (book_genre (book . "Ulysses" .) .)'
            ' remove available (available (book . "Ulysses" .) .)'
            ' remove book (book . "Ulysses" .)'
            " commit",
        )
        titles = rows(q(library, "[(book) title]"), library.published)
        assert titles == {("The Selfish Gene",), ("Emma",)}

    def test_removing_a_referenced_row_alone_fails_at_commit(self, library):
        run(library, 'remove book (book . "Ulysses" .)')
        with pytest.raises(IntegrityError):
            run(library, "commit")

    def test_remove_with_respect_to_another_relation(self, library):
        # the one book connected to genre "bore" is Emma
        result = run(library, 'remove book (genre "bore")')
        assert {t[1].value for t in result.tuples()} == {"Emma"}

    def test_removing_an_absent_tuple_is_a_noop(self, library):
        result = run(library, 'remove book (book . "War And Piece" .)')
        assert len(result) == 0

    def test_variable_as_a_remove_target(self, library):
        run(library, 'His_Books = (book (author "Homer" .) . .)')
        run(library, "remove book_genre (book_genre (His_Books) .)")
        run(library, "remove available (available (His_Books) .)")
        result = run(library, "remove book (His_Books)")
        assert {t[1].value for t in result.tuples()} == {"Ulysses"}
        run(library, "commit")
        assert dangling_refs(library.published) == []

    def test_abolish_cascades_through_every_referrer(self, library):
        run(library, 'abolish author (author "Homer" .) commit')
        assert dangling_refs(library.published) == []
        assert rows(q(library, "[(book) title]"), library.published) == {
            ("The Selfish Gene",),
            ("Emma",),
        }
        assert len(q(library, "(book_genre)")) == 2
        assert len(q(library, "(available)")) == 2


class TestPlanUpdate:
    def test_capitalize_every_author(self, library):
        run(library, 'add author {"zweig" "1881-11-28"} commit')
        run(library, "update author (author) (name (capitalize name)) commit")
        names = {t[0].value for t in q(library, "(author)").tuples()}
        assert names == {"Dawkins", "Homer", "Austen", "Zweig"}

    def test_update_with_respect_to_another_relation(self, library):
        # no book title starts with "A", so nothing changes
        result = run(library, 'update author (book:(title ~ "A.*")) (birthdate "1910")')
        assert len(result) == 0
        # Emma's author does
        result = run(library, 'update author (book:(title ~ "E.*")) (birthdate "1910")')
        assert rows(result, library.txn.shadow) == {("Austen", "+1910")}

    def test_update_to_current_values_changes_nothing(self, library):
        before = fingerprint(library)
        run(library, 'update genre (genre "epic") (text "epic") commit')
        assert fingerprint(library) == before

    def test_referencing_rows_survive_an_update(self, library):
        run(library, 'update author (author "Homer" .) (name "HOMER") commit')
        assert rows(q(library, '[(book . "Ulysses" .) [author name]]'), library.published) == {
            ("HOMER",)
        }

    def test_update_a_reference_attribute(self, library):
        run(library, 'update book (book . "Emma" .) (author (author "Homer" .)) commit')
        emma = q(library, '[(book . "Emma" .) [author name]]')
        assert rows(emma, library.published) == {("Homer",)}
        assert dangling_refs(library.published) == []

    def test_update_an_inline_tuple_attribute(self, library):
        run(
            library,
            "domain (point int int) relation (place (name text) (at point) (to point))"
            ' add place ({"home" (point 1 2) (point 1 2)} {"work" (point 3 4) (point 1 2)})'
            " commit",
        )
        run(library, 'update place (place "home" . .) (at (point 5 6)) commit')
        run(library, 'update place (place "work" . .) (to at) commit')  # the row's own value
        assert rows(q(library, "(place)"), library.published) == {
            ("home", (5, 6), (1, 2)),
            ("work", (3, 4), (3, 4)),
        }

    def test_a_tuple_attribute_takes_exactly_one_tuple(self, library):
        before = fingerprint(library)
        with pytest.raises(TypeMismatch, match="needs exactly one tuple, got 3"):
            run(library, 'update book (book . "Emma" .) (author (author))')
        with pytest.raises(TypeMismatch, match="needs a author tuple"):
            run(library, 'update book (book . "Emma" .) (author 5)')
        run(library, "commit")
        assert fingerprint(library) == before

    def test_unknown_attr_is_immediate(self, library):
        with pytest.raises(UnknownAttr):
            run(library, 'update author (author) (ghost "x")')

    def test_type_error_is_immediate(self, library):
        from relang.errors import DomainTypeMismatch

        with pytest.raises(DomainTypeMismatch):
            run(library, "update author (author) (name (+ 1 2))")
        with pytest.raises(TypeMismatch):
            run(library, "update author (author) (name (& name name))")


class TestBindings:
    def test_bindings_chain(self, library):
        run(library, 'A = (author:(name ~ "A.*"))')
        run(library, 'B = (A:(birthdate > "1940"))')
        assert len(q(library, "(B)")) == 0  # Austen was born in 1775

    def test_rebinding_is_rejected(self, library):
        run(library, "A = (author)")
        with pytest.raises(Rebind):
            run(library, "A = (genre)")

    def test_relation_names_are_reserved(self, library):
        with pytest.raises(NameCollision):
            run(library, "genre = (author)")

    def test_dml_return_binds_and_reads_back(self, library):
        run(library, 'X = add genre {"noir"}')
        assert rows(q(library, "(X)"), library.txn.shadow) == {("noir",)}

    def test_bindings_do_not_survive_commit(self, library):
        run(library, 'X = add genre {"noir"} commit')
        with pytest.raises(relang.errors.UnknownRelation):
            q(library, "(X)")

    def test_bindings_do_not_survive_rollback(self, library):
        run(library, "X = (author) rollback")
        with pytest.raises(relang.errors.UnknownRelation):
            q(library, "(X)")


class TestCommit:
    def test_empty_commit_reports_all_zeros(self, library_ddl):
        report = run(library_ddl, "commit")
        assert isinstance(report, CommitReport)
        assert report.added == {} and report.removed == {} and report.updated == {}

    def test_the_two_step_script_commits(self, library_ddl):
        db = library_ddl
        run(
            db,
            'add author {"Homer" "800 BC"}'
            ' add book {(author "Homer") "Ulysses" "750 BC"}'
            " commit",
        )
        assert len(q(db, "(book)")) == 1

    def test_missing_author_fails_at_commit_not_at_add(self, library_ddl):
        db = library_ddl
        before = fingerprint(db)
        run(db, 'add book {(author "Homer") "Ulysses" "750 BC"}')  # no error yet
        with pytest.raises(IntegrityError):
            run(db, "commit")
        assert fingerprint(db) == before

    def test_remove_referenced_then_referrer_commits(self, library):
        run(
            library,
            'remove genre (genre "bore")'
            ' remove book_genre (book_genre (book . "Emma" .) .)'
            " commit",
        )
        assert dangling_refs(library.published) == []

    def test_remove_referenced_without_referrer_fails(self, library):
        run(library, 'remove genre (genre "bore")')
        with pytest.raises(IntegrityError):
            run(library, "commit")

    def test_failed_commit_aborts_the_transaction(self, library_ddl):
        db = library_ddl
        run(db, 'add book {(author "Nobody") "X" "1900"}')
        with pytest.raises(IntegrityError):
            run(db, "commit")
        # engine continues with a clean transaction
        run(db, 'add genre {"noir"} commit')
        assert len(q(db, "(genre)")) == 1

    def test_report_counts(self, library):
        run(library, 'add genre {"noir"}')
        run(library, 'remove available (available . (department "annex"))')
        run(library, 'update author (author "Homer" .) (name "HOMERos")')
        report = run(library, "commit")
        assert report.added == {"genre": 1}
        assert report.removed == {"available": 1}
        assert report.updated == {"author": 1}

    def test_sequential_transactions_see_each_other(self, library_ddl):
        db = library_ddl
        run(db, 'add genre {"one"} commit')
        assert rows(q(db, "(genre)"), db.published) == {("one",)}
        run(db, 'add genre {"two"} commit')
        assert rows(q(db, "(genre)"), db.published) == {("one",), ("two",)}


class TestCommitReport:
    def test_a_row_added_then_removed_counts_as_nothing(self, library_ddl):
        report = run(
            library_ddl,
            'add genre {"x"} remove genre (genre "x") add genre {"y"} commit',
        )
        assert report.added == {"genre": 1}
        assert report.removed == {} and report.updated == {}

    def test_an_update_back_to_the_old_value_counts_as_nothing(self, library):
        report = run(
            library,
            'update genre (genre "epic") (text "saga")'
            ' update genre (genre "saga") (text "epic")'
            ' add genre {"noir"}'
            " commit",
        )
        assert report.added == {"genre": 1}
        assert report.removed == {} and report.updated == {}

    def test_abolish_counts_every_cascaded_row(self, library):
        report = run(library, 'abolish author (author "Homer" .) commit')
        assert report.removed == {
            "author": 1,
            "book": 1,
            "book_genre": 1,
            "available": 1,
        }
        assert report.added == {} and report.updated == {}

    def test_a_relation_defined_mid_transaction_counts_its_rows(self, library):
        report = run(
            library,
            'add genre {"noir"} relation (shelf (label text)) add shelf {"s1"} commit',
        )
        assert report.added == {"genre": 1, "shelf": 1}


class TestIntegrityErrorNamesTheStatement:
    """Statements are numbered by the transaction's DML statements, from 1."""

    def _fails(self, db, script, message):
        before = fingerprint(db)
        run(db, script)
        with pytest.raises(IntegrityError) as info:
            run(db, "commit")
        assert str(info.value) == message
        assert fingerprint(db) == before

    def test_still_referenced(self, library):
        self._fails(
            library,
            'add genre {"noir"} remove genre (genre "bore")',
            "statement 2: removed tuple of 'genre' is still referenced",
        )

    def test_never_added(self, library):
        self._fails(
            library,
            'add genre {"noir"} add book {{"Nobody" "1900"} "X" "1900"}',
            "statement 2: a tuple of 'author' referenced in this transaction"
            " was never added",
        )

    def test_update_collision(self, library):
        self._fails(
            library,
            'add genre {"noir"} update author (author) (name "same" birthdate "1900")',
            "statement 2: update left two equal tuples in 'author'",
        )

    def test_unmatched_member(self, library):
        self._fails(
            library,
            'add genre {"noir"} add book {(author "Nobody" .) "X" "1900"}',
            "statement 2: a member of the set added to 'book' matched no tuples;"
            " the referenced tuple was never added",
        )

    def test_the_lowest_statement_is_reported(self, library):
        self._fails(
            library,
            'update author (author) (name "same" birthdate "1900")'
            ' add book {{"Nobody" "1900"} "X" "1900"}',
            "statement 1: update left two equal tuples in 'author'",
        )

    # statement 2 adds the author statement 1 references, so statement 1 has
    # nothing left open; what fails is the removal and the new reference
    REOPENED = """
add book {{"Homer" "800 BC"} "Ulysses" "750 BC"}
add author {"Homer" "800 BC"}
%s author (author "Homer" .)
add book {{"Homer" "800 BC"} "Iliad" "760 BC"}
"""

    def test_a_satisfied_reference_is_not_blamed_for_a_removal(self):
        self._fails(
            build_db(LIBRARY_DDL),
            self.REOPENED % "remove",
            "statement 3: removed tuple of 'author' is still referenced",
        )

    def test_a_reference_opened_again_names_the_later_statement(self):
        # abolish takes Ulysses with its author, so only statement 4's
        # reference is left open
        self._fails(
            build_db(LIBRARY_DDL),
            self.REOPENED % "abolish",
            "statement 4: a tuple of 'author' referenced in this transaction"
            " was never added",
        )


class TestRollback:
    def test_rollback_restores_published_content(self, library):
        before = fingerprint(library)
        run(library, 'add genre {"noir"} add author {"New" "1999"} rollback')
        assert fingerprint(library) == before
        assert len(q(library, "(genre)")) == 3

    def test_rollback_of_an_empty_transaction(self, library):
        before = fingerprint(library)
        run(library, "rollback")
        assert fingerprint(library) == before


class TestAtomicity:
    def test_out_of_order_value_complete_reference_unifies(self, library_ddl):
        db = library_ddl
        run(
            db,
            "add book {{'Homer' '800 BC'} 'Ulysses' '750 BC'}"
            " add author {'Homer' '800 BC'}"
            " commit",
        )
        assert dangling_refs(db.published) == []
        assert len(q(db, "(book)")) == 1

    def test_one_add_naming_a_missing_target_twice_reserves_one_row(self, library_ddl):
        db = library_ddl
        run(db, 'add book ({{"Zed" "1900"} "A" "1990"} {{"Zed" "1900"} "B" "1991"})')
        assert len({book[0] for book in db.txn.shadow.scan("book").values()}) == 1
        run(db, 'add author {"Zed" "1900"} commit')
        titles = q(db, '[(book (author "Zed" .) . .) title]')
        assert rows(titles, db.published) == {("A",), ("B",)}
        assert dangling_refs(db.published) == []

    def test_update_collision_defers_and_aborts(self, library_ddl):
        db = library_ddl
        run(db, 'add author ({"a" "1901"} {"b" "1901"}) commit')
        before = fingerprint(db)
        run(db, 'update author (author) (name "same")')
        with pytest.raises(IntegrityError):
            run(db, "commit")
        assert fingerprint(db) == before

    def test_reads_see_both_rows_of_a_deferred_collision(self, library_ddl):
        db = library_ddl
        run(
            db,
            'add author ({"X" "1900"} {"Y" "1900"})'
            ' add book ({(author "X" .) "One" "1950"} {(author "Y" .) "Two" "1951"})'
            " commit",
        )
        run(db, 'update author (author "Y" .) (name "X")')
        assert collision_keys(db.txn.shadow)
        books = q(db, '(book (author "X" .) .)')
        assert {t[1].value for t in books.tuples()} == {"One", "Two"}
        pairs = q(db, '{book (author "X" .)}')
        assert {t[1].value for t in pairs.tuples()} == {"One", "Two"}

    def test_a_dangling_referrer_matches_nothing(self, library_ddl):
        db = library_ddl
        run(db, 'add author {"X" "1900"} add book {(author "X" .) "One" "1950"} commit')
        run(db, 'remove author (author "X" .)')
        # the same tuple again gets a fresh row; the book still holds the old one
        run(db, 'add author {"X" "1900"}')
        assert len(q(db, "(book)")) == 1
        assert len(q(db, '(book (author "X" .) .)')) == 0
        assert len(q(db, "(book (author) .)")) == 0
        assert len(q(db, '{book (author "X" .)}')) == 0

    def test_statement_order_determinism(self):
        script = LIBRARY_SCRIPT + 'remove book (genre "bore")\nrollback\n'
        a, b = build_db(script), build_db(script)
        assert fingerprint(a) == fingerprint(b)


class TestReadsWhileAReferenceIsPending:
    """A row reserved for a referenced tuple that was never added is not a
    row: a connection drops it, and dereferencing it is a RelangError."""

    @pytest.fixture
    def pending(self, library_ddl):
        run(
            library_ddl,
            "add book {{'Homer' '800 BC'} 'Ulysses' '750 BC'}"
            " add genre {'epic'}"
            " add book_genre {(book . 'Ulysses' .) (genre 'epic')}",
        )
        assert library_ddl.txn.pending
        return library_ddl

    def _aborts_as_never_added(self, db):
        with pytest.raises(IntegrityError, match="never added"):
            run(db, "commit")

    def test_a_connection_to_the_pending_row_is_empty(self, pending):
        assert len(q(pending, "{author (book)}")) == 0
        assert len(q(pending, "{author (book_genre)}")) == 0  # through book
        assert len(q(pending, "{genre (book)}")) == 1  # the book itself is stored
        self._aborts_as_never_added(pending)

    def test_abolishing_through_the_pending_row_is_a_no_op(self, pending):
        shadow = pending.txn.shadow
        before = {name: dict(idx.rows.items()) for name, idx in shadow.indexes.items()}
        assert len(run(pending, "abolish author (book)")) == 0
        assert {name: dict(idx.rows.items()) for name, idx in shadow.indexes.items()} == before
        self._aborts_as_never_added(pending)

    @pytest.mark.parametrize("text", ["(book)", "[(book) [author name] title]"])
    def test_dereferencing_the_pending_row_shows_no_row_id(self, pending, text):
        with pytest.raises(RowNotFound) as exc:
            relang.format_result(q(pending, text), "sexpr", pending.txn.shadow)
        message = str(exc.value)
        assert "'author'" in message
        assert not any(ch.isdigit() for ch in message)

    def test_a_connection_to_a_removed_row_is_empty(self, library_ddl):
        db = library_ddl
        run(db, 'add author {"X" "1900"} add book {(author "X" .) "One" "1950"} commit')
        run(db, 'remove author (author "X" .)')
        assert len(q(db, "{author (book)}")) == 0
        with pytest.raises(IntegrityError, match="still referenced"):
            run(db, "commit")


# --- copy on write ------------------------------------------------------------------


def copied(db):
    """The relations whose index the shadow no longer shares with the
    published state."""
    shadow, published = db.txn.shadow.indexes, db.published.indexes
    return {n for n in shadow.keys() | published.keys() if shadow.get(n) is not published.get(n)}


class TestSharing:
    def test_a_reopened_transaction_shares_every_index(self, library):
        assert copied(library) == set()
        run(library, 'add genre {"noir"} commit')
        assert copied(library) == set()
        run(library, 'add genre {"pulp"}')
        assert copied(library) == {"genre"}
        run(library, "rollback")
        assert copied(library) == set()
        run(library, 'remove genre (genre "epic")')
        with pytest.raises(IntegrityError):
            run(library, "commit")
        assert copied(library) == set()

    def test_reads_and_a_stored_tuple_copy_nothing(self, library):
        q(library, '{genre (author "Homer" .)}')
        q(library, "[(book) [author name] title]")
        run(library, 'B = (book . "Emma" .) add genre {"epic"}')
        assert copied(library) == set()

    def test_an_update_copies_only_its_relation(self, library):
        published = library.published
        run(library, 'update author (author "Homer" .) (birthdate "700 BC")')
        assert copied(library) == {"author"}
        run(library, "commit")
        assert library.published is not published
        assert {
            n for n, idx in published.indexes.items() if library.published.indexes[n] is not idx
        } == {"author"}

    def test_an_abolish_copies_the_relations_it_removes_from(self, library):
        run(library, 'abolish author (author "Homer" .)')
        assert copied(library) == {"author", "book", "book_genre", "available"}


def state_snapshot(state):
    return relang.save_snapshot(SimpleNamespace(catalog=state.catalog, published=state))


_AUTHORS = st.sampled_from(['{"Ada" "1801"}', '{"Ada" "1802"}', '{"Byron" "1801"}'])
_BOOKS = st.builds(
    lambda a, t: f'{{{a} "{t}" "1900"}}', _AUTHORS, st.sampled_from(["Alpha", "Beta"])
)
_GENRES = st.sampled_from(['"g1"', '"g2"'])
# references spelled out by value, over small pools, so that removals strand
# referrers, updates collide and commits abort
STATEMENTS = st.one_of(
    _AUTHORS.map(lambda a: f"add author {a}"),
    _BOOKS.map(lambda b: f"add book {b}"),
    _GENRES.map(lambda g: f"add genre {{{g}}}"),
    st.builds(lambda b, g: f"add book_genre {{{b} {{{g}}}}}", _BOOKS, _GENRES),
    st.builds(
        lambda a, y: f'update author ({a}) (birthdate "{y}")',
        _AUTHORS,
        st.sampled_from(["1801", "1802"]),
    ),
    st.builds(lambda g, h: f"update genre (genre {g}) (text {h})", _GENRES, _GENRES),
    _BOOKS.map(lambda b: f"remove book ({b})"),
    _GENRES.map(lambda g: f"remove genre (genre {g})"),
    _AUTHORS.map(lambda a: f"remove author ({a})"),
    _AUTHORS.map(lambda a: f"abolish author ({a})"),
    st.just("commit"),
    st.just("commit"),
    st.just("commit"),
    st.sampled_from(["rollback", "define", "shelve"]),
)


@given(st.lists(STATEMENTS, min_size=5, max_size=50))
@settings(max_examples=80, deadline=None)
def test_published_states_never_change(statements):
    db = build_db(LIBRARY_DDL)
    published = [(db.published, state_snapshot(db.published))]
    shelves = 0
    for text in statements:
        if text == "define":  # a definition in the middle of a transaction
            shelves += 1
            text = f"relation (shelf{shelves} book (label text))"
        elif text == "shelve":
            if not shelves:
                continue
            text = f'add shelf{shelves} {{(book . "Alpha" .) "top"}}'
        try:
            run(db, text)
        except RelangError:
            pass  # a rejected statement, or a commit that aborted
        if db.published is not published[-1][0]:
            published.append((db.published, state_snapshot(db.published)))
        # what the formatter keeps on an index rests on this: an index the
        # transaction holds but does not own is owned by no live state
        shadow = db.txn.shadow
        for name, idx in shadow.indexes.items():
            if name not in shadow.owned:
                assert not any(name in state.owned and state.indexes[name] is idx for state, _saved in published)
    for state, saved in published:
        assert state_snapshot(state) == saved
        assert index_faults(state) == []
        assert type_faults(state) == []
    last = relang.save_snapshot(db)
    assert relang.save_snapshot(relang.load_snapshot(last)) == last



_NAME = st.sampled_from(["Amy", "Bo"])
_DATE = st.sampled_from(["1900", "1900", "1950"])
_TITLE = st.sampled_from(["t", "u"])
_GENRE = st.sampled_from(["epic", "noir"])
_AUTHOR = st.builds(lambda n, d: f'{{"{n}" "{d}"}}', _NAME, _DATE)
# an author read by a nested selection or through the variable A, in a
# union or a product, or spelled out; a book read by a nested selection or
# through B
_WHO = st.one_of(
    _NAME.map(lambda n: f'(author "{n}" .)'),
    st.sampled_from(["(A)", '((author "Amy" .) (A))', "{(A)}"]),
    _AUTHOR,
)
_WHICH = st.one_of(_TITLE.map(lambda t: f'(book . "{t}" .)'), st.just("(B)"))
_BOOK = st.builds(lambda a, t, y: f'{{{a} "{t}" "{y}"}}', _WHO, _TITLE, _DATE)
_LINK = st.builds(lambda b, g: f'{{{b} (genre "{g}")}}', _WHICH, _GENRE)
_ADDS = st.one_of(
    _AUTHOR.map(lambda a: f"add author {a}"),
    st.lists(_BOOK, min_size=1, max_size=3).map(lambda bs: f"add book ({' '.join(bs)})"),
    st.lists(_LINK, min_size=1, max_size=3).map(lambda ls: f"add book_genre ({' '.join(ls)})"),
)
# a variable binds once: A to authors, B to books
_BINDS = st.tuples(
    _AUTHOR.map(lambda a: f"A = add author {a}") | _NAME.map(lambda n: f'A = (author "{n}" .)'),
    _BOOK.map(lambda b: f"B = add book {b}") | _TITLE.map(lambda t: f'B = (book . "{t}" .)'),
).map(list)
_CHANGES = st.one_of(
    # rekeys, some of them colliding
    st.builds(lambda s, n: f'update author {s} (name "{n}")', _WHO, _NAME),
    st.builds(lambda s, d: f'update author {s} (birthdate "{d}")', _WHO, _DATE),
    # an author set names its books through the connection
    st.builds(lambda s, t: f'update book {s} (title "{t}")', _WHO | _WHICH, _TITLE),
    st.builds(lambda s, a: f"update book {s} (author {a})", _WHICH, _WHO),
    st.builds(lambda v, s: f"{v} author {s}", st.sampled_from(["remove", "abolish"]), _WHO),
    st.builds(lambda v, s: f"{v} book {s}", st.sampled_from(["remove", "abolish"]), _WHO | _WHICH),
    st.builds(lambda s: f"remove book_genre {s}", _WHICH | _GENRE.map(lambda g: f'(genre "{g}")')),
)
_USES = st.one_of(
    _ADDS,
    _CHANGES,
    _WHO.map(lambda s: f"output (book {s} . .)"),
    _WHICH.map(lambda s: f"output (book_genre {s} .)"),
    (_WHO | _WHICH).filter(lambda s: s[0] == "(").map(lambda s: f"output {{genre {s}}}"),
    st.sampled_from(["output (book)", "output csv (book_genre)", "output [(book) author title]"]),
)
# data, then variables bound to rows, then changes to those rows, and
# statements that take the rows the variables read; the data may be
# committed first, and the rest may end in a commit
ROW_TAKING = st.tuples(
    st.lists(_ADDS, min_size=1, max_size=6),
    st.sampled_from([[], ["commit"]]),
    _BINDS,
    st.lists(_CHANGES, max_size=4),
    st.lists(_USES, min_size=1, max_size=6),
    st.sampled_from([[], ["commit"], ["rollback"]]),
).map(lambda phases: [text for phase in phases for text in phase])


def _played(statements) -> str:
    """Every output, commit report and error of the statements, then the
    saved database."""
    db = build_db(LIBRARY_DDL + ' add genre ({"epic"} {"noir"}) commit')
    out = io.StringIO()
    session = shell.Session(db, out, "sexpr", echo_commits=True)
    for text in statements + ["commit"]:
        try:
            for stmt in relang.parse_script(text):
                session.execute(stmt)
        except RelangError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=out)
    return out.getvalue() + relang.save_snapshot(db)


_TWO_AUTHORS = [
    'add author ({"Amy" "1900"} {"Bo" "1900"})',
    'add book ({(author "Amy" .) "t" "1900"} {(author "Bo" .) "u" "1900"})',
    'add book_genre ({(book . "t" .) (genre "epic")} {(book . "u" .) (genre "noir")})',
]
_TAKERS = [
    "output (book (A) . .)",
    'output (book ((author "Amy" .) (A)) . .)',
    "output (book {(A)} . .)",
    "output {genre (A)}",
    'add book {(A) "v" "1950"}',
    'update book (A) (title "w")',
    "output (book)",
]


@example(_TWO_AUTHORS + ['A = (author "Amy" .)', 'update author (author "Amy" .) (name "Cy")'] + _TAKERS)
@example(_TWO_AUTHORS + ['A = (author "Amy" .)', 'abolish author (A)', 'add author {"Amy" "1900"}'] + _TAKERS)
# a collision: A's row is the first of two under one key
@example(_TWO_AUTHORS + ['A = (author "Bo" .)', 'update author (author "Amy" .) (name "Bo")'] + _TAKERS)
@example(_TWO_AUTHORS + ['A = add author {"Cy" "1900"}', 'update author (author "Bo" .) (name "Cy")'] + _TAKERS)
# a collision's rows hold one tuple under two ids: the books referencing
# them print in value order
@example([
    'add author {"Amy" "1900"}', 'add author {"Bo" "1900"}', 'add author {"Bo" "1950"}', 'A = (author "Amy" .)',
    'B = add book {(author "Bo" .) "t" "1900"}', 'update author (author "Bo" .) (birthdate "1900")',
    'add book ({(author "Bo" .) "t" "1950"})', 'output (book)',
])
@given(ROW_TAKING)
@settings(max_examples=400, deadline=None)
def test_taking_the_rows_a_set_read_equals_finding_them_by_values(statements):
    played = _played(statements)
    with pytest.MonkeyPatch.context() as mp:
        by_values(mp)
        assert _played(statements) == played


def test_a_product_places_each_member_at_its_offset():
    db = build_db(
        'relation (author (name text) (birthdate timestamp)) relation (pair (p author) (q author))'
        ' add author ({"Amy" "1900"} {"Bo" "1950"}) commit A = (author "Bo" .)'
    )
    # an inner product's values move to the inner product's offset
    run(db, 'add pair {{"Amy" "1900"} {(author "Bo" .)}} add pair {{"Bo" "1950"} (author "Amy" .)}')
    run(db, 'add pair {{(A)} {"Bo" "1950"}}')
    assert rows(q(db, "(pair)"), db.txn.shadow) == {
        (("Amy", "+1900"), ("Bo", "+1950")),
        (("Bo", "+1950"), ("Amy", "+1900")),
        (("Bo", "+1950"), ("Bo", "+1950")),
    }


def test_a_bulk_add_encodes_each_stored_tuple_once(library_ddl, monkeypatch):
    # a tuple is its own key, so no engine path encodes one: not a bulk add,
    # not a snapshot save and load, not an update collision commit refuses
    db = library_ddl
    authors = [f"A{i:02d}" for i in range(50)]
    run(db, "add author ({}) add genre ({{\"epic\"}} {{\"noir\"}}) commit".format(
        " ".join(f'{{"{a}" "19{i:02d}"}}' for i, a in enumerate(authors))
    ))
    books = " ".join(f'{{(author "{a}" .) "T{a}" "2000"}}' for a in authors)
    links = " ".join(f'{{(book . "T{a}" .) (genre "{("epic", "noir")[i % 2]}")}}' for i, a in enumerate(authors))
    encoded = []
    for cls, encoder in list(values._ENCODERS.items()):
        monkeypatch.setitem(values._ENCODERS, cls, lambda v, encoder=encoder: encoded.append(v) or encoder(v))
    for name in [n for n in vars(values) if n.startswith("encode_")]:
        monkeypatch.setattr(values, name, lambda *args, f=getattr(values, name): encoded.append(args) or f(*args))
    # no other module holds an encoder of its own to call
    modules = [m for n, m in sys.modules.items() if n.startswith("relang") and n != "relang.values"]
    assert [n for m in modules for n in vars(m) if n.startswith("encode_")] == []
    found_by_key = Counter()
    for lookup in ("first", "run"):
        find = getattr(MultitableIndex, lookup)
        monkeypatch.setattr(MultitableIndex, lookup, lambda idx, key, find=find, lookup=lookup: found_by_key.update([lookup]) or find(idx, key))
    per_cell, lookups = [], []
    for relation, text in (("book", books), ("book_genre", links)):
        encoded.clear()
        found_by_key.clear()
        run(db, f"add {relation} ({text}) commit")
        per_cell.append(len(encoded) / (50 * db.catalog.lookup(relation).arity))
        lookups.append((found_by_key["first"], found_by_key["run"]))
    assert per_cell == [0, 0]
    # each reference a written tuple spells out is found by key once
    assert lookups == [(50, 0), (100, 0)]
    snapshot = shell.save_snapshot(db)
    assert shell.save_snapshot(shell.load_snapshot(snapshot)) == snapshot
    with pytest.raises(IntegrityError, match="update left two equal tuples"):
        run(db, 'update author (author "A01" .) (name "A00" birthdate "1900") commit')
    assert encoded == []


@pytest.mark.parametrize("verb", ["add", "remove"])
@pytest.mark.parametrize("braces", [2, 3])
def test_a_set_argument_is_evaluated_once(library, monkeypatch, verb, braces):
    # as many braces as book_genre has positions are first tried as one
    # tuple; read instead as the union they form, their members are not
    # evaluated again
    # the links added are new; those removed are stored
    pairs = [("Emma", "epic"), ("Ulysses", "bore"), ("The Selfish Gene", "epic")]
    if verb == "remove":
        pairs = [("Emma", "bore"), ("Ulysses", "epic"), ("The Selfish Gene", "sci-fi")]
    links = [f'{{(book . "{title}" .) (genre "{genre}")}}' for title, genre in pairs[:braces]]
    selections = []
    select = evaluator.eval_selection
    monkeypatch.setattr(
        evaluator, "eval_selection", lambda sel, env: selections.append(sel.target) or select(sel, env)
    )
    result = run(library, f"{verb} book_genre ({' '.join(links)})")
    assert len(selections) == 2 * braces
    assert len(result) == braces
