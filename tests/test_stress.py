"""Randomized whole-engine workloads: every commit must leave a consistent
published state, failed commits must change nothing, and replaying a script
must reproduce the state byte for byte."""

import random

import pytest

import relang
from relang.errors import IntegrityError, RelangError

from conftest import LIBRARY_DDL, build_db, fingerprint, run
from oracles import collision_keys, commit_must_abort, dangling_refs, reference_report

AUTHORS = ["Ada", "Byron", "Curie", "Darwin", "Erdos"]
TITLES = ["Alpha", "Beta", "Gamma", "Delta"]
GENRES = ["g1", "g2", "g3"]


class Added:
    """The rows a random workload has added, by the values it names them
    with, as far as the workload itself can tell: a rollback takes back the
    rows added since the last commit, and every commit is taken to succeed."""

    def __init__(self):
        self.authors, self.books, self.genres = [], [], []  # books: (title, author)
        self.since_commit = []

    def add(self, pool, item):
        pool.append(item)
        self.since_commit.append((pool, item))

    def end_transaction(self, text):
        if text == "rollback":
            for pool, item in self.since_commit:
                if item in pool:
                    pool.remove(item)
        self.since_commit = []


STATEMENT_KINDS = [
    (0.25, "add author"),
    (0.45, "add book"),
    (0.55, "add genre"),
    (0.62, "add book_genre"),
    (0.72, "remove book"),
    (0.78, "remove genre"),
    (0.86, "abolish author"),
    (0.92, "update author"),
    (0.96, "commit"),
    (1.0, "rollback"),
]
# the added rows a kind of statement names, and the statement adding one
NEEDS = {
    "add book": [("authors", "add author")],
    "add book_genre": [("books", "add book"), ("genres", "add genre")],
    "remove book": [("books", "add book")],
    "remove genre": [("genres", "add genre")],
    "abolish author": [("authors", "add author")],
    "update author": [("authors", "add author")],
}


def random_statement(rng, added):
    """A random statement. A reference names a row the workload has added,
    so that most references match and most commits write; with no such
    row to name, the statement adds one instead."""
    roll = rng.random()
    kind = next(k for bound, k in STATEMENT_KINDS if roll < bound)
    while any(not getattr(added, pool) for pool, _add in NEEDS.get(kind, ())):
        kind = next(add for pool, add in NEEDS[kind] if not getattr(added, pool))
    year = 1800 + rng.randint(0, 99)
    if kind == "add author":
        author = rng.choice(AUTHORS)
        added.add(added.authors, author)
        return f'add author {{"{author}" "{year}"}}'
    if kind == "add book":
        author, title = rng.choice(added.authors), rng.choice(TITLES)
        added.add(added.books, (title, author))
        return f'add book {{(author "{author}" .) "{title}" "{year}"}}'
    if kind == "add genre":
        genre = rng.choice(GENRES)
        added.add(added.genres, genre)
        return f'add genre {{"{genre}"}}'
    if kind == "add book_genre":
        title, genre = rng.choice(added.books)[0], rng.choice(added.genres)
        return f'add book_genre {{(book . "{title}" .) (genre "{genre}")}}'
    if kind == "remove book":
        title = rng.choice(added.books)[0]
        added.books[:] = [b for b in added.books if b[0] != title]
        return f'remove book (book . "{title}" .)'
    if kind == "remove genre":
        genre = rng.choice(added.genres)
        added.genres[:] = [g for g in added.genres if g != genre]
        return f'remove genre (genre "{genre}")'
    if kind == "abolish author":
        author = rng.choice(added.authors)
        added.authors[:] = [a for a in added.authors if a != author]
        added.books[:] = [b for b in added.books if b[1] != author]
        return f'abolish author (author "{author}" .)'
    if kind == "update author":
        return f'update author (author "{rng.choice(added.authors)}" .) (birthdate "{year}")'
    added.end_transaction(kind)
    return kind


def random_workload(rng, count):
    added = Added()
    return [random_statement(rng, added) for _ in range(count)]


def deferred_statement(rng):
    """A random statement whose references are spelled out by value, so they
    resolve only at commit, over small value pools so that removals strand
    referrers and updates collide."""
    roll = rng.random()
    author = f'{{"{rng.choice(AUTHORS[:2])}" "180{rng.randint(0, 1)}"}}'
    book = f'{{{author} "{rng.choice(TITLES[:2])}" "1900"}}'
    genre = rng.choice(GENRES[:2])
    if roll < 0.25:
        return f"add author {author}"
    if roll < 0.4:
        return f"add book {book}"
    if roll < 0.48:
        return f'add genre {{"{genre}"}}'
    if roll < 0.56:
        return f'add book_genre {{{book} {{"{genre}"}}}}'
    if roll < 0.63:
        return f"remove book ({book})"
    if roll < 0.68:
        return f'remove genre (genre "{genre}")'
    if roll < 0.73:
        return f"remove author ({author})"
    if roll < 0.78:
        return f"abolish author ({author})"
    if roll < 0.84:
        return f'update author ({author}) (birthdate "180{rng.randint(0, 1)}")'
    if roll < 0.88:
        return f'update genre (genre "{genre}") (text "{rng.choice(GENRES[:2])}")'
    if roll < 0.97:
        return "commit"
    return "rollback"


def drive(db, statements):
    """Run statements the way the shell would, tolerating integrity failures;
    returns the count of successful commits.

    Before each commit, the whole-state checks decide whether it must abort,
    and a successful commit's report must equal the whole-database diff."""
    commits = 0
    for text in statements:
        before = fingerprint(db)
        if text == "commit":
            must_abort = commit_must_abort(db.txn)
            base, shadow = db.txn.base, db.txn.shadow
        try:
            result = run(db, text)
        except IntegrityError:
            assert text == "commit" and must_abort
            assert fingerprint(db) == before  # failed commit publishes nothing
            continue
        except RelangError:
            continue  # statement-level rejection; the transaction goes on
        if text == "commit":
            assert not must_abort
            assert result == reference_report(base, shadow)
            commits += 1
            assert dangling_refs(db.published) == []
            assert collision_keys(db.published) == []
    return commits


@pytest.mark.parametrize("seed", range(12))
def test_random_workloads_stay_consistent(seed):
    rng = random.Random(seed)
    statements = random_workload(rng, 80) + ["commit"]
    db = build_db(LIBRARY_DDL)
    commits = drive(db, statements)
    assert dangling_refs(db.published) == []
    # replaying the identical script reproduces the state exactly
    replay = build_db(LIBRARY_DDL)
    drive(replay, statements)
    assert fingerprint(replay) == fingerprint(db)


@pytest.mark.parametrize("seed", range(12))
def test_commit_decisions_match_the_whole_state_checks(seed):
    rng = random.Random(1000 + seed)
    statements = [deferred_statement(rng) for _ in range(120)] + ["commit"]
    db = build_db(LIBRARY_DDL)
    drive(db, statements)
    assert dangling_refs(db.published) == []


@pytest.mark.parametrize("seed", [3, 17])
def test_snapshot_round_trip_after_random_workload(seed):
    rng = random.Random(seed)
    statements = random_workload(rng, 60) + ["commit"]
    db = build_db(LIBRARY_DDL)
    drive(db, statements)
    text = relang.save_snapshot(db)
    loaded = relang.load_snapshot(text)
    assert relang.save_snapshot(loaded) == text


def test_awkward_text_values_survive_everything():
    db = build_db("relation (note text)")
    weird = ['with "quotes"', "back\\slash", "new\nline", "tab\there", "nul\x00byte"]
    for s in weird:
        escaped = s.replace("\\", "\\\\").replace('"', '\\"')
        run(db, f'add note {{"{escaped}"}}')
    run(db, "commit")
    stored = {t[0].value for t in db.published.scan("note").values()}
    assert stored == set(weird)
    text = relang.save_snapshot(db)
    loaded = relang.load_snapshot(text)
    assert {t[0].value for t in loaded.published.scan("note").values()} == set(weird)
    assert relang.save_snapshot(loaded) == text


def test_connection_through_a_domain_class_node_is_empty():
    db = build_db(
        "domain (pos real real)"
        " relation (a (at pos) (name text))"
        " relation (b (at pos) (name text))"
        ' add a {(pos 1 2) "x"}'
        ' add b {(pos 1 2) "y"}'
        " commit"
    )
    from conftest import q

    result = q(db, "{a (b)}")  # the only path runs through the pos domain
    assert len(result) == 0
