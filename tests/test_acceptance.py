"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines).
"""

import random

import pytest

import relang
from relang import parse_script
from relang.errors import AmbiguousPath, IntegrityError, NoConnection
from relang.evaluator import connect, relation_schema
from relang.shell import load_snapshot, save_snapshot
from relang.values import TextVal, encode_tuple

from conftest import LIBRARY_DDL, LIBRARY_DATA, build_db, fingerprint, q, rows, run
from corpus import CORPUS
from oracles import (
    all_shortest_edge_paths,
    brute_force_connection,
    connectable_pair,
    contains_tuple,
    dangling_refs,
    random_tree_db,
    tuple_set,
)

HOMER_ULYSSES_TXN = """
add author {"Homer" "800 BC"}
add book {(author "Homer") "Ulysses" "750 BC"}
commit
"""


def ok(n, message):
    print(f"CRITERION {n} PASS - {message}")


def test_criterion_1_paper_script_scenario():
    db = build_db(LIBRARY_DDL)
    for stmt in parse_script(HOMER_ULYSSES_TXN):
        db.execute(stmt)
    for stmt in parse_script(LIBRARY_DATA):
        db.execute(stmt)
    assert dangling_refs(db.published) == []

    result = q(db, '{genre (author "Dawkins" ?)}')
    assert len(result) == 1
    (pair,) = result.tuples()
    assert pair[0] == TextVal("sci-fi")

    # the brute-force join oracle agrees exactly
    source = q(db, '(author "Dawkins" .)')
    expected = brute_force_connection(db, "genre", source.tuples(), "author")
    assert set(result.members()) == expected
    ok(1, "library scenario runs end to end; Dawkins connects to sci-fi only")


def test_criterion_2_join_elimination_oracle():
    rng = random.Random(20240809)
    pick = random.Random(20240810)  # draws the source subsets
    agreements = 0
    for _ in range(100):
        db, names = random_tree_db(rng)
        target, source_rel = connectable_pair(db, names, rng)
        paths = all_shortest_edge_paths(db.catalog, target, source_rel)
        assert len(paths) == 1  # trees have unique shortest paths
        whole = list(db.txn.shadow.scan(source_rel).values())
        # the whole relation, the empty set, and a random proper subset
        sources = [whole, []]
        if len(whole) > 1:
            sources.append(pick.sample(whole, pick.randrange(1, len(whole))))
        for source_tuples in sources:
            source = tuple_set(
                relation_schema(db.catalog.lookup(source_rel)),
                source_tuples,
                relation=source_rel,
            )
            engine = set(connect(target, source, db.env()).members())
            oracle = brute_force_connection(db, target, source_tuples, source_rel)
            assert engine == oracle
        agreements += 1
    assert agreements == 100
    ok(
        2,
        "connection equals the brute-force join oracle on 100/100 random schemas,"
        " from whole, empty and partial sources",
    )


def test_criterion_3_constructor_semantics():
    db = build_db("function (avg2 (a real) (b real)) (/ (+ a b) 2)")
    assert rows(q(db, "{(1 2) 3}"), db.published) == {(1, 3), (2, 3)}
    assert rows(q(db, "(avg2 (1 2 3) 3)"), db.published) == {(2.0,), (2.5,), (3.0,)}
    ok(3, "products range over set members; functions map over argument sets")


def test_criterion_4_deferred_integrity():
    db = build_db(LIBRARY_DDL)
    before = fingerprint(db)
    # the add itself must not raise
    run(db, 'add book {(author "Homer") "Ulysses" "750 BC"}')
    with pytest.raises(IntegrityError):
        run(db, "commit")
    assert fingerprint(db) == before  # published state untouched

    db2 = build_db(LIBRARY_DDL)
    for stmt in parse_script(HOMER_ULYSSES_TXN):
        db2.execute(stmt)
    assert len(q(db2, "(book)")) == 1
    ok(4, "the authorless add fails at commit, not earlier; with the author it commits")


def test_criterion_5_set_semantics():
    from relang.catalog import Catalog
    from relang.store import DbState
    from relang.syntax import parse_statement

    catalog = Catalog().define(parse_statement("relation (genre text)"))
    rng = random.Random(5)
    idempotent_trials = 0
    for _ in range(1000):
        state = DbState(catalog)
        state.add_relation(catalog.lookup("genre"))
        for _ in range(rng.randint(1, 12)):
            value = TextVal(f"g{rng.randint(0, 6)}")
            if rng.random() < 0.6:
                state.insert("genre", (value,))
            else:
                rid = contains_tuple(state, "genre", (value,))
                if rid is not None:
                    state.erase("genre", rid)
        keys = [encode_tuple(t) for t in state.scan("genre").values()]
        assert len(keys) == len(set(keys))
        # idempotence: re-inserting an existing tuple is a no-op
        probe = TextVal("probe")
        rid1, fresh1 = state.insert("genre", (probe,))
        rid2, fresh2 = state.insert("genre", (probe,))
        assert fresh1 is True and fresh2 is False and rid1 == rid2
        idempotent_trials += 1
    assert idempotent_trials == 1000
    ok(5, "1000/1000 random insert/erase runs kept keys unique and inserts idempotent")


def test_criterion_6_cascade_correctness():
    targets = [
        'abolish author (author "Homer" .)',
        'abolish author (author)',
        'abolish book (book . "Emma" .)',
        'abolish genre (genre "sci-fi")',
        'abolish department (department "main")',
    ]
    for command in targets:
        db = build_db(LIBRARY_DDL + LIBRARY_DATA)
        run(db, command + " commit")
        assert dangling_refs(db.published) == [], command

    # a non-cascade removal of a referenced row aborts ...
    db = build_db(LIBRARY_DDL + LIBRARY_DATA)
    run(db, 'remove genre (genre "bore")')
    with pytest.raises(IntegrityError):
        run(db, "commit")
    # ... unless the referrer is also removed in-plan
    db = build_db(LIBRARY_DDL + LIBRARY_DATA)
    run(
        db,
        'remove genre (genre "bore")'
        ' remove book_genre (book_genre (book . "Emma" .) .)'
        " commit",
    )
    assert dangling_refs(db.published) == []
    ok(6, "every abolish leaves zero dangling refs; bare removals defer correctly")


def test_criterion_7_parser_round_trip():
    assert len(CORPUS) >= 30
    for snippet in CORPUS:
        first = parse_script(snippet)
        rendered = "\n".join(relang.render(s) for s in first)
        assert parse_script(rendered) == first, snippet
    ok(7, f"all {len(CORPUS)} corpus scripts parse, render, and re-parse equal")


def test_criterion_8_snapshot_round_trip():
    db = build_db(LIBRARY_DDL + LIBRARY_DATA)
    s1 = save_snapshot(db)
    assert save_snapshot(load_snapshot(s1)) == s1
    assert save_snapshot(db) == s1  # byte-deterministic

    rng = random.Random(808)
    for _ in range(50):
        rdb, _names = random_tree_db(rng)
        text = save_snapshot(rdb)
        loaded = load_snapshot(text)
        assert save_snapshot(loaded) == text
        assert dangling_refs(loaded.published) == []
        for name in rdb.catalog.names():
            if rdb.catalog.lookup(name).klass != "simple":
                continue
            assert rows(q(loaded, f"({name})"), loaded.published) == rows(
                q(rdb, f"({name})"), rdb.published
            )
    ok(8, "snapshots round-trip for the fixture and 50 random databases")


def test_criterion_9_ambiguity_and_absence_errors():
    db = build_db(
        "relation (a text)"
        " relation (b text)"
        " relation (r1 a b)"
        " relation (r2 a b)"
        " relation (lonely text)"
    )
    with pytest.raises(AmbiguousPath) as exc:
        q(db, "{a (b)}")
    assert len(exc.value.paths) == 2
    assert any("r1" in p for p in exc.value.paths)
    assert any("r2" in p for p in exc.value.paths)
    with pytest.raises(NoConnection):
        q(db, "{lonely (a)}")
    ok(9, "equal-length paths raise AmbiguousPath naming both; no path raises NoConnection")
