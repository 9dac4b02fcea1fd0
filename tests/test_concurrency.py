"""Published states are immutable values: readers holding one must see a
stable snapshot no matter what the writer publishes next."""

import sys
import threading

from relang import parse_expression
from relang.evaluator import Env, eval_expr

from conftest import LIBRARY_SCRIPT, build_db, run
from oracles import index_faults


def test_readers_see_a_stable_snapshot_while_the_writer_commits():
    db = build_db(LIBRARY_SCRIPT)
    snapshot_state = db.published
    snapshot_catalog = db.catalog
    indexes = {name: (idx, idx.valued) for name, idx in snapshot_state.indexes.items()}
    query = parse_expression('{genre (author "Dawkins" ?)}')
    scan = parse_expression("(genre)")
    # non-leading scalar positions: the titles have a value map (the
    # library's links selected books by title), the birthdates have none
    by_title = parse_expression('(book . "Emma" .)')
    by_birth = parse_expression('(author . "1775-12-16")')
    errors = []
    results = []

    def reader():
        env = Env(snapshot_catalog, snapshot_state, {})
        try:
            for _ in range(200):
                pairs = eval_expr(query, env)
                genres = eval_expr(scan, env)
                books = eval_expr(by_title, env)
                authors = eval_expr(by_birth, env)
                results.append((len(pairs), len(genres), len(books), len(authors)))
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(6)]
    for t in threads:
        t.start()
    # the single writer publishes new states while readers run; it selects
    # by title and by birthdate too, so its states build the birthdate map
    for i in range(30):
        run(
            db,
            f'add genre {{"extra{i}"}}\n(author . "1775-12-16")\n'
            f'add book_genre {{(book . "Emma" .) (genre "extra{i}")}}\ncommit',
        )
    for t in threads:
        t.join()

    assert errors == []
    assert set(results) == {(1, 3, 1, 1)}  # every read saw the captured snapshot
    # the captured state holds the same indexes as before, with no map
    # added: a published state is never written
    assert {name: (idx, idx.valued) for name, idx in snapshot_state.indexes.items()} == indexes
    assert 1 not in snapshot_state.indexes["author"].valued
    # the writer's own view moved on, with the map it built
    assert len(db.published.scan("genre")) == 33
    assert len(db.published.scan("book_genre")) == 33
    assert 1 in db.published.indexes["author"].valued


def test_evaluation_is_safe_to_run_concurrently_on_one_state():
    db = build_db(LIBRARY_SCRIPT)
    env = db.env()
    exprs = [
        parse_expression(text)
        for text in [
            "(author :(name ~ \"A.*\"))",
            "[(book) author title]",
            "{genre (author)}",
            "{(author) \"x\"}",
        ]
    ]
    # the transaction's state builds the birthdate map on first use
    by_birth = parse_expression('(author . "1775-12-16")')
    errors = []
    sizes = set()

    def worker():
        try:
            for _ in range(100):
                sizes.add(len(eval_expr(by_birth, env)))
                for e in exprs:
                    eval_expr(e, env)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the map build too
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sizes == {1}
    assert env.state.indexes["author"].valued == (1,)
    assert index_faults(env.state) == []


def test_a_definition_publishes_a_new_state():
    db = build_db(LIBRARY_SCRIPT)
    old_state = db.published
    old_catalog = old_state.catalog
    run(db, "relation (shelf text)")
    assert db.published is not old_state
    assert old_state.catalog is old_catalog
    assert "shelf" not in old_state.catalog
    assert "shelf" not in old_state.indexes
    assert "shelf" in db.published.indexes
    env = Env(old_state.catalog, old_state, {})
    assert len(eval_expr(parse_expression("(genre)"), env)) == 3
