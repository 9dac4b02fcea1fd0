"""Published states are immutable values: readers holding one must see a
stable snapshot no matter what the writer publishes next."""

import threading

from relang import parse_expression
from relang.evaluator import Env, eval_expr

from conftest import LIBRARY_SCRIPT, build_db, run


def test_readers_see_a_stable_snapshot_while_the_writer_commits():
    db = build_db(LIBRARY_SCRIPT)
    snapshot_state = db.published
    snapshot_catalog = db.catalog
    query = parse_expression('{genre (author "Dawkins" ?)}')
    scan = parse_expression("(genre)")
    errors = []
    results = []

    def reader():
        env = Env(snapshot_catalog, snapshot_state, {})
        try:
            for _ in range(200):
                pairs = eval_expr(query, env)
                genres = eval_expr(scan, env)
                results.append((len(pairs), len(genres)))
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(6)]
    for t in threads:
        t.start()
    # the single writer publishes new states while readers run
    for i in range(30):
        run(db, f'add genre {{"extra{i}"}} commit')
    for t in threads:
        t.join()

    assert errors == []
    assert set(results) == {(1, 3)}  # every read saw the captured snapshot
    # the writer's own view moved on
    assert len(db.published.scan("genre")) == 33


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
    errors = []

    def worker():
        try:
            for _ in range(100):
                for e in exprs:
                    eval_expr(e, env)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


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
