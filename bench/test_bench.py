"""Self-tests of the benchmark: PYTHONPATH=src python -m pytest bench -q"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
from relang import syntax  # noqa: E402
from relang.shell import load_snapshot, save_snapshot  # noqa: E402

SMALL = (60, 120, (1, 3))


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(ops, "SIZES", {name: SMALL for name in ops.WORKLOADS})


def test_generated_snapshot_loads_and_is_a_save_load_fixed_point():
    model = gen.make_model(random.Random(5), *SMALL)
    text = gen.snapshot_text(model)
    db = load_snapshot(text)
    assert save_snapshot(db) == text
    assert save_snapshot(load_snapshot(save_snapshot(db))) == text
    assert ops.row_counts(db) == model.row_counts()


def test_bulk_scripts_load_the_same_data_as_the_snapshot():
    model = gen.make_model(random.Random(6), *SMALL)
    db = ops._empty_library()
    for text in gen.bulk_scripts(model):
        for stmt, _line, _col in syntax.iter_statements(text):
            db.execute(stmt)
    assert save_snapshot(db) == gen.snapshot_text(model)


def _base_rows(db):
    """Plain author, book and link rows that belong to the base data."""
    def rows(text):
        return ops.plain_set(db.execute(syntax.parse_statement(text)), db.published)

    authors = {r for r in rows("(author)") if r[0].startswith("A")}
    books = {r for r in rows("(book)") if r[1].startswith("T")}
    links = {r for r in rows("[(book_genre) [book title] [genre text]]") if r[0].startswith("T")}
    return authors, books, links


def test_writes_touch_only_benchmark_created_rows(small_sizes):
    workload = ops.Workload("oltp_mix", 7)
    db = load_snapshot(workload.snapshot)
    before = _base_rows(db)
    results = ops.Results()
    client = ops.Client(db, workload.model.copy(), random.Random(8), results, workload, Counter())
    for i in range(80):
        client.bulk() if i % 20 == 0 else client.write()
    assert results.failures == []
    assert client.live, "the writes should leave some benchmark-created authors"
    assert _base_rows(db) == before
    created = set(client.model.authors) - set(workload.model.authors)
    assert created and all(name.startswith("X") for name in created)
    assert save_snapshot(db) == gen.snapshot_text(client.model)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    samples = list(range(100, 0, -1))
    assert ops.tail(samples) == (90, 90.0)
    assert ops.tail(range(11)) == (0, 100.0 / 11)
    assert ops.tail(range(10)) is None
    value, pct = ops.tail([5.0] * 30 + [9.0] * 10)
    assert (value, pct) == (5.0, 75.0)


def test_times_are_scaled_by_the_reference_task(monkeypatch):
    monkeypatch.setattr(ops, "reference_s", lambda: 0.002)
    results = ops.Results()
    with results.timed("point"):
        pass
    (raw,) = results.raw["point"]
    assert results.samples["point"] == [raw * ops.REF_MS / 1000.0 / 0.002]


def _traced_counts(name):
    workload = ops.Workload(name, 11)
    with spans.tracing() as rec:
        results = workload.run(rounds=1, recorder=rec)
    _self_s, calls, by_name = rec.layer_totals()
    return results.attempted, results.failures, dict(rec.counts), dict(rec.errors), dict(calls), dict(by_name)


@pytest.mark.parametrize("name", ops.WORKLOADS)
def test_traced_runs_with_one_seed_count_the_same(small_sizes, name):
    first = _traced_counts(name)
    assert first[1] == []
    assert first[2]["store.rows_scanned"] > 0
    assert _traced_counts(name) == first


def test_traced_snapshot_records_shell_spans_and_bytes(small_sizes):
    workload = ops.Workload("report_scan", 11)
    db = load_snapshot(workload.snapshot)
    results = ops.Results()
    with spans.tracing() as rec:
        client = ops.Client(db, workload.model.copy(), random.Random(1), results, workload, Counter(), rec)
        client.snapshot()
    assert results.failures == []
    _self_s, calls, by_name = rec.layer_totals()
    assert by_name["shell.save_snapshot"] == 1
    assert by_name["shell.load_snapshot"] == 1
    assert calls["shell"] == 2
    assert rec.counts["shell.bytes_out"] == len(workload.snapshot)


def _bindings():
    """Every binding of every entry point, in its owner and in each relang
    module that imported it by name."""
    found = {}
    modules = [m for n, m in sys.modules.items() if n == "relang" or n.startswith("relang.")]
    for _layer, owner, attr in spans.entry_points():
        found[(owner, attr)] = vars(owner)[attr]
        for mod in modules:
            if attr in vars(mod) and mod is not owner:
                found[(mod, attr)] = vars(mod)[attr]
    return found


def test_untraced_run_leaves_entry_points_unpatched(small_sizes):
    before = _bindings()
    for name in ops.WORKLOADS:
        ops.Workload(name, 3).run(rounds=1)
    assert _bindings() == before
    with spans.tracing() as rec:
        assert _bindings() != before
        ops.Workload("oltp_mix", 3).run(rounds=1, recorder=rec)
    assert _bindings() == before
