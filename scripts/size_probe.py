"""How each operation's cost grows with the database: an in-process probe.

    python3 scripts/size_probe.py [--sizes 500 2000 8000] [--repeat 5] [--seed 1]

For each size it builds the benchmark's library (``bench/gen.py``: that
many authors, twice as many books, one to three genres a book), loads it
from its snapshot text, and times each operation below as the best of
``--repeat`` samples, a sample being as many back-to-back calls as fill
about 5 ms. It prints one row per operation: its time at each size, then
each size's time over the previous size's (``t(4n)/t(n)`` for the default
sizes). Figures are unscaled wall times on this host, with the cyclic
collector on; read them for shape. The probe imports ``gen`` and ``ops``
from ``bench/`` and writes nothing there.

Operations, each on the state the shell reads:

- point: evaluating ``(author "A…" .)``;
- navigate: evaluating ``{genre (book (author "A…" .) . .)}`` for the
  author whose answer has nearest three rows, and formatting that answer
  as ``sexpr``;
- ``_rising``: the formatter's judgement of ``author``, on the published
  (sealed) state, and with a fresh memo, as it is made for each output
  of a transaction that has written;
- ``{genre (book)}`` and the projection ``[(book) [author name] title]``,
  evaluation only;
- each of ``ops.SCANS``, evaluated and formatted as the benchmark runs it;
- ``load_snapshot`` and ``save_snapshot``.
"""

from __future__ import annotations

import argparse
import gc
import io
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
import ops  # noqa: E402
from relang import shell, syntax  # noqa: E402

SAMPLE_S = 0.005


def best_of(fn, repeat: int) -> float:
    """The least mean time of one call over ``repeat`` samples."""
    gc.collect()
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    number = max(1, int(SAMPLE_S / first)) if first > 0 else 1000
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def _navigated(model: gen.Model) -> str:
    """The author whose navigate answer has nearest three rows."""
    return min(model.authors, key=lambda a: (abs(len(model.genre_pairs(a)) - 3), a))


def probe(n: int, seed: int, repeat: int):
    """The library's row count and navigate answer size, and (operation,
    seconds) for each operation, for the library of ``n`` authors."""
    model = gen.make_model(random.Random(seed), n, 2 * n, (1, 3))
    text = gen.snapshot_text(model)
    db = shell.load_snapshot(text)
    point = syntax.parse_statement(f'(author "{sorted(model.authors)[n // 2]}" .)')
    navigate = syntax.parse_statement(f'{{genre (book (author "{_navigated(model)}" .) . .)}}')
    answer = db.execute(navigate)
    reading = db.reading()

    def scan(stmt):
        parsed = syntax.parse_statement(stmt)
        return lambda: shell.Session(db, io.StringIO(), None).execute(parsed)

    timed = [
        ('point (author "A…" .), evaluation', lambda: db.execute(point)),
        ("navigate, evaluation", lambda: db.execute(navigate)),
        ("navigate, sexpr formatting", lambda: shell.format_result(answer, "sexpr", reading)),
        ('_rising(published, "author")', lambda: shell._rising(db.published, "author", db.published.rising)),
        ('_rising(shadow, "author", {})', lambda: shell._rising(db.txn.shadow, "author", {})),
        ("{genre (book)}", lambda: db.execute(syntax.parse_statement("{genre (book)}"))),
        ("[(book) [author name] title]", lambda: db.execute(syntax.parse_statement("[(book) [author name] title]"))),
        *[(stmt.removeprefix("output "), scan(stmt)) for stmt in ops.SCANS],
        ("load_snapshot", lambda: shell.load_snapshot(text)),
        ("save_snapshot", lambda: shell.save_snapshot(db)),
    ]
    rows = sum(len(idx.rows) for idx in db.published.indexes.values())
    return (rows, len(answer)), [(name, best_of(fn, repeat)) for name, fn in timed]


def _time(s: float) -> str:
    return f"{s * 1e6:.1f} µs" if s < 1e-3 else f"{s * 1e3:.2f} ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[500, 2000, 8000], help="authors, one library each")
    parser.add_argument("--repeat", type=int, default=5, help="samples per operation; the best is kept")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    shapes, results = zip(*[probe(n, args.seed, args.repeat) for n in args.sizes])
    for n, (rows, answer) in zip(args.sizes, shapes):
        print(f"{n} authors: {rows} rows; the navigate answer has {answer} rows")
    names = [name for name, _t in results[0]]
    width = max(map(len, names))
    print(f"{'operation':{width}}  " + "  ".join(f"{n:>10}" for n in args.sizes) + "  ratio to the previous size")
    for i, name in enumerate(names):
        times = [r[i][1] for r in results]
        ratios = ", ".join(f"{b / a:.2f}" for a, b in zip(times, times[1:]))
        print(f"{name:{width}}  " + "  ".join(f"{_time(t):>10}" for t in times) + f"  {ratios}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
