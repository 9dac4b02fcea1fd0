"""Operation classes, the three workloads, and the closed-loop client.

One client thread sends the next operation only after the previous one has
finished. Each operation's program calls are timed with ``perf_counter``;
building statement text and checking answers happen outside the timed
region. Every answer is compared with the plain-Python model from
``gen``; a mismatch or an unexpected error (a ``RelangError`` or a crash)
is recorded as a failure and the run goes on.
"""

from __future__ import annotations

import gc
import io
import random
import re
import resource
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from relang import shell, syntax
from relang.errors import IntegrityError
from relang.evaluator import TupleSet
from relang.txn import CommitReport, Database
from relang.values import RefVal, TextVal, TimestampVal

import gen

# A workload's main classes give it its character, its ``ops_per_s`` and
# its traced run; MAIN holds their operations per round. A timed run also
# takes a fixed number of probe operations of every other class, PROBES,
# so that each run reports every metric. The fixed count puts a probe
# class's median and tail at the same percentiles in every run; a class
# with a tail metric gets at least 40 probes, which puts its tail (the
# 11th-largest sample) at p75 or above, clear of the median. Probes take
# at most about a third of a run on a fast host, so that on a host twice
# as slow the main classes still get a quarter of it. Probes fall due at
# even intervals over the run, since the host's speed drifts and probes
# bunched together would sample only part of it.
MAIN: Dict[str, Dict[str, int]] = {
    "ingest": {"bulk": 30},
    "oltp_mix": {"point": 16, "navigate": 8, "write": 6},
    "report_scan": {"scan": 15, "snapshot": 3},
}
PROBES: Dict[str, Dict[str, int]] = {
    "ingest": {"point": 120, "navigate": 120, "write": 100, "scan": 90, "snapshot": 21},
    "oltp_mix": {"bulk": 40, "scan": 60, "snapshot": 12},
    "report_scan": {"point": 60, "navigate": 60, "write": 60, "bulk": 40},
}
WORKLOADS = tuple(MAIN)

# (authors, books, links per book) of the base data
SIZES = {
    "ingest": (300, 600, (1, 1)),
    "oltp_mix": (2000, 4000, (1, 3)),
    "report_scan": (2000, 4000, (1, 3)),
}
SETUP_REPEATS = 9  # snapshot-loading workloads set up this often per run

# Whole-relation queries, one per output format; the second asks for an
# order.
SCANS = (
    "output tabular [(book) [author name] title]",
    "output csv order birthdate (author)",
    'output sexpr (author :(name ~ "A0.*5"))',
)

# A class with several statement forms cycles through them, so every form
# keeps a fixed share of the samples; operation counts are multiples of
# the cycle lengths. Forms differ in cost, and a median is steady only in
# the dense middle of one form's samples, not at the boundary between two
# nor in one form's upper tail. Hence point and navigate have one form
# each, and scans three equal forms, which puts the median in the middle
# one and the tail in the costliest.
SCAN_CYCLE = (0, 1, 2)
# one write in twenty removes a still-referenced genre and must abort; it
# comes early so that a one-round traced run includes it
WRITE_CYCLE = ("add", "bad_remove") + ("update", "abolish", "add") * 6


# Host speed. On a shared virtual machine the same operation can take twice
# as long from one second to the next, as neighbours come and go, and
# every operation class in a run slows by the same factor; the median of a
# run follows whichever speed dominated it. So each timed operation (and
# each set-up) is bracketed by a fixed reference task, and its time is
# scaled by REF_MS over the mean of the two reference times: the reported
# figures are milliseconds on a host where the reference task takes
# REF_MS. The reference task is fixed interpreter work of the kind the
# program does (string, tuple and dict operations) and shares no code with
# it; the cyclic garbage collector is off while it runs, so the program's
# heap cannot enter its time.
REF_MS = 0.5


def _reference_task() -> int:
    d = {}
    for i in range(1500):
        k = str(i)
        d[k] = (i, k, i * 3 % 17)
    return len(sorted(d))


def reference_s() -> float:
    """Seconds one reference task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def plain(v, state):
    """A stored value of the library schema as plain Python, references
    dereferenced."""
    if isinstance(v, TextVal):
        return v.value
    if isinstance(v, TimestampVal):
        return (v.year, v.month, v.day)
    if isinstance(v, RefVal):
        return tuple(plain(x, state) for x in state.get_row(v.relation, v.row))
    raise TypeError(f"unexpected value {v!r}")


def plain_set(result, state) -> set:
    if not isinstance(result, TupleSet):
        raise AssertionError(f"expected a set of tuples, got {result!r}")
    return {tuple(plain(v, state) for v in t) for t in result.tuples()}


def row_counts(db: Database) -> Dict[str, int]:
    return {name: len(idx.rows) for name, idx in db.published.indexes.items()}


def tail(samples) -> Optional[tuple]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it: the 11th-largest sample, at percentile
    100 * (n - 10) / n. None with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


# --- scan output parsing ------------------------------------------------------------


def _sexpr_rows(text: str) -> List[str]:
    """Split ``({..} {..})`` into its top-level ``{..}`` rows."""
    if text == "()":
        return []
    rows, depth, start = [], 0, None
    for i, ch in enumerate(text[1:-1], 1):
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                rows.append(text[start : i + 1])
    return rows


def _expected_scan(stmt: str, model: gen.Model):
    """(header, data rows) the model predicts for one of ``SCANS``."""
    if stmt == SCANS[0]:
        rows = [(model.books[t][0], t) for t in model.books]
        return ["name", "title"], rows
    if stmt == SCANS[1]:
        return "name,birthdate", [f"{a},{gen.ts_canonical(d)}" for a, d in model.authors.items()]
    return None, [
        f'{{"{a}" (timestamp "{gen.ts_canonical(d)}")}}'
        for a, d in model.authors.items()
        if re.fullmatch("A0.*5", a)
    ]


def check_scan(stmt: str, text: str, model: gen.Model) -> Optional[str]:
    """Compare scan output with the model: data lines as a multiset, and
    order only where the statement asks for one."""
    header, want = _expected_scan(stmt, model)
    if stmt == SCANS[0]:
        lines = text.split("\n")
        got_header, data = lines[0].split(), [tuple(l.split()) for l in lines[2:]]
    elif stmt == SCANS[2]:
        got_header, data = None, _sexpr_rows(text)
    else:
        lines = text.split("\n")
        got_header, data = lines[0], lines[1:]
    if got_header != header:
        return f"header {got_header!r}, expected {header!r}"
    if sorted(data) != sorted(want):
        return f"{len(data)} rows differ from the {len(want)} expected"
    if stmt == SCANS[1]:
        # fixed-width canonical dates sort as text in date order
        dates = [line.split(",")[1] for line in data]
        if dates != sorted(dates):
            return "rows not in the requested birthdate order"
    return None


# --- the client ------------------------------------------------------------------------


@dataclass
class Results:
    """Times in seconds, scaled to the reference host speed (see REF_MS);
    ``raw`` holds the same samples unscaled."""

    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    raw: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    completed: Counter = field(default_factory=Counter)  # by class
    failures: List[str] = field(default_factory=list)

    @contextmanager
    def timed(self, kind: str, recorder=None):
        """Time the block as one sample of ``kind``, bracketed by reference
        tasks. The recorder, if any, is on only inside the block."""
        ref = reference_s()
        if recorder is not None:
            recorder.begin_op(kind)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if recorder is not None:
                recorder.end_op()
            ref = (ref + reference_s()) / 2
            self.samples[kind].append(dt * REF_MS / 1000.0 / ref)
            self.raw[kind].append(dt)


class Client:
    """Runs operations of every class against one database and checks
    each answer against ``model``.

    ``recorder`` is the trace recorder of a traced run, or None; it is
    switched on only inside the timed region of each operation.
    """

    def __init__(self, db: Database, model: gen.Model, rng: random.Random, results: Results, base, turns: Counter, recorder=None):
        self.db = db
        self.model = model
        self.rng = rng
        self.results = results
        self.base = base  # the Workload: base_authors, never written
        self.recorder = recorder
        self.next_x = 1
        self.live: List[str] = []  # benchmark-created authors still stored
        self.turns = turns  # position in each form cycle

    # -- harness

    def timed(self, cls: str):
        return self.results.timed(cls, self.recorder)

    def run(self, cls: str, op: Callable[[], Optional[str]], label: str) -> None:
        """Attempt one operation; record its failure, if any."""
        self.results.attempted += 1
        try:
            problem = op()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            problem = f"{type(exc).__name__}: {exc}"
        if problem is None:
            self.results.completed[cls] += 1
        else:
            self.results.failures.append(f"{cls} {label!r}: {problem}")

    def execute_text(self, text: str):
        """Run statement text through the parser and the engine; returns
        the last statement's result."""
        result = None
        for stmt, _line, _col in syntax.iter_statements(text):
            result = self.db.execute(stmt)
        return result

    # -- operation classes

    def _next(self, cycle):
        """The next form of a class's cycle."""
        turn = self.turns[cycle]
        self.turns[cycle] += 1
        return cycle[turn % len(cycle)]

    def point(self) -> None:
        """A selection bound on the leading scalar position."""
        name = self.rng.choice(self.base.base_authors)
        text, want = f'(author "{name}" .)', {self.model.author_row(name)}
        self.run("point", lambda: self._query("point", text, want), text)

    def navigate(self) -> None:
        """A connection whose source is a selection constrained through a
        reference position: the genres of one author's books."""
        # Answer sizes are skewed, so a tail would hang on how many of the
        # few prolific authors a run happens to draw. Authors are drawn in
        # order of book count along a Weyl sequence from a seeded start,
        # which spreads any number of draws evenly over the counts.
        k = self.turns["navigate"]
        self.turns["navigate"] += 1
        authors = self.base.by_books
        name = authors[int((self.base.navigate_start + k * 0.6180339887498949) % 1.0 * len(authors))]
        text = f'{{genre (book (author "{name}" .) . .)}}'
        self.run("navigate", lambda: self._query("navigate", text, self.model.genre_pairs(name)), text)

    def _query(self, cls: str, text: str, want: set) -> Optional[str]:
        with self.timed(cls):
            result = self.db.execute(syntax.parse_statement(text))
        got = plain_set(result, self.db.published)
        return None if got == want else f"{len(got)} tuples differ from the {len(want)} expected"

    def write(self) -> None:
        kind = self._next(WRITE_CYCLE)
        if kind != "bad_remove" and not self.live:
            kind = "add"
        getattr(self, f"_{kind}")()

    def _new_x(self):
        name, title = f"X{self.next_x:06d}", f"U{self.next_x:06d}"
        self.next_x += 1
        return name, title

    def _date(self):
        return (self.rng.randint(1900, 1999), self.rng.randint(1, 12), self.rng.randint(1, 28))

    def _commit_text(self, text: str, want: CommitReport, apply: Callable[[], None]) -> Optional[str]:
        with self.timed("write"):
            report = self.execute_text(text)
        if report != want:
            return f"commit reported {report}, expected {want}"
        apply()
        return None

    def _add(self) -> None:
        name, title = self._new_x()
        born, genre, year = self._date(), self.rng.choice(gen.GENRES), self.rng.randint(1950, 2020)
        text = (
            f'add author {{"{name}" "{gen.ts_literal(born)}"}}\n'
            f'add book {{(author "{name}" .) "{title}" "{year}"}}\n'
            f'add book_genre {{(book . "{title}" .) (genre "{genre}")}}\ncommit\n'
        )

        def apply():
            self.model.authors[name] = born
            self.model.books[title] = (name, year)
            self.model.links.add((title, genre))
            self.live.append(name)

        want = CommitReport(added={"author": 1, "book": 1, "book_genre": 1})
        self.run("write", lambda: self._commit_text(text, want, apply), text)

    def _update(self) -> None:
        name = self.rng.choice(self.live)
        born = self._date()
        while born == self.model.authors[name]:
            born = self._date()
        text = f'update author (author "{name}" .) (birthdate "{gen.ts_literal(born)}")\ncommit\n'

        def apply():
            self.model.authors[name] = born

        want = CommitReport(updated={"author": 1})
        self.run("write", lambda: self._commit_text(text, want, apply), text)

    def _abolish(self) -> None:
        name = self.live[self.rng.randrange(len(self.live))]
        titles = set(self.model.books_of(name))
        links = {(t, g) for t, g in self.model.links if t in titles}
        text = f'abolish author (author "{name}" .)\ncommit\n'
        removed = {"author": 1, "book": len(titles)}
        if links:
            removed["book_genre"] = len(links)

        def apply():
            del self.model.authors[name]
            for t in titles:
                del self.model.books[t]
            self.model.links -= links
            self.live.remove(name)

        self.run("write", lambda: self._commit_text(text, CommitReport(removed=removed), apply), text)

    def _bad_remove(self) -> None:
        genre = self.rng.choice(sorted({g for _t, g in self.model.links}))
        text = f'remove genre (genre "{genre}")\ncommit\n'

        def op():
            before = self.db.published
            try:
                with self.timed("write"):
                    self.execute_text(text)
            except IntegrityError:
                if self.db.published is not before:
                    return "aborted commit replaced the published state"
                return None
            return "removing a referenced genre committed"

        self.run("write", op, text)

    def bulk(self, text: Optional[str] = None, want: Optional[Dict[str, int]] = None) -> None:
        """One ``add`` of 50 tuples with nested selections, then commit.

        Without arguments: a new benchmark-created author, bound to a
        variable as scripts do, and 50 books that select it through the
        variable, so the operation scans the author relation only once.
        Afterwards, untimed, the author is abolished again, so that the
        database keeps its size over the run.
        """
        undo = None
        if text is None:
            name = self._new_x()[0]
            born = self._date()
            books = [(self._new_x()[1], self.rng.randint(1950, 2020)) for _ in range(gen.BULK_TUPLES)]
            body = " ".join(f'{{(Owner) "{t}" "{y}"}}' for t, y in books)
            text = f'Owner = add author {{"{name}" "{gen.ts_literal(born)}"}}\nadd book ({body})\ncommit\n'
            want = dict(self.model.row_counts(), author=len(self.model.authors) + 1)
            want["book"] += len(books)
            removed = CommitReport(removed={"author": 1, "book": len(books)})

            def undo():
                report = self.execute_text(f'abolish author (author "{name}" .)\ncommit\n')
                return None if report == removed else f"abolishing the new author reported {report}"

        def op():
            session = shell.Session(self.db, io.StringIO(), None)
            with self.timed("bulk"):
                for stmt, _line, _col in syntax.iter_statements(text):
                    session.execute(stmt)
            got = row_counts(self.db)
            if got != want:
                return f"row counts {got}, expected {want}"
            return None if undo is None else undo()

        self.run("bulk", op, text[:60])

    def scan(self) -> None:
        stmt = SCANS[self._next(SCAN_CYCLE)]

        def op():
            out = io.StringIO()
            session = shell.Session(self.db, out, None)
            with self.timed("scan"):
                session.execute(syntax.parse_statement(stmt))
            return check_scan(stmt, out.getvalue().rstrip("\n"), self.model)

        self.run("scan", op, stmt)

    def snapshot(self) -> None:
        """Save and load the whole database, timed separately. The saved
        text must equal the model's snapshot, and the loaded copy must save
        back to the same bytes."""

        def op():
            with self.timed("snapshot_save"):
                text = shell.save_snapshot(self.db)
            with self.timed("snapshot_load"):
                copy = shell.load_snapshot(text)
            if text != gen.snapshot_text(self.model):
                return "saved snapshot differs from the model"
            if shell.save_snapshot(copy) != text:
                return "loaded copy does not save back to the same bytes"
            return None

        self.run("snapshot", op, "save/load")


# --- workloads ---------------------------------------------------------------------------


def _empty_library() -> Database:
    db = Database()
    session = shell.Session(db, io.StringIO(), None)
    for stmt, _line, _col in syntax.iter_statements(gen.setup_script()):
        session.execute(stmt)
    return db


def _cumulative_counts(model: gen.Model) -> List[Dict[str, int]]:
    """Row counts after each of ``gen.bulk_scripts(model)``."""
    counts = {"author": 0, "book": 0, "genre": len(model.genres), "book_genre": 0}
    out = []
    for rel, total in (("author", len(model.authors)), ("book", len(model.books)), ("book_genre", len(model.links))):
        while counts[rel] < total:
            counts[rel] = min(total, counts[rel] + gen.BULK_TUPLES)
            out.append(dict(counts))
    return out


class Workload:
    """One workload's inputs, made from the seed, and its run loop.

    A round is the workload's main operations: in ``ingest``, setting up an
    empty library and loading the base data as bulk operations in script
    order; otherwise ``MAIN`` in a seeded order, against one database set
    up by loading the snapshot ``SETUP_REPEATS`` times and keeping the last
    copy.
    """

    def __init__(self, name: str, seed: int):
        if name not in MAIN:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        n_authors, n_books, links = SIZES[name]
        rng = random.Random(seed)
        self.model = gen.make_model(rng, n_authors, n_books, links)
        self.base_authors = sorted(self.model.authors)
        books = Counter(author for author, _year in self.model.books.values())
        self.by_books = sorted(self.base_authors, key=lambda a: (books[a], a))
        self.navigate_start = rng.random()
        if name == "ingest":
            self.bulk_texts = gen.bulk_scripts(self.model)
            self.bulk_counts = _cumulative_counts(self.model)
        else:
            self.snapshot = gen.snapshot_text(self.model)

    def _setup(self, results: Results) -> Database:
        with results.timed("setup"):
            db = _empty_library() if self.name == "ingest" else shell.load_snapshot(self.snapshot)
        return db

    def run(self, seconds: Optional[float] = None, rounds: Optional[int] = None, recorder=None) -> Results:
        """Run exactly ``rounds`` rounds of main operations, or else rounds
        until ``seconds`` have passed since set-up and every probe has run."""
        results = Results()
        rng = random.Random(self.seed * 7919 + 1)
        turns: Counter = Counter()  # form cycles run on across every client of the run
        client = None
        if self.name != "ingest":
            for _ in range(SETUP_REPEATS):
                db = self._setup(results)
            client = Client(db, self.model.copy(), rng, results, self, turns, recorder)
        probes: List[tuple] = []  # (due time, class), latest first
        if rounds is None:
            start = time.perf_counter()
            deadline = start + seconds
            for cls, n in PROBES[self.name].items():
                probes += [(start + (k + 0.5) * seconds / n, cls) for k in range(n)]
            probes.sort(reverse=True)
        # probes need the whole base data; in ingest that is the library
        # the latest finished round loaded
        loaded = client

        def run_due_probes():
            now = time.perf_counter()
            while loaded is not None and probes and probes[-1][0] <= now:
                getattr(loaded, probes.pop()[1])()

        done = 0
        while rounds is None or done < rounds:
            if self.name == "ingest":
                client = Client(self._setup(results), self.model.copy(), rng, results, self, turns, recorder)
                ops = [partial(client.bulk, t, c) for t, c in zip(self.bulk_texts, self.bulk_counts)]
            else:
                ops = [getattr(client, cls) for cls, n in MAIN[self.name].items() for _ in range(n)]
                rng.shuffle(ops)
            for op in ops:
                op()
                run_due_probes()
            loaded = client
            run_due_probes()
            done += 1
            if rounds is None and time.perf_counter() >= deadline and not probes:
                break
        return results


def end_to_end(results: Results, workload: str, wall_s: float) -> Dict[str, tuple]:
    """Every end-to-end metric as name -> (value, unit, note). Times are
    scaled to the reference host speed; each note gives the same statistic
    of the unscaled samples."""
    s, raw = results.samples, results.raw
    v, r = s["setup"], raw["setup"]
    out = {"setup_s": (statistics.median(v), "s", f"median of {len(v)} set-ups; {statistics.median(r):.4f} unscaled")}
    main = list(MAIN[workload])
    completed = sum(results.completed[c] for c in main)
    # a snapshot operation's time is its save plus its load
    timed, timed_raw = (sum(sum(x) for k, x in d.items() if k.partition("_")[0] in main) for d in (s, raw))
    out["ops_per_s"] = (
        completed / timed, "1/s",
        f"{' '.join(main)}: {completed} completed in {timed:.3f} s of operation time"
        f" ({timed_raw:.3f} s unscaled); {wall_s:.1f} s wall")
    for cls in ("point", "navigate", "write", "bulk", "scan"):
        v, r = s[cls], raw[cls]
        out[f"{cls}_p50_ms"] = (1000.0 * statistics.median(v), "ms", f"n={len(v)}; {1000.0 * statistics.median(r):.3f} unscaled")
        t, tr = tail(v), tail(r)
        if t is None:  # fewer than 11 samples: the maximum stands in
            t, tr = (max(v), 100.0), (max(r), 100.0)
        out[f"{cls}_tail_ms"] = (1000.0 * t[0], "ms", f"p{t[1]:.1f}, n={len(v)}; {1000.0 * tr[0]:.3f} unscaled")
    for part in ("save", "load"):
        v, r = s[f"snapshot_{part}"], raw[f"snapshot_{part}"]
        out[f"snapshot_{part}_ms"] = (
            1000.0 * statistics.median(v), "ms", f"median, n={len(v)}; {1000.0 * statistics.median(r):.3f} unscaled")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (rss_kb / 1024.0, "MB", "ru_maxrss of this process")
    return out
