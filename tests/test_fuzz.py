"""Fuzzing: every input either works or raises a RelangError.

Snapshots are fuzzed by mutating a valid one; scripts by joining tokens of
the language at random. A crash, a RecursionError or a hang fails the test.
"""

import io
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from relang import load_snapshot, parse_script, save_snapshot
from relang.errors import RelangError
from relang.shell import Session

from conftest import LIBRARY_SCRIPT, build_db
from oracles import type_faults

SNAPSHOT = save_snapshot(
    build_db(
        LIBRARY_SCRIPT
        + "function (avg2 (a real) (b real)) (/ (+ a b) 2)"
        " domain (point2d real real)"
        " relation (spot (at point2d) (label text) (n int))"
        ' add spot ({(point2d 1 2.5) "here" 7} {(point2d -1 0) "there" -3})'
        " commit"
    )
)

# characters that matter to the snapshot format, braces weighted up, plus a
# few that should not
SNAPSHOT_CHARS = list('{}{}{} #:"\\\n0123456789-.+eE_abnorwx()') + ["\u00b2", "\u0663"]

LONG_DIGITS = "9" * 5000

mutations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace", "duplicate_line", "drop_line", "digits"]),
        st.integers(min_value=0, max_value=SNAPSHOT.count("\n")),
        st.integers(min_value=0, max_value=80),
        st.text(alphabet=st.sampled_from(SNAPSHOT_CHARS), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=4,
)


def mutate(text, edits):
    """Apply (kind, line, column, characters) edits to the snapshot text;
    a ``digits`` edit inserts a run of 5000 digits, past what ``int()``
    reads and past any ordinal or 64-bit int."""
    for kind, line, column, chars in edits:
        lines = text.split("\n")
        line %= len(lines)
        at = column % (len(lines[line]) + 1)
        old = lines[line]
        if kind == "insert":
            lines[line] = old[:at] + chars + old[at:]
        elif kind == "delete":
            lines[line] = old[:at] + old[at + len(chars) :]
        elif kind == "replace":
            lines[line] = old[:at] + chars + old[at + len(chars) :]
        elif kind == "digits":  # before the next digit, so mostly into an ordinal or a number
            at = next((k for k in range(at, len(old)) if old[k].isdigit()), at)
            lines[line] = old[:at] + LONG_DIGITS + old[at:]
        elif kind == "duplicate_line":
            lines.insert(line, old)
        else:
            del lines[line]
        text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(mutations)
def test_mutated_snapshots_load_or_raise_relang_errors(edits):
    text = mutate(SNAPSHOT, edits)
    try:
        db = load_snapshot(text)
    except RelangError:
        return
    # the loader is the only check on a snapshot row's shape
    assert type_faults(db.published) == []
    saved = save_snapshot(db)
    assert save_snapshot(load_snapshot(saved)) == saved


TOKENS = (
    "( ) { } [ ] : . ? = + - * / < > <= >= != & | ! ~"
    " 1 0 -3 2.5 1e3 99999999999999999999 " + LONG_DIGITS +
    " author book genre book_genre available department spot point2d avg2"
    " name title birthdate at label n a b text int real timestamp"
    " add remove update abolish output commit rollback relation domain function"
    " tabular csv sexpr order capitalize length X Y"
).split() + ['"Homer"', '"epic"', '"800 BC"', '"1941"', "'x'", '"H.*"', '"("', "//"]

# mostly balanced brackets around the tokens, so that much of the soup parses
soup = st.recursive(
    st.sampled_from(TOKENS),
    lambda inner: st.builds(
        lambda brackets, members: brackets[0] + " ".join(members) + brackets[1],
        st.sampled_from(["()", "{}", "[]"]),
        st.lists(inner, max_size=4),
    ),
    max_leaves=16,
)
STARTS = [
    "", "add book", "add author", "add genre", "add spot", "remove genre", "remove book",
    "abolish author", "update author", "update spot", "X =", "Y = add genre", "output",
    "output csv order name", "commit", "rollback", "relation", "function", "domain", LONG_DIGITS,
]
statements = st.lists(
    st.builds(
        lambda start, parts: " ".join([start, *parts]),
        st.sampled_from(STARTS),
        st.lists(soup, max_size=3),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(statements, st.sampled_from(["tabular", "csv", "sexpr"]))
def test_token_soup_runs_or_raises_relang_errors(script, fmt):
    db = load_snapshot(SNAPSHOT)
    session = Session(db, io.StringIO(), fmt)
    for text in script:  # each line alone, as the interactive shell reads them
        try:
            for stmt in parse_script(text):
                session.execute(stmt)
        except RelangError:
            continue  # the line is rejected; the transaction goes on
